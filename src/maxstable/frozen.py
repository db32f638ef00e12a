"""The immutable base of the package's value classes.

A subclass names its fields in the class-level tuple ``_fields`` and sets
them in its own ``__init__`` with ``_set_fields`` (or, for an attribute
outside ``_fields``, ``object.__setattr__``); after that, setting or
deleting any attribute raises ``AttributeError``.  Equality, hashing and
repr read the fields in order: two instances of the same class are equal
when their fields are, pair by pair, a numpy field when its shape and
values are (so nan never equals nan, and -0.0 equals 0.0); the hash is
that of the field tuple, so a class with an array field is unhashable;
the repr is ``Name(field=value, ...)`` (the spectral families print by
their spec string instead).  Nothing is generated at import.
"""
from __future__ import annotations

import numpy as np


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class Frozen:
    _fields: tuple = ()

    def _set_fields(self, *values):
        """Set the fields, in ``_fields`` order: once, from ``__init__``."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return all(map(_same, self._values(), other._values()))
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
