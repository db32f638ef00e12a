"""Poisson points of the u^-2 du process on (0, inf).

The decreasing cascade {U_i} is materialized from partial sums of
standard-exponential arrivals: U_i = 1 / (E_1 + ... + E_i).  The
simulator draws its arrivals (and the moving-maxima storms) the same way,
streamed in decreasing order.
"""
from __future__ import annotations

import numpy as np

from .frozen import Frozen


class FrechetCascade(Frozen):
    """The n largest points U_1 > U_2 > ... of the u^-2 du Poisson process."""

    _fields = ("points", "seed_record")

    def __init__(self, points, seed_record: tuple | None = None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("cascade must hold at least one point")
        if np.any(pts <= 0) or np.any(np.diff(pts) >= 0):
            raise ValueError("cascade points must be positive and strictly decreasing")
        self._set_fields(pts, seed_record)

    @property
    def count(self) -> int:
        return self.points.size


def frechet_cascade(n: int, rng, seed_record: tuple | None = None) -> FrechetCascade:
    """The n largest points of the u^-2 du process via exponential arrivals."""
    if n < 1:
        raise ValueError("cascade size must be >= 1")
    arrivals = np.asarray(rng.exponential(size=int(n)), dtype=float)
    if np.any(arrivals <= 0):
        raise ValueError("generator produced non-positive exponential draws")
    return FrechetCascade(1.0 / np.cumsum(arrivals), seed_record)

