"""Span tracer that wraps ``maxstable``'s public functions from outside.

Each layer is one or more attributes of the package (module functions, or
methods on classes).  ``Tracer.install`` replaces a module function under
every name it is bound to inside the package, so a function imported by
name (``from .pointproc import frechet_cascade``) is traced where it is
looked up, not only where it is defined.  Methods are patched on their
classes.  ``Tracer.restore`` puts every original back.

Spans (id, layer, start, end, parent id, round id) are kept in memory and
written out at the end.  A layer's self time is its span time minus the
time of its direct child spans; ``close_round`` multiplies the self time
gathered since the last call by the round's speed factor.  Work counts are
taken from the arguments and results at the same boundaries.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from dataclasses import dataclass, field

_FAMILIES = ("Gaussian", "Exponential", "Uniform", "Gamma")


def _rows(args, kwargs, result):
    return {"draws": len(result)}


def _mc_draws(args, kwargs, result):
    query, mc_n = args[2], args[3]
    return {"draws": max(mc_n // query.n, 1) * query.n}


def _search(args, kwargs, result):
    return {"configs_evaluated": result.n_evaluated, "configs_skipped": result.n_skipped}


@dataclass(frozen=True)
class Layer:
    """A traced boundary: the attributes (owner, name) it wraps and the work
    it counts.  An owner is ``module`` or ``module:Class``."""

    name: str
    targets: tuple
    counts: tuple = ()
    counter: object = None


def _fn(module, *names):
    return tuple((f"maxstable.{module}", name) for name in names)


LAYERS = (
    Layer("cli.main", _fn("cli", "main")),
    Layer("pointproc.frechet_cascade", _fn("pointproc", "frechet_cascade"), ("atoms",),
          lambda a, k, r: {"atoms": r.count}),
    Layer("spectral.sample", tuple((f"maxstable.spectral:{c}", "sample") for c in _FAMILIES),
          ("draws",), _rows),
    Layer("spectral.sample_tilted", tuple((f"maxstable.spectral:{c}", "sample_tilted") for c in _FAMILIES),
          ("draws",), _rows),
    Layer("spectral.cgf_multi", _fn("spectral", "cgf_multi")),
    Layer("seeding.derive_rng", _fn("seeding", "derive_rng")),
    Layer("seeding.spawn", _fn("seeding", "spawn")),
    Layer("seeding.run_replicates", _fn("seeding", "run_replicates")),
    Layer("simulator.Grid", (("maxstable.simulator:Grid", "__init__"),)),
    Layer("simulator.Field", (("maxstable.simulator:Field", "__post_init__"),)),
    Layer("simulator.simulate_general", _fn("simulator", "simulate_general")),
    Layer("simulator.simulate_smith", _fn("simulator", "simulate_smith")),
    Layer("simulator.simulate_brown_resnick", _fn("simulator", "simulate_brown_resnick")),
    Layer("simulator.simulate_moving_maxima", _fn("simulator", "simulate_moving_maxima"), ("storms",),
          lambda a, k, r: {"storms": r.provenance["n_points"]}),
    Layer("simulator.field_csv_text", _fn("simulator", "field_csv_text")),
    Layer("stationarity.search_violation", _fn("stationarity", "search_violation"),
          ("configs_evaluated", "configs_skipped"), _search),
    Layer("stationarity.defect", _fn("stationarity", "defect")),
    Layer("stationarity.marginal_frechet_ks", _fn("stationarity", "marginal_frechet_ks")),
    Layer("stationarity.empirical_shift_distance", _fn("stationarity", "empirical_shift_distance")),
    Layer("fdd.exponent_mc", _fn("fdd", "exponent_mc"), ("draws",), _mc_draws),
    Layer("fdd.ks_distance", _fn("fdd", "ks_distance")),
    Layer("fdd.bivariate_ecdf_distance", _fn("fdd", "bivariate_ecdf_distance")),
)


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in emission order."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer.name}.calls", "count", "lower"))
        specs.append((f"{layer.name}.self_s", "s", "lower"))
        for count in layer.counts:
            better = "higher" if count == "configs_evaluated" else "lower"
            specs.append((f"{layer.name}.{count}", "count", better))
    specs.append(("stationarity.search_violation.useful_ratio", "ratio", "higher"))
    specs.append(("trace.spans", "count", "lower"))
    specs.append(("trace.overhead_s", "s", "lower"))
    specs.append(("trace.overhead_frac", "ratio", "lower"))
    return specs


@dataclass
class _Stats:
    calls: int = 0
    self_s: float = 0.0
    pending_s: float = 0.0
    counts: dict = field(default_factory=dict)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Wraps the layers of ``LAYERS``; one instance per traced phase."""

    def __init__(self):
        self.spans = []
        self.round = None
        self.stats = {layer.name: _Stats(counts=dict.fromkeys(layer.counts, 0)) for layer in LAYERS}
        self._stack = []
        self._ids = itertools.count()
        self._patches = []

    def _wrap(self, layer: Layer, fn):
        spans, stack, stats = self.spans, self._stack, self.stats[layer.name]
        ids, clock, counter = self._ids, time.perf_counter, layer.counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                stats.calls += 1
                stats.pending_s += end - start - frame[1]
                spans.append((frame[0], layer.name, start, end, parent, self.round))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    stats.counts[key] += value
            return result

        return traced

    def close_round(self, scale: float):
        """Fold the self time of the round just ended in, times ``scale``."""
        for stats in self.stats.values():
            stats.self_s += stats.pending_s * scale
            stats.pending_s = 0.0

    def install(self):
        package = [m for name, m in sys.modules.items() if name == "maxstable" or name.startswith("maxstable.")]
        for layer in LAYERS:
            for owner_name, attr in layer.targets:
                owner = _resolve(owner_name)
                original = vars(owner)[attr]
                wrapped = self._wrap(layer, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapped)
                    continue
                for module in package:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched attribute holds its original again."""
        return bool(self._patches) and all(vars(owner)[attr] is original for owner, attr, original in self._patches)

    def metrics(self, overhead_s: float, untraced_wall_s: float) -> dict:
        out = {}
        for layer in LAYERS:
            stats = self.stats[layer.name]
            out[f"{layer.name}.calls"] = stats.calls
            out[f"{layer.name}.self_s"] = stats.self_s
            for key, value in stats.counts.items():
                out[f"{layer.name}.{key}"] = value
        search = self.stats["stationarity.search_violation"].counts
        attempted = search["configs_evaluated"] + search["configs_skipped"]
        out["stationarity.search_violation.useful_ratio"] = search["configs_evaluated"] / attempted if attempted else 0.0
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_s"] = overhead_s
        out["trace.overhead_frac"] = overhead_s / untraced_wall_s
        return out

    def write_spans(self, path):
        """One JSON list per line: [id, layer, start, end, parent, round]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
