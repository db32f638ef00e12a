import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxstable import simulator
from maxstable.seeding import block_rng, derive_rng, spawn
from maxstable.simulator import _REPLICATE_BLOCK, _STORM_STEP, prepare_moving_maxima
from maxstable.spectral import Exponential, Gamma, Gaussian, Uniform, clamp_psd


class StubRng:
    """Deterministic generator stand-in for construction-level tests.

    exponential -> ones (so cascades become 1, 1/2, 1/3, ...),
    standard_normal -> zeros, uniform -> interval midpoints, random -> 0.5.
    """

    def exponential(self, size=None):
        return np.ones(size if size is not None else ())

    def standard_normal(self, shape=None):
        return np.zeros(shape if shape is not None else ())

    def uniform(self, low=0.0, high=1.0, size=None):
        mid = (np.asarray(low, dtype=float) + np.asarray(high, dtype=float)) / 2.0
        if size is None:
            return mid
        return np.broadcast_to(mid, size).copy()

    def random(self, size=None):
        return np.full(size if size is not None else (), 0.5)

    def spawn(self, n):
        return [self for _ in range(n)]


@pytest.fixture
def stub_rng():
    return StubRng()


@pytest.fixture
def rng():
    return derive_rng(12345)


def extremal_reference(m, draw, candidate, n_points, rng, width=1, slot=0, screen=None, complete=None,
                       trace=None):
    """The textbook extremal-function loop (Dombry, Engelke & Oesting 2016,
    Algorithm 2) for slot ``slot`` of a block of ``width`` slots whose
    stream is rng, one candidate at a time and nothing drawn ahead.

    rng splits into an arrival and a spectral stream, and a completion
    stream when ``complete`` is given.  The arrival stream is read in
    layers, each a (width, C, m) table of standard exponentials
    (C = simulator._ARRIVALS, read at each call), the next one only when
    the loop needs an arrival past those read: arrival c at t_j adds entry
    (slot, c mod C, j) of layer c // C to Gamma.  The base rows of the
    spectral stream are read one round of width at a time, draw(width,
    rng_x), and the slot takes entry ``slot`` of each, one round per
    candidate.  candidate(j, row) is the row's log Y = log(W / W(t_j)) on
    the m grid locations under the t_j-tilted law.  With ``complete``, a
    candidate at t_j (j >= 1) whose screen(j, row), its log Y at t_{j-1},
    puts it at or above Z(t_{j-1}) is rejected there; t_0's candidate and
    every other one read a completion row, complete(width, rng_c), one
    round each, and are candidate(j, row, path).  A kept candidate sets
    Z(t_j) = zeta, so t_j ends with it.  At width 1 this is one field's
    layout.  Returns (log Z, draws, kept).

    A list ``trace`` gets one record of the loop's decisions per candidate,
    in order: its location j, log zeta and base row (the draws before it);
    whether it reaches Z at t_{j-1} (j >= 1), where the engine's screen
    rejects it; the completion rows read before it (None if it reads none);
    and whether it is kept, with log Z after it if it is.
    """
    rng_e, rng_x, *rng_c = spawn(rng, 3 if complete else 2)
    arrivals, layers = simulator._ARRIVALS, []

    def exponential(c, j):
        while len(layers) * arrivals <= c:
            layers.append(rng_e.exponential(size=(width, arrivals, m))[slot])
        return layers[c // arrivals][c % arrivals, j]

    log_z = np.full(m, -np.inf)
    draws = kept = paths = 0
    for j in range(m):
        gamma = exponential(0, j)
        count = 0
        while -np.log(gamma) > log_z[j]:
            if count == n_points:
                raise ValueError(f"location {j} needs more than n_points = {n_points}")
            row = draw(width, rng_x)[slot]
            count += 1
            record = {"j": j, "log_zeta": -np.log(gamma), "row": draws + count - 1, "path": None,
                      "screened": True, "kept": False}
            # a candidate the screen rejects reads no completion row
            if not (complete and j and -np.log(gamma) + screen(j, row) >= log_z[j - 1]):
                if complete:
                    record["path"], paths = paths, paths + 1
                path = (complete(width, rng_c[0])[slot],) if complete else ()
                cand = -np.log(gamma) + candidate(j, row, *path)
                # the row's entry at t_{j-1} is the screen's value
                record["screened"] = bool(j and cand[j - 1] >= log_z[j - 1])
                if np.all(cand[:j] < log_z[:j]):
                    log_z = np.maximum(log_z, cand)
                    kept += 1
                    record.update(kept=True, log_z=log_z)
            if trace is not None:
                trace.append(record)
            if record["kept"]:
                break
            gamma += exponential(count, j)
        draws += count
    return log_z, draws, kept


def general_reference(dist, kappa, grid, n_points, rng, width=1, slot=0, trace=None):
    """extremal_reference for max_i U_i exp(<X_i, t> - kappa(t)): X from
    the family's one-point tilt at t_j of the row, log Y = a(t) - a(t_j)
    with a(t) = <X, t> - phi(t), the field shifted by phi - kappa."""
    t = grid.locations
    phi = np.asarray(dist.cgf(t), dtype=float)
    draw, _ = dist.tilted_sampler(t)
    tilts = [dist.tilted_sampler(t[j][None])[1] for j in range(grid.size)]

    def candidate(j, row):
        a = (tilts[j](row[None], 0) @ t.T)[0] - phi
        return a - a[j]

    log_z, draws, kept = extremal_reference(grid.size, draw, candidate, n_points, rng, width, slot, trace=trace)
    return np.exp(log_z + (phi - kappa.values(t))), draws, kept


def brown_resnick_reference(variogram, grid, n_points, rng, width=1, slot=0, trace=None):
    """extremal_reference for Brown-Resnick: the base row is one standard
    normal N, S = sqrt(gamma_1) N with gamma_1 = gamma(t_j - t_{j-1}) the
    increment D(t_{j-1}) = G(t_{j-1}) - G(t_j), and the screen S - gamma_1 / 2.
    A completion row gives an unconditioned path of the prepared law's
    increments, D~ = G~ - G~(t_j), and D is D~ conditioned on D(t_{j-1}) = S
    by kriging its residual, with D(t_{j-1}) = S; log Y = D - gamma(t - t_j) / 2."""
    inc = simulator._br_increments(variogram, grid)
    gamma = inc.gamma

    def draw(n, rng_x):
        return rng_x.standard_normal((n, 1))

    def complete(n, rng_c):
        return rng_c.standard_normal((n, inc.width))

    def screen(j, row):
        g1 = gamma[j, j - 1]
        return np.sqrt(g1) * row[0] - 0.5 * g1

    def candidate(j, row, path):
        g = inc.paths(path[None])[0]
        d = g - g[j]
        if j:
            g1 = gamma[j, j - 1]
            s = np.sqrt(g1) * row[0]
            d += 0.5 * (gamma[j] + g1 - gamma[j - 1]) * ((s - d[j - 1]) / g1)
            d[j - 1] = s
        return d - 0.5 * gamma[j]

    log_z, draws, kept = extremal_reference(grid.size, draw, candidate, n_points, rng, width, slot,
                                            screen, complete, trace)
    return np.exp(log_z), draws, kept


def general_block_reference(dist, kappa, grid, n_points, seed, k):
    """Replicate k of seed of a general ensemble: slot k mod B of block
    k // B (B = _REPLICATE_BLOCK), whose stream is block_rng(seed, block)."""
    block, slot = divmod(k, _REPLICATE_BLOCK)
    return general_reference(dist, kappa, grid, n_points, block_rng(seed, block), _REPLICATE_BLOCK, slot)


def brown_resnick_block_reference(variogram, grid, n_points, seed, k):
    """Replicate k of seed of a Brown-Resnick ensemble, as general_block_reference."""
    block, slot = divmod(k, _REPLICATE_BLOCK)
    return brown_resnick_reference(variogram, grid, n_points, block_rng(seed, block), _REPLICATE_BLOCK, slot)


def moving_maxima_reference(sigma, grid, rng, width=1, slot=0):
    """Slot ``slot`` of a moving-maxima block of ``width`` slots whose
    stream is rng, alone and one step at a time.

    At every step the block draws width x C standard exponentials and then
    width x C storm centres on the prepared law's window (C = _STORM_STEP),
    and the slot reads row ``slot`` of each.  Within a step the arrivals are
    summed first and Gamma so far added after; storm i scores
    log c + log(|window| / Gamma_i) - <t - T_i, Sigma (t - T_i)> / 2 at
    every t, the quadratic form summed in coordinate order.  The replicate
    stops after the first step whose last storm scores below the minimum
    of its field.  At width 1 this is one field's layout.  Returns (log Z,
    storms).
    """
    law = prepare_moving_maxima(sigma, grid)
    sigma = clamp_psd(sigma)[0]
    window = np.array(law.provenance["window"])
    vol = float(np.prod(window[:, 1] - window[:, 0]))
    log_c = math.log(math.sqrt(np.linalg.det(sigma)) / (2.0 * math.pi) ** (grid.dim / 2.0))
    best = np.full(grid.size, -np.inf)
    gamma, storms = 0.0, 0
    while True:
        arrivals = rng.exponential(size=(width, _STORM_STEP))[slot]
        centers = rng.uniform(window[:, 0], window[:, 1], size=(width, _STORM_STEP, grid.dim))[slot]
        gammas = np.cumsum(arrivals) + gamma
        gamma = gammas[-1]
        log_strengths = log_c + np.log(vol / gammas)
        storms += _STORM_STEP
        for log_strength, center in zip(log_strengths, centers):
            h = grid.locations - center
            quad = np.zeros(grid.size)
            for a in range(grid.dim):
                sigma_h = h[:, 0] * sigma[a, 0]
                for b in range(1, grid.dim):
                    sigma_h = sigma_h + h[:, b] * sigma[a, b]
                quad = sigma_h * h[:, a] if a == 0 else quad + sigma_h * h[:, a]
            best = np.maximum(best, log_strength - 0.5 * quad)
        if log_strengths[-1] < best.min():
            return best, storms


def moving_maxima_block_reference(sigma, grid, seed, k):
    """Replicate k of seed of a moving-maxima ensemble: slot k mod B of
    block k // B (B = _REPLICATE_BLOCK), whose stream is block_rng(seed, block)."""
    block, slot = divmod(k, _REPLICATE_BLOCK)
    return moving_maxima_reference(sigma, grid, block_rng(seed, block), _REPLICATE_BLOCK, slot)


def load_bench_module(name):
    """``bench/<name>.py`` loaded read-only from its file, without putting
    ``bench/`` on the import path."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"maxstable_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the classes are made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


FINITE = st.floats(-1e6, 1e6, allow_nan=False)
POSITIVE = st.floats(1e-6, 1e6)


@st.composite
def distributions(draw, d=None):
    """A law of any family in R^d, d drawn from 1..3 unless given, with
    random valid parameters."""
    if d is None:
        d = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["gaussian", "exp", "uniform", "gamma"]))
    if family == "gaussian":
        a = draw(hnp.arrays(float, (d, d), elements=st.floats(-10.0, 10.0)))
        return Gaussian(draw(hnp.arrays(float, d, elements=FINITE)), a @ a.T + 0.1 * np.eye(d))
    if family == "exp":
        return Exponential(draw(hnp.arrays(float, d, elements=POSITIVE)))
    if family == "uniform":
        a = draw(hnp.arrays(float, d, elements=FINITE))
        return Uniform(a, a + draw(hnp.arrays(float, d, elements=st.floats(1.0, 1e6))))
    shape, rate = (draw(hnp.arrays(float, d, elements=POSITIVE)) for _ in range(2))
    return Gamma(shape, rate)
