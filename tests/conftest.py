import math

import numpy as np
import pytest

from maxstable.seeding import derive_rng, spawn
from maxstable.simulator import _br_cov_factor


class StubRng:
    """Deterministic generator stand-in for construction-level tests.

    exponential -> ones (so cascades become 1, 1/2, 1/3, ...),
    standard_normal -> zeros, uniform -> interval midpoints.
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

    def spawn(self, n):
        return [self for _ in range(n)]


@pytest.fixture
def stub_rng():
    return StubRng()


@pytest.fixture
def rng():
    return derive_rng(12345)


def extremal_reference(m, candidate, n_points, rng):
    """The textbook extremal-function loop (Dombry, Engelke & Oesting 2016,
    Algorithm 2), one candidate at a time and nothing drawn ahead.

    candidate(j, rng_x) draws one log Y = log(W / W(t_j)) on the m grid
    locations under the t_j-tilted law.  Returns (log Z, draws, kept).
    """
    rng_e, rng_x = spawn(rng, 2)
    log_z = np.full(m, -np.inf)
    draws = kept = 0
    for j in range(m):
        gamma = float(rng_e.exponential())
        count = 0
        while -math.log(gamma) > log_z[j]:
            if count == n_points:
                raise ValueError(f"location {j} needs more than n_points = {n_points}")
            cand = -math.log(gamma) + candidate(j, rng_x)
            count += 1
            if np.all(cand[:j] < log_z[:j]):
                log_z = np.maximum(log_z, cand)
                kept += 1
            gamma += float(rng_e.exponential())
        draws += count
    return log_z, draws, kept


def general_reference(dist, kappa, grid, n_points, rng):
    """extremal_reference for max_i U_i exp(<X_i, t> - kappa(t)): X from
    ``sample_tilted`` one row at a time, log Y = a(t) - a(t_j) with
    a(t) = <X, t> - phi(t), the field shifted by phi - kappa."""
    t = grid.locations
    phi = np.asarray(dist.cgf(t), dtype=float)

    def candidate(j, rng_x):
        a = (dist.sample_tilted(t[j], 1, rng_x) @ t.T)[0] - phi
        return a - a[j]

    log_z, draws, kept = extremal_reference(grid.size, candidate, n_points, rng)
    return np.exp(log_z + (phi - kappa.values(t))), draws, kept


def brown_resnick_reference(variogram, grid, n_points, rng):
    """extremal_reference for Brown-Resnick: one vector of Gaussian
    increments G per candidate, log Y = G(t) - G(t_j) - gamma(t - t_j) / 2."""
    factor, pairwise = _br_cov_factor(variogram, grid)

    def candidate(j, rng_x):
        g = (rng_x.standard_normal((1, factor.shape[1])) @ factor.T)[0]
        return g - g[j] - 0.5 * pairwise[j]

    log_z, draws, kept = extremal_reference(grid.size, candidate, n_points, rng)
    return np.exp(log_z), draws, kept
