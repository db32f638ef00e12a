import math

import numpy as np
import pytest

from maxstable.seeding import block_rng, derive_rng, spawn
from maxstable.simulator import _REPLICATE_BLOCK, _STORM_STEP, _br_cov_factor, prepare_moving_maxima
from maxstable.spectral import clamp_psd


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


def extremal_block_reference(m, draw, candidate, n_points, seed, k):
    """The textbook loop for replicate k of seed in the ensemble layout.

    Block k // B (B = _REPLICATE_BLOCK) has the stream block_rng(seed,
    block); at every step it draws B standard exponentials and then
    draw(B, stream) base rows, and replicate k reads entry k mod B of each.
    One arrival per step: it adds to Gamma at t_j, and zeta = 1 / Gamma
    either falls to Z(t_j) or below, which ends t_j, or makes a candidate
    from the step's row, candidate(j, row) being its log Y.  A kept
    candidate sets Z(t_j) = zeta, so t_j ends with it.  The stream is drawn
    afresh for each replicate.  Returns (log Z, draws, kept).
    """
    block, slot = divmod(k, _REPLICATE_BLOCK)
    rng = block_rng(seed, block)
    log_z = np.full(m, -np.inf)
    draws = kept = 0
    j, gamma, count = 0, 0.0, 0
    while j < m:
        gamma += rng.exponential(size=_REPLICATE_BLOCK)[slot]
        row = draw(_REPLICATE_BLOCK, rng)[slot]
        log_zeta = -np.log(gamma)
        if not log_zeta > log_z[j]:
            j, gamma, count = j + 1, 0.0, 0
            continue
        if count == n_points:
            raise ValueError(f"location {j} needs more than n_points = {n_points}")
        count += 1
        draws += 1
        cand = log_zeta + candidate(j, row)
        if np.all(cand[:j] < log_z[:j]):
            log_z = np.maximum(log_z, cand)
            kept += 1
            j, gamma, count = j + 1, 0.0, 0
    return log_z, draws, kept


def general_block_reference(dist, kappa, grid, n_points, seed, k):
    """extremal_block_reference for max_i U_i exp(<X_i, t> - kappa(t)): X
    from the family's one-point tilt at t_j of the row, log Y = a(t) - a(t_j)
    with a(t) = <X, t> - phi(t), the field shifted by phi - kappa."""
    t = grid.locations
    phi = np.asarray(dist.cgf(t), dtype=float)
    draw, _ = dist.tilted_sampler(t)
    tilts = [dist.tilted_sampler(t[j][None])[1] for j in range(grid.size)]

    def candidate(j, row):
        a = (tilts[j](row[None], 0) @ t.T)[0] - phi
        return a - a[j]

    log_z, draws, kept = extremal_block_reference(grid.size, draw, candidate, n_points, seed, k)
    return np.exp(log_z + (phi - kappa.values(t))), draws, kept


def brown_resnick_block_reference(variogram, grid, n_points, seed, k):
    """extremal_block_reference for Brown-Resnick: a row of standard normals
    gives G = factor @ row and log Y = G(t) - G(t_j) - gamma(t - t_j) / 2."""
    factor, pairwise = _br_cov_factor(variogram, grid)

    def draw(n, rng):
        return rng.standard_normal((n, factor.shape[1]))

    def candidate(j, row):
        g = factor @ row
        return g - g[j] - 0.5 * pairwise[j]

    log_z, draws, kept = extremal_block_reference(grid.size, draw, candidate, n_points, seed, k)
    return np.exp(log_z), draws, kept


def moving_maxima_block_reference(sigma, grid, seed, k):
    """Replicate k of seed of a moving-maxima ensemble, alone and one step
    at a time.

    Block k // B (B = _REPLICATE_BLOCK) has the stream block_rng(seed,
    block); at every step it draws B x C standard exponentials and then
    B x C storm centres on the prepared law's window (C = _STORM_STEP), and
    replicate k reads row k mod B of each.  Within a step the arrivals are
    summed first and Gamma so far added after; storm i scores
    log c + log(|window| / Gamma_i) - <t - T_i, Sigma (t - T_i)> / 2 at
    every t, the quadratic form summed in coordinate order.  The replicate
    stops after the first step whose last storm scores below the minimum
    of its field.  Returns (log Z, storms).
    """
    law = prepare_moving_maxima(sigma, grid)
    sigma = clamp_psd(sigma)[0]
    window = np.array(law.provenance["window"])
    vol = float(np.prod(window[:, 1] - window[:, 0]))
    log_c = math.log(math.sqrt(np.linalg.det(sigma)) / (2.0 * math.pi) ** (grid.dim / 2.0))
    block, slot = divmod(k, _REPLICATE_BLOCK)
    rng = block_rng(seed, block)
    best = np.full(grid.size, -np.inf)
    gamma, storms = 0.0, 0
    while True:
        arrivals = rng.exponential(size=(_REPLICATE_BLOCK, _STORM_STEP))[slot]
        centers = rng.uniform(window[:, 0], window[:, 1], size=(_REPLICATE_BLOCK, _STORM_STEP, grid.dim))[slot]
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
