import math

import numpy as np
import pytest

from maxstable import fdd
from maxstable.fdd import (
    ExponentValue,
    FddQuery,
    bivariate_ecdf_distance,
    empirical_cdf,
    exponent_mc,
    fdd_exponent,
    frechet_cdf,
    frechet_quantile,
    frechet_threshold_grid,
    husler_reiss_V,
    ks_distance,
    ks_threshold,
    std_normal_cdf,
)
from maxstable.seeding import derive_rng
from maxstable.spectral import (
    Exponential,
    Gamma,
    Gaussian,
    ShapeFunction,
    SpectralDistribution,
    Uniform,
)


def unit_gaussian():
    dist = Gaussian([0.0], [[1.0]])
    return dist, ShapeFunction.from_cgf(dist)


# ---------------------------------------------------------------------------
# queries


def test_query_validation():
    q = FddQuery([0.0, 1.0], [1.0, 2.0])
    assert q.n == 2 and q.ts.shape == (2, 1)
    with pytest.raises(ValueError):
        FddQuery([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        FddQuery([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        FddQuery([0.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# closed forms


def test_std_normal_cdf_values():
    assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-16)
    assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
    assert std_normal_cdf(-37.0) > 0  # still nonzero far into the lower tail


def test_husler_reiss_frozen_value():
    # gamma = 4, x1 = x2 = 1: V = 2 Phi(1)
    ev = husler_reiss_V(4.0, 1.0, 1.0)
    assert ev.value == pytest.approx(1.6826894921370859, abs=1e-15)
    assert ev.method == "closed-bivariate"


def test_husler_reiss_limits():
    # complete dependence at gamma = 0, independence as gamma -> inf
    assert husler_reiss_V(0.0, 1.0, 2.0).value == pytest.approx(1.0, abs=1e-15)
    assert husler_reiss_V(1e4, 1.0, 2.0).value == pytest.approx(1.5, rel=1e-12)


def test_husler_reiss_validation():
    with pytest.raises(ValueError):
        husler_reiss_V(4.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        husler_reiss_V(-0.1, 1.0, 1.0)


def test_closed_marginal_is_frechet_rate():
    dist, kappa = unit_gaussian()
    ev = fdd_exponent(dist, kappa, FddQuery([1.3], [2.0]), "closed-marginal")
    assert ev.value == pytest.approx(0.5, abs=1e-14)


def test_closed_bivariate_requires_gaussian_cgf():
    dist = Exponential(1.0)
    kappa = ShapeFunction.from_cgf(dist)
    with pytest.raises(ValueError):
        fdd_exponent(dist, kappa, FddQuery([0.0, 0.5], [1.0, 1.0]), "closed-bivariate")
    gdist, _ = unit_gaussian()
    wrong_kappa = ShapeFunction.quadratic([0.5], [[1.0]])
    with pytest.raises(ValueError):
        fdd_exponent(gdist, wrong_kappa, FddQuery([0.0, 2.0], [1.0, 1.0]), "closed-bivariate")


def test_closed_bivariate_matches_husler_reiss():
    dist, kappa = unit_gaussian()
    ev = fdd_exponent(dist, kappa, FddQuery([0.0, 2.0], [1.0, 3.0]), "closed-bivariate")
    assert ev.value == pytest.approx(husler_reiss_V(4.0, 1.0, 3.0).value, abs=1e-15)


def test_method_dispatch_errors(rng):
    dist, kappa = unit_gaussian()
    q = FddQuery([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        fdd_exponent(dist, kappa, q, "closed-marginal")
    with pytest.raises(ValueError):
        fdd_exponent(dist, kappa, FddQuery([0.0], [1.0]), "closed-bivariate")
    with pytest.raises(ValueError):
        fdd_exponent(dist, kappa, q, "saddlepoint", rng)
    with pytest.raises(ValueError):
        fdd_exponent(dist, kappa, q, "mc")  # no generator


# ---------------------------------------------------------------------------
# Monte Carlo exponent


def test_exponent_mc_matches_closed_bivariate():
    dist, kappa = unit_gaussian()
    q = FddQuery([0.0, 2.0], [1.0, 2.0])
    ev = exponent_mc(dist, kappa, q, 400_000, derive_rng(101))
    closed = fdd_exponent(dist, kappa, q, "closed-bivariate").value
    assert ev.se > 0
    assert abs(ev.value - closed) < 3.0 * ev.se


def test_exponent_mc_is_deterministic():
    dist, kappa = unit_gaussian()
    q = FddQuery([0.0, 1.0], [1.0, 1.0])
    a = exponent_mc(dist, kappa, q, 150_000, derive_rng(5))
    b = exponent_mc(dist, kappa, q, 150_000, derive_rng(5))
    assert a.value == b.value and a.se == b.se


# (law, points, thresholds): the four families in d = 1 and a 2-D Gaussian
MC_LAWS = [
    *(pytest.param(d, [0.0, 0.3, 0.6], [1.0, 1.5, 0.8], id=d.family)
      for d in (Gaussian([0.3], [[2.0]]), Exponential(1.0), Uniform(0.0, 1.0), Gamma(2.0, 1.0))),
    pytest.param(Gaussian([0.1, -0.2], [[1.0, 0.3], [0.3, 2.0]]), [[0.0, 0.0], [0.5, -0.3], [1.0, 0.7]],
                 [1.0, 1.5, 0.8], id="gaussian-2d"),
]


@pytest.mark.parametrize("dist, ts, xs", MC_LAWS)
def test_exponent_mc_does_not_depend_on_the_chunk_size(dist, ts, xs, monkeypatch):
    kappa = ShapeFunction.from_cgf(dist)
    q = FddQuery(ts, xs)
    whole = exponent_mc(dist, kappa, q, 30_000, derive_rng(8))
    monkeypatch.setattr(fdd, "_MC_CHUNK", 1000)
    assert exponent_mc(dist, kappa, q, 30_000, derive_rng(8)) == whole


def argmax_reference(dist, kappa, query, mc_n, rng):
    """exponent_mc in matrix form: every point's log terms in one (N, n)
    product, and each row's point by argmax, which takes the first of tied
    maxima.  Returns (value, se)."""
    kap = kappa.values(query.ts)
    log_x = np.log(query.xs)
    weights = np.exp(np.asarray(dist.cgf(query.ts), dtype=float) - kap - log_x)
    m = max(mc_n // query.n, 1)
    value = var = 0.0
    for j in range(query.n):
        hits = 0
        for done in range(0, m, fdd._MC_CHUNK):
            x = dist.sample_tilted(query.ts[j], min(fdd._MC_CHUNK, m - done), rng)
            log_terms = x @ query.ts.T - kap[None, :] - log_x[None, :]
            hits += int((log_terms.argmax(axis=1) == j).sum())
        p = hits / m
        value += weights[j] * p
        var += weights[j] ** 2 * p * (1.0 - p) / m
    return value, math.sqrt(var)


class SmallIntegers(SpectralDistribution):
    """A stub law in R^2 whose tilted draws are integers in [-2, 2] at every
    t.  Its CGF reads 0, so kappa and log x vanish at unit thresholds, and
    the log terms at the points (0,0), (1,0), (0,1), (1,1) are 0, x_1, x_2
    and x_1 + x_2: exact ties in most rows."""

    family = "small-integers"
    dim = 2

    def cgf(self, t):
        return np.zeros(len(np.atleast_2d(t)))

    def sample_tilted(self, t, n, rng):
        return rng.integers(-2, 3, size=(n, self.dim)).astype(float)


@pytest.mark.parametrize(
    "dist, ts, xs",
    [*MC_LAWS, pytest.param(SmallIntegers(), [[0, 0], [1, 0], [0, 1], [1, 1]], [1.0] * 4, id="ties")],
)
def test_exponent_mc_equals_the_argmax_reference(dist, ts, xs, monkeypatch):
    kappa = ShapeFunction.from_cgf(dist)
    q = FddQuery(ts, xs)
    monkeypatch.setattr(fdd, "_MC_CHUNK", 7000)  # several chunks per point, the last one short
    for seed in (41, 42):
        ev = exponent_mc(dist, kappa, q, 40_000, derive_rng(seed))
        assert (ev.value, ev.se) == argmax_reference(dist, kappa, q, 40_000, derive_rng(seed))


def test_exponent_mc_minimum_sample_size(rng):
    dist, kappa = unit_gaussian()
    with pytest.raises(ValueError):
        exponent_mc(dist, kappa, FddQuery([0.0, 1.0], [1.0, 1.0]), 999, rng)


def test_exponent_value_is_frozen():
    ev = ExponentValue(1.0, 0.0, "mc")
    with pytest.raises(AttributeError):
        ev.value = 2.0


# ---------------------------------------------------------------------------
# empirical utilities


def test_frechet_cdf_and_quantile_round_trip():
    for p in (0.1, 0.5, 0.9):
        assert frechet_cdf(np.array([frechet_quantile(p)]))[0] == pytest.approx(p, abs=1e-15)
    assert frechet_cdf(np.array([-1.0, 0.0]))[0] == 0.0
    with pytest.raises(ValueError):
        frechet_quantile(1.0)


def test_empirical_cdf_basics():
    samples = np.arange(1, 201, dtype=float)
    assert empirical_cdf(samples, 100.0) == pytest.approx(0.5)
    assert empirical_cdf(samples, 0.0) == 0.0
    with pytest.raises(ValueError):
        empirical_cdf(samples[:50], 1.0)


def test_ks_distance_of_frechet_sample(rng):
    # inverse-transform Frechet sample: KS well under the 1% critical value
    u = rng.uniform(0.0, 1.0, size=20_000)
    samples = -1.0 / np.log(u)
    assert ks_distance(samples, frechet_cdf) < ks_threshold(20_000)


def test_ks_distance_detects_wrong_reference(rng):
    samples = rng.uniform(0.0, 1.0, size=5000)
    assert ks_distance(samples, frechet_cdf) > 0.5


def test_ks_threshold_values():
    assert ks_threshold(10_000) == pytest.approx(0.01628)


def test_bivariate_ecdf_distance():
    a = np.array([[0.0, 0.0], [2.0, 2.0]])
    b = np.array([[2.0, 2.0], [0.0, 0.0]])
    assert bivariate_ecdf_distance(a, b, np.array([1.0])) == 0.0
    c = np.array([[3.0, 3.0], [3.0, 3.0]])
    assert bivariate_ecdf_distance(a, c, np.array([1.0])) == pytest.approx(0.5)


def test_frechet_threshold_grid_default():
    grid = frechet_threshold_grid()
    assert grid.shape == (9,)
    assert np.all(np.diff(grid) > 0)
    assert grid[4] == pytest.approx(frechet_quantile(0.5))
