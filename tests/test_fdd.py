import math
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import maxstable
from maxstable import fdd
from maxstable.fdd import (
    ExponentValue,
    FddQuery,
    bivariate_ecdf_distance,
    closed_bivariate,
    exponent_mc,
    frechet_cdf,
    frechet_quantile,
    frechet_threshold_grid,
    husler_reiss_V,
    ks_distance,
    ks_threshold,
    std_normal_cdf,
)
from maxstable.frozen import Frozen
from maxstable.pointproc import FrechetCascade
from maxstable.seeding import derive_rng
from maxstable.simulator import Field, Grid, PreparedLaw, Variogram, prepare_smith
from maxstable.spectral import (
    Exponential,
    Gamma,
    Gaussian,
    ShapeFunction,
    SimplexWeights,
    SpectralDistribution,
    Uniform,
    parse_distribution,
)
from maxstable.stationarity import CharacterizationReport, CriterionConfig, DefectReport


def unit_gaussian():
    dist = Gaussian([0.0], [[1.0]])
    return dist, ShapeFunction(dist)


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


def test_query_points_are_validated_as_a_grid():
    # a scalar point or a 3-D array is not an (m, d) array of locations
    for ts, xs in ((0.5, 1.0), ([[[0.0]]], [1.0])):
        with pytest.raises(ValueError, match=r"^grid must be a non-empty \(m, d\) array of locations$"):
            FddQuery(ts, xs)
    with pytest.raises(ValueError, match=r"^grid contains duplicate locations \(tolerance 1e-12\)$"):
        FddQuery([0.0, 1e-13], [1.0, 1.0])


def test_many_coincident_points_are_rejected_at_the_first_pair():
    # the duplicate check stops at the first close pair, so a long run of
    # equal points fails in about the time of one sort
    zeros = np.zeros(10**5)
    for build in (lambda: Grid(zeros), lambda: FddQuery(zeros, np.ones(10**5))):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="duplicate locations"):
            build()
        assert time.perf_counter() - start < 1.0


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


def test_one_point_mc_is_the_frechet_rate():
    dist, kappa = unit_gaussian()
    q = FddQuery([1.3], [2.0])
    ev = exponent_mc(dist, kappa, q, 1000, derive_rng(3))
    assert ev.value == pytest.approx(0.5, abs=1e-14)
    assert ev.value == fdd._weights(dist, kappa, q)[2][0]


@pytest.mark.parametrize("dist", [Gaussian([0.3], [[2.0]]), Exponential(1.0), Uniform(0.0, 1.0), Gamma(2.0, 1.0)],
                         ids=lambda d: d.family)
@pytest.mark.parametrize("quadratic", [False, True], ids=["cgf", "quadratic"])
def test_one_point_mc_value_is_its_weight_bit_for_bit(dist, quadratic):
    # the Monte Carlo value of a one-point query is its weight
    # w_0 = e^(phi - kappa) / x_0 times a hit rate of exactly 1
    kappa = ShapeFunction.quadratic([0.1], [[0.7]], 0.2) if quadratic else ShapeFunction(dist)
    for t in (0.1, 0.37, 0.5):
        for x in (0.3, 1.7, 2.9, 13.0):
            q = FddQuery([t], [x])
            weight = fdd._weights(dist, kappa, q)[2][0]
            assert weight == pytest.approx(math.exp(dist.cgf([t]) - kappa.values(t)) / x, rel=1e-14)
            assert exponent_mc(dist, kappa, q, 1000, derive_rng(3)).value == weight


@pytest.mark.parametrize("ts, xs, method, point", [
    ([0.0, 1e200], [1.0, 1.0], "mc", 1),  # phi = kappa = inf
    ([0.0, 1.0], [1e-320, 1.0], "mc", 0),  # 1 / x overflows
    ([1e200], [1.0], "mc", 0),
    ([0.0, 1e200], [1.0, 1.0], "closed-bivariate", 1),  # phi - kappa = inf - inf
])
def test_a_weight_that_is_not_finite_is_reported_at_its_query_point(ts, xs, method, point):
    dist, kappa = unit_gaussian()
    query = FddQuery(ts, xs)
    with pytest.raises(ValueError, match=f"is not finite at query point {point}$"):
        if method == "mc":
            exponent_mc(dist, kappa, query, 2000, derive_rng(1))
        else:
            closed_bivariate(dist, kappa, query)


def test_closed_bivariate_at_an_overflowing_lag_is_the_independence_limit():
    # gamma(h) = inf: V = 1 / x1 + 1 / x2
    dist, kappa = unit_gaussian()
    assert closed_bivariate(dist, kappa, FddQuery([-1e154, 1e154], [1.0, 2.0])).value == 1.5


def test_closed_bivariate_requires_gaussian_cgf():
    dist = Exponential(1.0)
    kappa = ShapeFunction(dist)
    with pytest.raises(ValueError):
        closed_bivariate(dist, kappa, FddQuery([0.0, 0.5], [1.0, 1.0]))


def test_closed_bivariate_matches_husler_reiss():
    dist, kappa = unit_gaussian()
    ev = closed_bivariate(dist, kappa, FddQuery([0.0, 2.0], [1.0, 3.0]))
    assert ev.value == pytest.approx(husler_reiss_V(4.0, 1.0, 3.0).value, abs=1e-15)


def test_closed_bivariate_takes_two_points_only():
    dist, kappa = unit_gaussian()
    with pytest.raises(ValueError, match="two-point queries only"):
        closed_bivariate(dist, kappa, FddQuery([0.0], [1.0]))


# ---------------------------------------------------------------------------
# Monte Carlo exponent


def test_exponent_mc_matches_closed_bivariate():
    dist, kappa = unit_gaussian()
    q = FddQuery([0.0, 2.0], [1.0, 2.0])
    ev = exponent_mc(dist, kappa, q, 400_000, derive_rng(101))
    closed = closed_bivariate(dist, kappa, q).value
    assert ev.se > 0
    assert abs(ev.value - closed) < 3.0 * ev.se


# (law, kappa, points, thresholds): kappa differs from the law's CGF phi in
# its slope, its curvature and its constant, in d = 1 and 2
OTHER_KAPPAS = [
    pytest.param(Gaussian([0.0], [[1.0]]), ShapeFunction.quadratic([0.5], [[1.0]]), [0.0, 2.0], [1.0, 2.0],
                 id="slope"),
    pytest.param(Gaussian([0.3], [[2.0]]), ShapeFunction.quadratic([0.2], [[0.5]], 0.3), [-0.4, 0.7], [1.5, 0.8],
                 id="curvature-c0"),
    pytest.param(Gaussian([0.1, -0.2], [[1.0, 0.3], [0.3, 2.0]]),
                 ShapeFunction.quadratic([0.0, 0.1], [[0.8, 0.0], [0.0, 1.5]], -0.4),
                 [[0.0, 0.0], [0.5, -0.6]], [1.0, 1.5], id="gaussian-2d"),
]


@pytest.mark.parametrize("dist, kappa, ts, xs", OTHER_KAPPAS)
def test_closed_bivariate_matches_mc_under_any_kappa(dist, kappa, ts, xs):
    # kappa only rescales the kappa = phi process, so the closed form at the
    # thresholds x' = x e^(kappa - phi) is exact; 400 000 draws land within
    # 4 se of it
    q = FddQuery(ts, xs)
    ev = exponent_mc(dist, kappa, q, 400_000, derive_rng(102))
    closed = closed_bivariate(dist, kappa, q).value
    assert closed != closed_bivariate(dist, ShapeFunction(dist), q).value
    assert ev.se > 0
    assert abs(ev.value - closed) < 4.0 * ev.se


def test_a_kappa_far_from_phi_is_read_in_logs():
    # e^(kappa - phi) = e^710 overflows, but x'_0 = 1e-308 e^710 is a
    # double; point 1's weight e^(0.5 - 710) is 0, so V = w_0
    dist, _ = unit_gaussian()
    kappa = ShapeFunction.quadratic([0.0], [[0.0]], 710.0)
    q = FddQuery([0.0, 1.0], [1e-308, 1.0])
    w0 = math.exp(-710.0 - math.log(1e-308))
    assert exponent_mc(dist, kappa, q, 2000, derive_rng(4)).value == pytest.approx(w0, rel=1e-13)
    assert closed_bivariate(dist, kappa, q).value == pytest.approx(w0, rel=1e-13)


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
    kappa = ShapeFunction(dist)
    q = FddQuery(ts, xs)
    whole = exponent_mc(dist, kappa, q, 30_000, derive_rng(8))
    monkeypatch.setattr(fdd, "_MC_CHUNK", 1000)
    assert exponent_mc(dist, kappa, q, 30_000, derive_rng(8)) == whole


def argmax_reference(dist, kappa, query, mc_n, rng):
    """exponent_mc in matrix form: each chunk of base rows tilted to every
    point j, every point's log terms in one (N, n) product, each row's point
    by argmax (which takes the first of tied maxima), and the counts of rows
    that hit both j and k as an integer product of the (n, N) hit matrix.
    Returns (value, se)."""
    kap = kappa.values(query.ts)
    log_x = np.log(query.xs)
    weights = np.exp(np.asarray(dist.cgf(query.ts), dtype=float) - kap - log_x)
    draw, tilt = dist.tilted_sampler(query.ts)
    n, m = query.n, mc_n // query.n
    pairs = np.zeros((n, n), dtype=np.int64)
    for done in range(0, m, fdd._MC_CHUNK):
        rows = draw(min(fdd._MC_CHUNK, m - done), rng)
        log_terms = [tilt(rows, j) @ query.ts.T - kap[None, :] - log_x[None, :] for j in range(n)]
        hits = np.array([terms.argmax(axis=1) == j for j, terms in enumerate(log_terms)], dtype=np.int64)
        pairs += hits @ hits.T
    p = np.diag(pairs) / m
    cov = pairs / m - np.outer(p, p)
    value = sum(weights[j] * p[j] for j in range(n))
    var = sum(sum(cov[j, k] * weights[k] for k in range(n)) * weights[j] for j in range(n)) / m
    return value, math.sqrt(var)


class SmallIntegers(SpectralDistribution):
    """A stub law in R^2 whose base rows are integers in [-2, 2], tilted to
    every t by the identity.  Its CGF reads 0, so kappa and log x vanish at
    unit thresholds, and the log terms at the points (0,0), (1,0), (0,1),
    (1,1) are 0, x_1, x_2 and x_1 + x_2: exact ties in most rows."""

    family = "small-integers"
    dim = 2

    def _cgf(self, pts):
        return np.zeros(len(pts))

    def tilted_sampler(self, ts):
        def draw(n, rng):
            return rng.integers(-2, 3, size=(n, self.dim)).astype(float)

        return draw, lambda rows, js: rows


MC_LAWS_AND_TIES = [
    *MC_LAWS, pytest.param(SmallIntegers(), [[0, 0], [1, 0], [0, 1], [1, 1]], [1.0] * 4, id="ties"),
]


@pytest.mark.parametrize("dist, ts, xs", MC_LAWS_AND_TIES)
def test_exponent_mc_equals_the_argmax_reference(dist, ts, xs, monkeypatch):
    kappa = ShapeFunction(dist)
    q = FddQuery(ts, xs)
    monkeypatch.setattr(fdd, "_MC_CHUNK", 7000)  # several chunks, the last one short
    for seed in (41, 42):
        ev = exponent_mc(dist, kappa, q, 40_000, derive_rng(seed))
        assert (ev.value, ev.se) == argmax_reference(dist, kappa, q, 40_000, derive_rng(seed))


# ---------------------------------------------------------------------------
# the 1-D cell count, against the term count


class IntegersOnALine(SmallIntegers):
    """SmallIntegers in R^1: at the points 0, 1, 2 and unit thresholds the
    log terms are 0, x and 2x, so every cell ends at x = 0, a row value."""

    dim = 1


def counting_paths(monkeypatch):
    """Spies on the two counting paths of exponent_mc; returns the lists of
    what the cell count returned per chunk and of the term-count calls."""
    cells, terms = [], []
    by_cells, by_terms = fdd._count_by_cells, fdd._count_by_terms

    def cells_spy(*args):
        cells.append(by_cells(*args))
        return cells[-1]

    def terms_spy(*args):
        terms.append(args)
        return by_terms(*args)

    monkeypatch.setattr(fdd, "_count_by_cells", cells_spy)
    monkeypatch.setattr(fdd, "_count_by_terms", terms_spy)
    return cells, terms


def by_terms_alone(dist, q, mc_n, seed):
    """exponent_mc with every chunk counted by its terms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fdd, "_cells", lambda *args: None)
        return exponent_mc(dist, ShapeFunction(dist), q, mc_n, derive_rng(seed))


def test_rows_that_tie_at_the_cell_ends_are_counted_by_their_terms(monkeypatch):
    dist = IntegersOnALine()
    q = FddQuery([0.0, 1.0, 2.0], [1.0] * 3)
    monkeypatch.setattr(fdd, "_MC_CHUNK", 7000)
    cells, terms = counting_paths(monkeypatch)
    for seed in (41, 42):
        ev = exponent_mc(dist, ShapeFunction(dist), q, 40_000, derive_rng(seed))
        assert (ev.value, ev.se) == argmax_reference(dist, ShapeFunction(dist), q, 40_000, derive_rng(seed))
    # 13333 rows a call: two chunks, each with a row at 0
    assert cells == [None] * 4 and len(terms) == 4


def test_points_too_close_for_their_cells_are_counted_by_their_terms(monkeypatch):
    # |t_1 - t_0| = 1e-5 is below 2^-30 (|t_0| + |t_1|), about 18.6
    dist, kappa = unit_gaussian()
    q = FddQuery([1e10, 1e10 + 1e-5], [1.0, 1.0])
    assert fdd._cells(q.ts, *fdd._weights(dist, kappa, q)[:2]) is None
    cells, terms = counting_paths(monkeypatch)
    exponent_mc(dist, kappa, q, 100_000, derive_rng(3))
    assert not cells and len(terms) == 4  # 50 000 rows in 2^14-row chunks


@pytest.mark.parametrize("dist, ts, xs", MC_LAWS[:4])
def test_a_band_wider_than_every_chunk_counts_every_chunk_by_its_terms(dist, ts, xs, monkeypatch):
    q = FddQuery(ts, xs)
    mine = exponent_mc(dist, ShapeFunction(dist), q, 90_000, derive_rng(5))
    assert mine == by_terms_alone(dist, q, 90_000, 5)
    # 2^60 u = 128 takes the band's slope past 1: no tilted value is safe
    monkeypatch.setattr(fdd, "_CELL_BAND", 2.0 ** 60)
    cells, terms = counting_paths(monkeypatch)
    assert exponent_mc(dist, ShapeFunction(dist), q, 90_000, derive_rng(5)) == mine
    assert cells == [None] * 2 and len(terms) == 2  # 30 000 rows in 2^14-row chunks


def close_to(t, step):
    """t moved by the relative step, or by the step itself at t = 0."""
    return t * (1.0 + step) if t else step


@st.composite
def one_dimensional_queries(draw):
    """A 1-D law and a query of two to four points, some of them negative,
    large, or close to another one (and then often at its threshold, so
    that their cells meet among the draws), thresholds across six decades."""
    family = draw(st.sampled_from(["gaussian", "exp", "uniform", "gamma"]))
    rate = 10.0 ** draw(st.floats(-1.0, 1.0))
    dist = {
        "gaussian": Gaussian([draw(st.floats(-3.0, 3.0))], [[10.0 ** draw(st.floats(-2.0, 2.0))]]),
        "exp": Exponential(rate),
        "uniform": Uniform(0.0, 10.0 ** draw(st.floats(-1.0, 1.0))),
        "gamma": Gamma(10.0 ** draw(st.floats(-1.0, 1.0)), rate),
    }[family]
    sign = st.sampled_from([-1.0, 1.0])
    # a gamma or exponential point is rate - s, s > 0; the others are s
    spread, twins = [10.0 ** draw(st.floats(-3.0, 6.0)) * draw(sign)], [None]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):  # relative steps down to the cells' separation, 2^-29
            twin = draw(st.integers(0, len(spread) - 1))
            spread.append(close_to(spread[twin], 10.0 ** draw(st.floats(-8.7, -3.0)) * draw(sign)))
            twins.append(twin)
        else:
            spread.append(10.0 ** draw(st.floats(-3.0, 6.0)) * draw(sign))
            twins.append(None)
    if family in ("exp", "gamma"):
        spread = [abs(s) for s in spread]
    ts = [rate - s for s in spread] if family in ("exp", "gamma") else spread
    xs = []
    for twin in twins:
        same = twin is not None and draw(st.booleans())
        xs.append(xs[twin] if same else 10.0 ** draw(st.floats(-3.0, 3.0)))
    try:
        return dist, FddQuery(ts, xs)
    except ValueError:  # two points within the grid's duplicate tolerance
        assume(False)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(one_dimensional_queries())
# the log terms' round-off is about the spread of the draws at the shared
# end of these cells, so that most chunks fall back
@example((Gaussian([0.0], [[100.0]]), FddQuery([1e6, 1e6 * (1 + 3e-9)], [1.0, 1.0])))
@example((Uniform(0.0, 1.0), FddQuery([1e3, 1e3 * (1 + 3e-9), -2.0], [1.0, 1.0, 0.5])))
# t_0 - t_1 and |t_0| + |t_1| overflow, silently: the terms count every chunk
@example((Uniform(0.0, 1.0), FddQuery([1e308, -1e308, 0.0], [1.0, 1.0, 1.0])))
def test_the_cell_count_equals_the_term_count_bit_for_bit(law_and_query):
    dist, q = law_and_query
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fdd, "_MC_CHUNK", 400)
        mp.setattr(fdd, "_threads_overlap", lambda: False)
        mc_n = 1500 * q.n  # four chunks, the last one short
        try:
            mine = exponent_mc(dist, ShapeFunction(dist), q, mc_n, derive_rng(11))
        except ValueError as exc:  # the weights, or a tilt, overflow
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                by_terms_alone(dist, q, mc_n, 11)
        else:
            assert mine == by_terms_alone(dist, q, mc_n, 11)


@pytest.mark.parametrize("dist, ts", [
    (Gamma(2.0, 1e-308), [0.0, -1.0]),  # 1-D: counted by the cells
    (Gamma([2.0, 2.0], [1e-308, 1.0]), [[0.0, 0.0], [-1.0, 0.0]]),  # 2-D: by the terms
])
def test_a_tilted_draw_that_is_not_finite_is_reported_at_its_query_point(dist, ts):
    # scale 1 / (theta - 0) = 1e308 overflows: the log terms would be nan
    q = FddQuery(ts, [1.0, 1.0])
    message = "a draw tilted to query point 0 is not finite"
    with pytest.raises(ValueError, match=message):
        exponent_mc(dist, ShapeFunction(dist), q, 100_000, derive_rng(1))
    with pytest.raises(ValueError, match=message):
        by_terms_alone(dist, q, 100_000, 1)


def test_usable_cpus_is_the_cpu_count_without_an_affinity_mask(monkeypatch):
    # platforms without sched_getaffinity (macOS, Windows) count the machine's CPUs
    monkeypatch.delattr(fdd.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(fdd.os, "cpu_count", lambda: 6)
    assert fdd._usable_cpus() == 6
    monkeypatch.setattr(fdd.os, "cpu_count", lambda: None)
    assert fdd._usable_cpus() == 1


def drawing_ahead(monkeypatch, cpus):
    """Makes exponent_mc's thread predicate answer as on a host with
    ``cpus`` usable CPUs whose threads overlap; returns the list of the
    calls it makes to the draw thread."""
    calls = []

    def spy(*args):
        calls.append(args)
        return draw_ahead(*args)

    draw_ahead = fdd._drawn_ahead
    monkeypatch.setattr(fdd, "_threads_overlap", lambda: cpus > 1)
    monkeypatch.setattr(fdd, "_drawn_ahead", spy)
    return calls


def estimate_and_next_number(dist, q, mc_n, seed):
    rng = derive_rng(seed)
    ev = exponent_mc(dist, ShapeFunction(dist), q, mc_n, rng)
    return ev.value, ev.se, rng.random()


@pytest.mark.parametrize("dist, ts, xs", MC_LAWS_AND_TIES)
def test_exponent_mc_draws_the_same_rows_on_a_draw_thread_as_in_line(dist, ts, xs, monkeypatch):
    # the next number of rng after the call pins that the draw thread reads
    # no row past the last chunk
    q = FddQuery(ts, xs)
    monkeypatch.setattr(fdd, "_MC_CHUNK", 1000)  # m = 10000 rows in ten chunks
    calls = drawing_ahead(monkeypatch, 1)
    in_line = estimate_and_next_number(dist, q, 10_000 * q.n, 17)
    assert not calls
    calls = drawing_ahead(monkeypatch, 2)
    assert estimate_and_next_number(dist, q, 10_000 * q.n, 17) == in_line
    assert len(calls) == 1


@pytest.mark.parametrize("dist, ts, xs", MC_LAWS)
def test_the_thread_predicate_moves_no_estimate_and_no_stream(dist, ts, xs, monkeypatch):
    # at the chunk size itself, three whole chunks and a short one
    q = FddQuery(ts, xs)
    triples = []
    for overlap in (False, True):
        monkeypatch.setattr(fdd, "_threads_overlap", lambda: overlap)
        triples.append(estimate_and_next_number(dist, q, (3 * fdd._MC_CHUNK + 77) * q.n, 23))
    assert triples[0] == triples[1]


@pytest.fixture
def fresh_probe(monkeypatch):
    """The thread probe's verdict forgotten before and after the test;
    yields the names of the threads started meanwhile."""
    started = []
    thread = threading.Thread

    def spy(*args, **kwargs):
        started.append(kwargs.get("name"))
        return thread(*args, **kwargs)

    fdd._probe_overlap.cache_clear()
    monkeypatch.setattr(threading, "Thread", spy)
    yield started
    fdd._probe_overlap.cache_clear()


def test_the_thread_probe_runs_once_and_starts_no_thread_on_one_cpu(fresh_probe, monkeypatch):
    monkeypatch.setattr(fdd, "_usable_cpus", lambda: 1)
    assert [fdd._threads_overlap() for _ in range(3)] == [False] * 3
    assert fresh_probe == []
    fdd._probe_overlap.cache_clear()
    monkeypatch.setattr(fdd, "_usable_cpus", lambda: 2)
    verdicts = [fdd._threads_overlap() for _ in range(3)]
    assert verdicts[0] in (True, False) and verdicts == verdicts[:1] * 3
    assert fresh_probe == ["exponent_mc probe"]


class ChunkError(Exception):
    pass


class FailingIntegers(SmallIntegers):
    """SmallIntegers whose draw raises on its third chunk, or whose tilt
    raises, as ``fails`` says."""

    def __init__(self, fails):
        self.fails = fails

    def tilted_sampler(self, ts):
        draw, tilt = super().tilted_sampler(ts)
        chunks = []

        def failing_draw(n, rng):
            chunks.append(n)
            if self.fails == "draw" and len(chunks) == 3:
                raise ChunkError("third chunk")
            return draw(n, rng)

        def failing_tilt(rows, js):
            if self.fails == "tilt":
                raise ChunkError("tilt")
            return tilt(rows, js)

        return failing_draw, failing_tilt


def outcome_within_a_minute(fn):
    """fn() run on a thread joined with a timeout, so that a draw thread
    that never ends fails the test instead of hanging it: what fn returned
    or raised, and the threads left once it ended."""
    outcome = []

    def run():
        try:
            outcome.append(fn())
        except Exception as exc:  # handed to the test
            outcome.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    return outcome[0], threading.enumerate()


@pytest.mark.parametrize("fails", ["draw", "tilt"])
def test_exponent_mc_raises_a_failure_of_either_thread_and_leaves_no_thread(fails, monkeypatch):
    calls = drawing_ahead(monkeypatch, 2)
    dist = FailingIntegers(fails)
    q = FddQuery([[0, 0], [1, 0]], [1.0, 1.0])
    before = threading.enumerate()
    outcome, after = outcome_within_a_minute(
        lambda: exponent_mc(dist, ShapeFunction(dist), q, 2_000_000, derive_rng(3)))
    assert type(outcome) is ChunkError
    assert after == before
    assert len(calls) == 1


def test_exponent_mc_leaves_no_thread_after_a_whole_run(monkeypatch):
    calls = drawing_ahead(monkeypatch, 2)
    dist, kappa = unit_gaussian()
    before = threading.enumerate()
    outcome, after = outcome_within_a_minute(
        lambda: exponent_mc(dist, kappa, FddQuery([0.0, 1.0], [1.0, 1.0]), 2_000_000, derive_rng(4)))
    assert type(outcome) is ExponentValue
    assert after == before
    assert len(calls) == 1


def test_concurrent_exponent_mc_calls_with_tiny_chunks_hand_over_every_row(monkeypatch):
    # more callers than cores, a handoff every 100 rows and a thread switch
    # every microsecond: a chunk lost or taken twice moves the counts
    monkeypatch.setattr(fdd, "_MC_CHUNK", 100)
    dist, kappa = unit_gaussian()
    q = FddQuery([0.0, 1.0], [1.0, 1.0])
    seeds = range(20, 26)
    drawing_ahead(monkeypatch, 1)
    expected = [estimate_and_next_number(dist, q, 40_000, seed) for seed in seeds]
    drawing_ahead(monkeypatch, 2)
    got = {}
    callers = [threading.Thread(target=lambda s=s: got.__setitem__(s, estimate_and_next_number(dist, q, 40_000, s)))
               for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert [got[s] for s in seeds] == expected


@pytest.mark.parametrize(
    "dist, ts, xs",
    [(Gamma(2.0, 1.0), [0.0, 0.3, 0.6], [1.0, 1.5, 0.8]),
     (Gaussian([0.1, -0.2], [[1.0, 0.3], [0.3, 2.0]]), [[0.0, 0.0], [0.5, -0.3], [1.0, 0.7]], [1.0] * 3)],
    ids=["gamma", "gaussian-2d"],
)
def test_exponent_mc_se_matches_the_spread_of_v(dist, ts, xs):
    # the query points share their rows, so the hits at different points are
    # correlated: an se without the N_jk cross terms overstates the spread of
    # V over these seeds by about a third (spread / se 0.73 and 0.74)
    kappa = ShapeFunction(dist)
    q = FddQuery(ts, xs)
    evs = [exponent_mc(dist, kappa, q, 6000, derive_rng(7000 + seed)) for seed in range(400)]
    spread = np.std([ev.value for ev in evs], ddof=1)
    mean_se = np.mean([ev.se for ev in evs])
    assert abs(spread / mean_se - 1.0) < 0.15


def test_exponent_mc_minimum_sample_size(rng):
    dist, kappa = unit_gaussian()
    with pytest.raises(ValueError):
        exponent_mc(dist, kappa, FddQuery([0.0, 1.0], [1.0, 1.0]), 999, rng)


@pytest.mark.parametrize("n, ok", [(10, True), (11, False), (600, False)])
def test_exponent_mc_needs_min_samples_draws_per_point(n, ok, rng):
    # mc_n = 1000 over n points gives each point 1000 // n rows
    dist, kappa = unit_gaussian()
    q = FddQuery(np.linspace(0.0, 1.0, n), np.ones(n))
    if ok:
        assert exponent_mc(dist, kappa, q, 1000, rng).se > 0
    else:
        with pytest.raises(ValueError, match="at least 100 draws"):
            exponent_mc(dist, kappa, q, 1000, rng)


def _defect_report(v=0.0):
    return DefectReport(np.zeros(1), v, None, "stationary-consistent", 0.0, 1, 0)


# one instance of each of the package's value classes, made by make(), and
# one of its fields, the one that make(v) sets from v
VALUE_CLASSES = {
    "FddQuery": (lambda v=1.0: FddQuery([0.0, 1.0], [1.0, v]), "xs"),
    "ExponentValue": (lambda v=1.0: ExponentValue(v, 0.0, "mc"), "value"),
    "FrechetCascade": (lambda v=1.0: FrechetCascade([2.0, v]), "points"),
    "Grid": (lambda v=1.0: Grid([0.0, v]), "locations"),
    "Field": (lambda v=2.0: Field(Grid([0.0, 1.0]), [1.0, v], {}), "values"),
    "PreparedLaw": (lambda v=1.0: prepare_smith(1.0, Grid([0.0, v]), 10), "grid"),
    "Variogram": (lambda v=1.0: Variogram.fractional(1.0, v), "alpha"),
    "Gaussian": (lambda v=0.0: Gaussian(v, 1.0), "mu"),
    "Uniform": (lambda v=1.0: Uniform(0.0, v), "b"),
    "Gamma": (lambda v=1.0: Gamma(2.0, v), "rate"),
    "SimplexWeights": (lambda v=1.0: SimplexWeights([0.5, v - 0.5]), "u"),
    "ShapeFunction": (lambda v=1.0: ShapeFunction(Gaussian(0.0, v)), "law"),
    "CriterionConfig": (lambda v=0.3: CriterionConfig([[0.0], [1.0]], [0.5, 0.5], [v]), "h"),
    "DefectReport": (_defect_report, "max_abs_defect"),
    "CharacterizationReport": (
        lambda v=0.0: CharacterizationReport("exp:lambda=1.0", "violated", [], True, _defect_report(v), 0.1, 100),
        "defect_report"),
}


@pytest.mark.parametrize("make, field", VALUE_CLASSES.values(), ids=VALUE_CLASSES)
def test_value_classes_are_frozen(make, field):
    obj = make()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, 2.0)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


@pytest.mark.parametrize("make, field", VALUE_CLASSES.values(), ids=VALUE_CLASSES)
def test_value_classes_compare_by_their_fields(make, field):
    obj = make()
    # a PreparedLaw's scan is a closure, which compares by identity
    twin = obj if isinstance(obj, PreparedLaw) else make()
    assert obj == twin and not obj != twin
    changed = make(1.5)
    assert obj != changed and changed != obj


def test_array_fields_compare_by_shape_and_value():
    assert Grid([0.0, 1.0]) != Grid([0.0, 1.0, 2.0])
    assert Gaussian(-0.0, 1.0) == Gaussian(0.0, 1.0)
    assert ExponentValue(math.nan, 0.0, "mc") != ExponentValue(math.nan, 0.0, "mc")
    with pytest.raises(TypeError):
        hash(Grid([0.0, 1.0]))


def test_every_exported_value_class_is_frozen():
    exported = [obj for obj in vars(maxstable).values() if isinstance(obj, type)]
    assert Grid in exported
    for cls in exported:
        if not issubclass(cls, Exception) and cls is not SpectralDistribution:
            assert issubclass(cls, Frozen), cls.__name__


def test_spectral_families_compare_by_class_and_fields():
    assert Exponential(1.0) != Gamma(1.0, 1.0) and Gamma(1.0, 1.0) != Exponential(1.0)
    dist = Gaussian([0.0, 1.0], [[1.0, 0.3], [0.3, 2.0]])
    assert dist == parse_distribution("gaussian:mu=0,1;sigma=1,0.3,0.3,2")


def test_exponent_value_compares_and_prints_its_fields():
    ev = ExponentValue(1.0, 0.5, "mc")
    assert repr(ev) == "ExponentValue(value=1.0, se=0.5, method='mc')"
    assert ev == ExponentValue(value=1.0, se=0.5, method="mc")
    assert hash(ev) == hash(ExponentValue(1.0, 0.5, "mc"))
    assert ev != ExponentValue(1.0, 0.4, "mc") and ev != (1.0, 0.5, "mc")


def test_criterion_config_compares_and_prints_its_fields():
    cfg = CriterionConfig([[0.5]], [1.0], [0.3])
    assert repr(cfg) == "CriterionConfig(ts=array([[0.5]]), weights=SimplexWeights(u=array([1.])), h=array([0.3]))"
    assert cfg == CriterionConfig([[0.5]], [1.0], [0.3])
    assert cfg != CriterionConfig([[0.5]], [1.0], [0.4])
    two = CriterionConfig([[0.0], [1.0]], [0.5, 0.5], [0.3])
    assert repr(two) == ("CriterionConfig(ts=array([[0.],\n       [1.]]), "
                         "weights=SimplexWeights(u=array([0.5, 0.5])), h=array([0.3]))")


# ---------------------------------------------------------------------------
# empirical utilities


def test_frechet_cdf_and_quantile_round_trip():
    for p in (0.1, 0.5, 0.9):
        assert frechet_cdf(np.array([frechet_quantile(p)]))[0] == pytest.approx(p, abs=1e-15)
    assert frechet_cdf(np.array([-1.0, 0.0]))[0] == 0.0
    with pytest.raises(ValueError):
        frechet_quantile(1.0)


def test_ks_distance_of_frechet_sample(rng):
    # inverse-transform Frechet sample: KS well under the 1% critical value
    u = rng.uniform(0.0, 1.0, size=20_000)
    samples = -1.0 / np.log(u)
    assert ks_distance(samples, frechet_cdf) < ks_threshold(20_000)


def test_ks_distance_detects_wrong_reference(rng):
    samples = rng.uniform(0.0, 1.0, size=5000)
    assert ks_distance(samples, frechet_cdf) > 0.5


def test_ks_distance_needs_min_samples(rng):
    with pytest.raises(ValueError, match=f"at least {fdd.MIN_SAMPLES} samples"):
        ks_distance(rng.uniform(0.0, 1.0, size=fdd.MIN_SAMPLES - 1), frechet_cdf)


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
