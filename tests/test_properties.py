"""Property tests of the stationarity criterion and its verdict, the
uniform CGF, the exponent V and its closed form, the bivariate ECDF
distance, the convexity of log eta + kappa on every field of affine
functions, the replicate layout, the spec grammar and the CLI's value
parsers (hypothesis, derandomized so that every run draws the same
examples)."""
import contextlib
import io
import math
import os
import tempfile
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxstable import stationarity
from maxstable.cli import UsageError, main, parse_box, parse_floats, parse_grid
from maxstable.fdd import FddQuery, bivariate_ecdf_distance, closed_bivariate, exponent_mc, husler_reiss_V
from maxstable.seeding import derive_rng
from maxstable.simulator import (
    _REPLICATE_BLOCK,
    Grid,
    Variogram,
    parse_variogram,
    prepare_brown_resnick,
    prepare_general,
    prepare_moving_maxima,
    prepare_smith,
)
from maxstable.spectral import (
    Exponential,
    Gamma,
    Gaussian,
    ShapeFunction,
    Uniform,
    parse_distribution,
    parse_kappa,
)
from maxstable.stationarity import CriterionConfig, _centred_cgfs, defect, search_violation

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

COORD = st.floats(-2.0, 2.0, allow_nan=False)


def _law(family: str, d: int):
    return {
        "gaussian": Gaussian(0.1 * np.arange(d), np.eye(d) + 0.3 * np.ones((d, d))),
        "exp": Exponential(1.0 + np.arange(d)),
        "uniform": Uniform(-np.ones(d), 1.0 + np.arange(d)),
        "gamma": Gamma(0.5 + np.arange(d), 1.0 + 0.5 * np.arange(d)),
    }[family]


@st.composite
def config_batches(draw):
    """K configs of one (n, d): points and shifts in [-2, 2]^d, simplex weights."""
    k, n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    ts = draw(hnp.arrays(float, (k, n, d), elements=COORD))
    h = draw(hnp.arrays(float, (k, d), elements=COORD))
    w = draw(hnp.arrays(float, (k, n), elements=st.floats(0.0, 1.0)))
    w[:, 0] += 1e-3  # a positive sum
    return ts, w / w.sum(axis=1, keepdims=True), h


@PROPERTY
@given(st.sampled_from(["gaussian", "exp", "uniform", "gamma"]), config_batches())
def test_centred_cgf_is_nonpositive_by_jensen(family, batch):
    ts, u, h = batch
    feasible, base, shifted, _ = _centred_cgfs(_law(family, ts.shape[2]), ts, u, h)
    assert len(base) == len(shifted) == feasible.sum()
    assert np.all(base <= 1e-12) and np.all(shifted <= 1e-12)


@st.composite
def gaussian_configs(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    mu = draw(hnp.arrays(float, d, elements=COORD))
    a = draw(hnp.arrays(float, (d, d), elements=st.floats(-1.0, 1.0)))
    ts = draw(hnp.arrays(float, (n, d), elements=COORD))
    h = draw(hnp.arrays(float, d, elements=COORD))
    w = draw(hnp.arrays(float, n, elements=st.floats(0.0, 1.0)))
    w[0] += 1e-3
    return Gaussian(mu, a @ a.T + 0.1 * np.eye(d)), CriterionConfig(ts, w / w.sum(), h)


@PROPERTY
@given(gaussian_configs())
def test_gaussian_defect_vanishes_for_any_config(case):
    dist, cfg = case
    assert abs(defect(dist, cfg)) < 1e-10


@PROPERTY
@given(
    st.sampled_from(["gaussian", "exp", "uniform", "gamma"]),
    st.integers(2, 3),
    st.integers(1, 2),
    st.integers(1, 20),
    st.floats(-1.0, 0.0),
    st.floats(0.05, 0.95),
    st.integers(0, 2**32 - 1),
)
def test_every_searched_config_is_evaluated_or_skipped(family, n, d, budget, lo, width, seed):
    dist = _law(family, d)
    # lo <= 0 and hi below every rate: the all-lo grid config is feasible
    box = [[lo, lo + width * (1.0 - lo)]] * d
    report = search_violation(dist, n, budget, box, derive_rng(seed))
    total = 5 ** (n * d + d) * math.comb(n + 3, 4)  # (ts, h) values x simplex grid
    stride = -(-total // stationarity._GRID_CAP)
    assert report.n_evaluated + report.n_skipped == -(-total // stride) + budget
    assert report.n_evaluated == len(report.defects) > 0


@st.composite
def scaled_gaussians(draw):
    """Gaussians in d <= 3 with mu and Sigma each scaled by 10^U(-2, 2)."""
    d = draw(st.integers(1, 3))
    scale = st.floats(-2.0, 2.0)
    mu = draw(hnp.arrays(float, d, elements=st.floats(-1.0, 1.0))) * 10 ** draw(scale)
    a = draw(hnp.arrays(float, (d, d), elements=st.floats(-1.0, 1.0)))
    return Gaussian(mu, (a @ a.T + 0.1 * np.eye(d)) * 10 ** draw(scale))


@PROPERTY
@given(scaled_gaussians(), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_every_gaussian_is_stationary_consistent(dist, n, seed):
    report = search_violation(dist, n, 200, [[-2.0, 2.0]] * dist.dim, derive_rng(seed))
    assert report.verdict == "stationary-consistent"


def _uniform_cgf_reference(a, b, t):
    a, b, t = Decimal(a), Decimal(b), Decimal(t)
    if t == 0:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 100  # 50 digits lose the t^2 term of the ratio below |t| ~ 1e-12
        return float((((b * t).exp() - (a * t).exp()) / ((b - a) * t)).ln())


@PROPERTY
@given(st.floats(-5.0, 5.0), st.floats(1e-3, 5.0), st.floats(-12.0, 2.8), st.sampled_from([-1.0, 1.0]))
@example(0.0, 1.0, math.log10(1.1e-8), 1.0)
def test_uniform_cgf_is_accurate_to_round_off(a, width, log_t, sign):
    # the round-off scale of phi: its size, and that of the terms a t and b t
    b, t = a + width, sign * 10**log_t
    want = _uniform_cgf_reference(a, b, t)
    got = Uniform(a, b).cgf([t])
    assert abs(got - want) <= 16 * np.finfo(float).eps * (abs(want) + abs(t) * max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# spec strings


KEYS = {
    "gaussian": ["mu", "sigma"], "exp": ["lambda"], "uniform": ["a", "b"],
    "gamma": ["k", "theta"], "cgf": [], "quadratic": ["mu", "sigma", "c0"],
    "fractional": ["scale", "alpha"],
}
JUNK = st.lists(
    st.one_of(st.sampled_from([*KEYS, "true", "inf", *":;=,. -+e"]), st.integers(-3, 3).map(str)),
    max_size=6,
).map("".join)
NUMBERS = st.lists(
    st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["0.5", "-0", "1e400", "inf", "nan", ""])),
    min_size=1, max_size=4,
).map(",".join)


def _spec_texts(kind):
    """Specs of one kind: every key given, or random keys, then maybe junk."""
    value = st.one_of(NUMBERS, st.sampled_from(["true", "False"]), JUNK)
    complete = st.tuples(*(st.builds(f"{key}={{}}".format, value) for key in KEYS[kind])).map(list)
    key = st.sampled_from([*KEYS[kind], "theta"])
    keyed = st.lists(st.builds("{}={}".format, key, value), max_size=4)
    return st.builds(
        lambda name, parts, junk: name + ":" + ";".join(parts + junk),
        st.sampled_from([kind, f" {kind.upper()} "]), st.one_of(complete, keyed), st.lists(JUNK, max_size=1),
    )


SPEC_TEXT = st.one_of(JUNK, st.sampled_from(list(KEYS)).flatmap(_spec_texts))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(SPEC_TEXT)
def test_spec_parsers_return_or_reject_cleanly(text):
    # any text over the grammar's alphabet builds an object or is rejected
    # with a SpecParseError or the built type's ValueError, never with a
    # lookup or type error
    for parse in (parse_distribution, parse_variogram, lambda s: parse_kappa(s, _law("exp", 1))):
        with contextlib.suppress(ValueError):
            parse(text)


# ---------------------------------------------------------------------------
# the exponent V of unit-Frechet margins: max_j 1/x_j <= V <= sum_j 1/x_j

THRESHOLD = st.floats(0.05, 20.0)
ROUND_OFF = 1e-12


@PROPERTY
@given(st.sampled_from(["gaussian", "exp", "uniform", "gamma"]), st.integers(1, 3),
       st.integers(1, 2), st.data())
def test_every_fdd_method_keeps_v_within_its_bounds(family, n, d, data):
    dist = _law(family, d)
    kappa = ShapeFunction(dist)
    upper = dist.domain_upper()
    fractions = hnp.arrays(float, (n, d), elements=st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    ts = data.draw(fractions.filter(lambda f: len(np.unique(f, axis=0)) == n))
    ts = ts * np.where(np.isinf(upper), 2.0, 0.9 * upper)
    xs = data.draw(hnp.arrays(float, n, elements=THRESHOLD))
    query = FddQuery(ts, xs)
    evs = [exponent_mc(dist, kappa, query, 4000, derive_rng(n, d))]
    if n == 2 and family == "gaussian":
        evs.append(closed_bivariate(dist, kappa, query))
    lo, hi_v = max(1.0 / xs), sum(1.0 / xs)
    for ev in evs:
        # the Monte Carlo estimate of a probability can fall below its floor
        # by sampling error, never above 1
        assert lo * (1 - ROUND_OFF) - 6 * ev.se <= ev.value <= hi_v * (1 + ROUND_OFF)


@PROPERTY
@given(st.floats(0.05, 25.0), THRESHOLD, st.floats(0.2, 5.0), st.integers(0, 2**32 - 1))
def test_exponent_mc_lands_within_4_se_of_husler_reiss(variance, x1, ratio, seed):
    # Smith's 1-D field at t = 0, 1 has variogram value sigma^2; a point
    # whose probability lies far below 1 / m shows no hit in m rows and
    # leaves se = 0, so the bound allows one row's weight on top of 4 se
    dist = Gaussian([0.0], [[variance]])
    x2 = x1 * ratio
    mc_n = 20_000
    ev = exponent_mc(dist, ShapeFunction(dist), FddQuery([0.0, 1.0], [x1, x2]), mc_n, derive_rng(seed))
    closed = husler_reiss_V(variance, x1, x2).value
    assert abs(ev.value - closed) <= 4 * ev.se + (1 / x1 + 1 / x2) / (mc_n // 2)


@PROPERTY
@given(st.floats(0.0, 100.0), THRESHOLD, THRESHOLD, st.floats(1.0, 4.0))
def test_husler_reiss_v_is_symmetric_and_non_increasing(gamma_h, x1, x2, factor):
    v = husler_reiss_V(gamma_h, x1, x2).value
    assert math.isclose(v, husler_reiss_V(gamma_h, x2, x1).value, rel_tol=ROUND_OFF)
    assert husler_reiss_V(gamma_h, x1 * factor, x2).value <= v * (1 + ROUND_OFF)
    assert husler_reiss_V(gamma_h, x1, x2 * factor).value <= v * (1 + ROUND_OFF)
    assert max(1 / x1, 1 / x2) * (1 - ROUND_OFF) <= v <= (1 / x1 + 1 / x2) * (1 + ROUND_OFF)


@PROPERTY
@given(st.integers(1, 2), st.booleans(), st.data())
def test_closed_bivariate_is_symmetric_homogeneous_and_scaled_by_c0(d, quadratic, data):
    # a Gaussian law under kappa = phi or a quadratic kappa: V is symmetric
    # under swapping the (t, x) pairs, V(ts, c xs) = V(ts, xs) / c, and
    # kappa + c0 gives e^(-c0) V, each to a relative 1e-14; at thresholds
    # near 1e+-300, whose ratio need not be a double, V stays finite,
    # symmetric and homogeneous
    dist = _law("gaussian", d)
    kappa = (ShapeFunction.quadratic(0.2 * np.ones(d), 0.5 * np.eye(d) + 0.1, 0.3) if quadratic
             else ShapeFunction(dist))
    points = hnp.arrays(float, (2, d), elements=st.sampled_from([-2.0, -1.0, -0.3, 0.0, 0.3, 1.0, 2.0]))
    ts = data.draw(points.filter(lambda p: len(np.unique(p, axis=0)) == 2))
    xs = data.draw(hnp.arrays(float, 2, elements=THRESHOLD))
    far = data.draw(hnp.arrays(float, 2, elements=st.sampled_from([1e-300, 3.7e-299, 2.9e299, 1e300])))
    c, c0 = data.draw(st.floats(0.1, 10.0)), data.draw(st.floats(-3.0, 3.0))

    def v(ts, xs, kappa=kappa):
        return closed_bivariate(dist, kappa, FddQuery(ts, xs)).value

    value = v(ts, xs)
    assert math.isclose(v(ts[::-1], xs[::-1]), value, rel_tol=1e-14)
    assert math.isclose(v(ts, c * xs) * c, value, rel_tol=1e-14)
    shifted = ShapeFunction(kappa.law, kappa.c0 + c0)
    assert math.isclose(v(ts, xs, shifted), math.exp(-c0) * value, rel_tol=1e-14)
    far_value = v(ts, far)
    assert math.isfinite(far_value) and math.isclose(v(ts[::-1], far[::-1]), far_value, rel_tol=1e-14)
    assert math.isclose(v(ts, c * far) * c, far_value, rel_tol=1e-14)


# ---------------------------------------------------------------------------
# fields as upper envelopes: H = log eta + kappa is the maximum of the
# affine functions <X_k, t> + c_k of the kept points, so it is convex

# how far H_i may rise above the chord of its neighbours, in units of
# eps * max |H| over the three points: the fields below reach a few 10^2,
# and moving maxima read with Sigma's inverse in place of Sigma 10^13-10^14
CONVEX_SLACK = 1e6


def chord_excess(t, h):
    """max over interior i of (H_i - chord(H_{i-1}, H_{i+1}) at t_i) in units
    of eps * max |H| over the triple, for increasing t."""
    lo, mid, hi = h[:-2], h[1:-1], h[2:]
    chord = lo + (hi - lo) * ((t[1:-1] - t[:-2]) / (t[2:] - t[:-2]))
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(mid)), np.abs(hi))
    return float(((mid - chord) / (np.finfo(float).eps * scale)).max())


def sorted_grids(lo, hi):
    """A 1001-point uniform grid and 400 sorted random points on [lo, hi]."""
    return [np.linspace(lo, hi, 1001), np.sort(np.random.default_rng(5).uniform(lo, hi, 400))]


EXP = Exponential(1.0)
ENVELOPE_LAWS = [
    (Gaussian([0.3], [[2.0]]), None, (-5.0, 5.0)),
    (EXP, None, (-5.0, 0.9)),
    (Uniform(0.0, 1.0), None, (-5.0, 5.0)),
    (Gamma(2.0, 1.0), None, (-5.0, 0.9)),
    (EXP, ShapeFunction.quadratic([0.2], [[0.5]], 0.3), (-5.0, 0.9)),
]


@pytest.mark.parametrize("dist, kappa, span", ENVELOPE_LAWS,
                         ids=["gaussian", "exp", "uniform", "gamma", "exp-quadratic-kappa"])
def test_a_general_field_is_an_upper_envelope_of_affine_functions(dist, kappa, span):
    kappa = kappa or ShapeFunction(dist)
    for t in sorted_grids(*span):
        values, _ = prepare_general(dist, kappa, Grid(t), 10_000).simulate_many(11, range(3))
        for h in np.log(values) + kappa.values(t[:, None]):
            assert chord_excess(t, h) < CONVEX_SLACK


@pytest.mark.parametrize("sigma", [1.0, 4.0])
def test_smith_and_moving_maxima_fields_are_upper_envelopes(sigma):
    # H = log Z + sigma t^2 / 2 for both: a storm's log kernel is
    # -sigma (t - c)^2 / 2 plus a constant; with 1 / sigma in its place the
    # moving-maxima field of sigma = 4 is far from convex, so the check
    # tells Sigma from its inverse (sigma = 1 is its own)
    for t in sorted_grids(-5.0, 5.0):
        smith, _ = prepare_smith([[sigma]], Grid(t), 10_000).simulate_many(12, range(3))
        mmm, _ = prepare_moving_maxima([[sigma]], Grid(t)).simulate_many(13, range(3))
        for h in np.log(np.vstack([smith, mmm])) + 0.5 * sigma * t * t:
            assert chord_excess(t, h) < CONVEX_SLACK
        if sigma != 1.0:
            assert max(chord_excess(t, h) for h in np.log(mmm) + 0.5 / sigma * t * t) > CONVEX_SLACK


def test_a_smith_lattice_field_is_convex_along_every_row_and_column():
    sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
    axis = np.linspace(-3.0, 3.0, 30)
    points = np.array([(a, b) for a in axis for b in axis])
    values, _ = prepare_smith(sigma, Grid(points), 10_000).simulate_many(14, range(2))
    for row in values:
        h = (np.log(row) + 0.5 * np.einsum("id,de,ie->i", points, sigma, points)).reshape(30, 30)
        assert max(chord_excess(axis, line) for line in [*h, *h.T]) < CONVEX_SLACK


# ---------------------------------------------------------------------------
# the replicate layout: a replicate's row depends only on (seed, index)

UNIFORM = Uniform([0.0], [1.0])
GAUSSIAN_2D = Gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 2.0]])
LAYOUT_LAWS = {
    "smith": prepare_smith([[1.0]], Grid([0.0, 1.0, -2.0]), 10_000),
    "uniform": prepare_general(UNIFORM, ShapeFunction(UNIFORM), Grid([-1.0, 0.3, 1.0]), 10_000),
    "gaussian-2d": prepare_general(GAUSSIAN_2D, ShapeFunction(GAUSSIAN_2D),
                                   Grid([[0.0, 0.0], [1.0, 0.5], [-2.0, 1.5], [0.5, -1.0]]), 10_000),
    "moving-maxima": prepare_moving_maxima([[2.0]], Grid([0.0, 0.5, -3.0])),
    "brown-resnick-lattice": prepare_brown_resnick(Variogram.fractional(1.0, 0.5),
                                                   Grid(np.linspace(-2.0, 3.0, 11)), 10_000),
    "brown-resnick-brownian": prepare_brown_resnick(Variogram.fractional(1.0, 1.0),
                                                    Grid([0.0, 1.3, -0.4, 2.0, 5.0, -3.0, 0.9, 0.95]), 10_000),
    "moving-maxima-2d": prepare_moving_maxima([[1.0, 0.6], [0.6, 0.5]],
                                              Grid([[0.0, 0.0], [0.5, 0.5], [3.0, -2.0]])),
}
B = _REPLICATE_BLOCK


@st.composite
def replicate_subsets(draw):
    """R across block edges, and up to 12 indices below R (any order,
    repeats allowed) that include R - 1."""
    r = draw(st.sampled_from([1, B - 1, B, B + 1, 2 * B + 1]))
    idx = draw(st.lists(st.integers(0, r - 1), max_size=11))
    return draw(st.permutations([*idx, r - 1]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(list(LAYOUT_LAWS)), st.integers(0, 2**32 - 1), replicate_subsets())
# a BLAS product of X with the grid rounded this lone replicate's row differently
@example("gaussian-2d", 4, [63])
# a Cholesky product would round this one; alpha = 1 in 1-D sums its steps instead
@example("brown-resnick-brownian", 1, [63])
def test_an_ensemble_row_depends_only_on_seed_and_index(law, seed, idx):
    # the spectral laws sum <X, t> in coordinate order, moving maxima its
    # storms' quadratic forms, and Brown-Resnick on a 1-D lattice takes its
    # paths from FFTs, and at alpha = 1 on any 1-D grid, sorted or not, from
    # running sums of independent steps, so a row does not depend on the
    # other rows of its batch; elsewhere Brown-Resnick's BLAS product may
    # round differently with the batch
    values, record = LAYOUT_LAWS[law].simulate_many(seed, idx)
    full, full_record = LAYOUT_LAWS[law].simulate_many(seed, range(max(idx) + 1))
    assert np.array_equal(values, full[idx])
    # the per-replicate counts: engine draws and rejections, or storms
    counts = [key for key, value in record.items() if isinstance(value, np.ndarray)]
    assert counts
    for key in counts:
        assert np.array_equal(record[key], full_record[key][idx])


# ---------------------------------------------------------------------------
# the paper's identity: Smith's tilted spectral function is a storm kernel


@st.composite
def smith_tilts(draw):
    """A positive-definite Sigma in d = 1 or 2, grid points, a location j
    and base rows of the tilted sampler."""
    d, m, n = draw(st.integers(1, 2)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    a = draw(hnp.arrays(float, (d, d), elements=st.floats(-1.0, 1.0)))
    ts = draw(hnp.arrays(float, (m, d), elements=COORD))
    z = draw(hnp.arrays(float, (n, d), elements=st.floats(-4.0, 4.0)))
    return a @ a.T + 0.2 * np.eye(d), ts, draw(st.integers(0, m - 1)), z


@PROPERTY
@given(smith_tilts())
def test_smith_tilted_spectral_function_is_a_storm_kernel_ratio(case):
    # X tilted at t_j has log Y(t) = <X, t - t_j> - (<t, Sigma t> - <t_j, Sigma t_j>) / 2,
    # the log of the storm kernel exp(-<t - T, Sigma (t - T)> / 2) at t over
    # its value at t_j, for the storm centre T = t_j + Sigma^-1 (X - Sigma t_j)
    sigma, ts, j, z = case
    _, tilt = Gaussian(np.zeros(len(sigma)), sigma).tilted_sampler(ts)
    x = tilt(z, j)
    quad = np.einsum("md,de,me->m", ts, sigma, ts)
    smith = (ts - ts[j]) @ x.T - 0.5 * (quad - quad[j])[:, None]
    centres = ts[j] + np.linalg.solve(sigma, (x - sigma @ ts[j]).T).T
    h = ts[:, None, :] - centres[None, :, :]
    h_j = ts[j] - centres
    storm_quad = np.einsum("mnd,de,mne->mn", h, sigma, h)
    storm = -0.5 * storm_quad + 0.5 * np.einsum("nd,de,ne->n", h_j, sigma, h_j)
    assert np.abs(smith - storm).max() <= 1e-13 * (1.0 + storm_quad.max())
    # the identity holds for any X; in law, the sampler makes T - t_j a
    # N(0, Sigma^-1) draw: base rows z map to T - t_j = M z with M M^T = Sigma^-1
    d = len(sigma)
    basis = tilt(np.vstack([np.zeros(d), np.eye(d)]), j)
    centre_map = np.linalg.solve(sigma, (basis[1:] - basis[0]).T)
    assert np.allclose(basis[0], sigma @ ts[j], rtol=1e-12, atol=1e-12)
    assert np.allclose(centre_map @ centre_map.T, np.linalg.inv(sigma), rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# CLI value parsers: any text parses or is a usage error (exit 2)

# tokens keep grid counts small: at most 12 of them make one text
VALUE_TEXT = st.lists(
    st.sampled_from([*"0129:;,x- .e", "nan", "inf", "-inf", "1e400", "0.5", "-1", "1e-3", "abc"]),
    max_size=12,
).map("".join)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(VALUE_TEXT)
def test_value_parsers_return_an_array_or_a_usage_error(text):
    for parse in (parse_grid, parse_box, lambda s: parse_floats(s, "value")):
        with contextlib.suppress(UsageError):
            assert isinstance(parse(text), np.ndarray)


GAUSS = "--dist=gaussian:mu=0;sigma=1"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(VALUE_TEXT, st.sampled_from(["grid", "box", "ts", "xs"]))
@example("--", "ts")  # argparse reads --ts=-- as an empty list
def test_cli_exits_with_a_contract_code_for_any_value_text(text, flag):
    # each flag goes to a command that parses it and then stops early:
    # verify with too few replicates, a one-config defect search, an fdd
    # closed form
    argv = {
        "grid": ["verify", GAUSS, f"--grid={text}", "--replicates=50"],
        "box": ["defect", GAUSS, f"--box={text}", "--budget=1"],
        "ts": ["fdd", GAUSS, f"--ts={text}", "--xs=1,1", "--method=closed-bivariate"],
        "xs": ["fdd", GAUSS, "--ts=0;1", f"--xs={text}", "--method=closed-bivariate"],
    }[flag]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def _cell_by_cell_ecdf_distance(a, b, thresholds):
    worst = 0.0
    for x in thresholds:
        for y in thresholds:
            fa = float(np.mean((a[:, 0] <= x) & (a[:, 1] <= y)))
            fb = float(np.mean((b[:, 0] <= x) & (b[:, 1] <= y)))
            worst = max(worst, abs(fa - fb))
    return worst


@PROPERTY
@given(
    st.integers(1, 300),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(0.05, 20.0), min_size=1, max_size=12),
)
def test_bivariate_ecdf_distance_equals_the_cell_by_cell_loop(n_a, n_b, seed, thresholds):
    rng = np.random.default_rng(seed)
    # Frechet pairs and thresholds rounded to two decimals, so that they tie
    a = np.round(-1.0 / np.log(rng.uniform(size=(n_a, 2))), 2)
    b = np.round(-1.0 / np.log(rng.uniform(size=(n_b, 2))), 2)
    ts = np.round(thresholds, 2)
    assert bivariate_ecdf_distance(a, b, ts) == _cell_by_cell_ecdf_distance(a, b, ts)


# Each subcommand's flags and the values a call draws from: small sizes
# (100 replicates, a budget of 1, mc_n 2000, grids of at most 5 points), and
# the extreme values of overflows that once escaped the contract: a CGF
# that overflows at a query point, a threshold whose 1 / x overflows, a
# defect too large to divide by eps, a Sigma too small for moving
# maxima to meet its bound inside the grid's box, and grids and query
# points whose spans or norms overflow the double range.
LAWS = ["gaussian:mu=0;sigma=1", "uniform:a=0;b=1", "exp:lambda=1"]
SMALL_GRIDS = ["0,1", "-2,0,2", "0:0.5:5", "0,1e-9", "-1e308,1e308", "0,1e155"]
N_POINTS = ["1", "10", "10000"]
ARGV_FLAGS = {
    "simulate-smith": ("simulate", {"construction": ["smith"], "sigma": ["1", "0.1", "1e-30"],
                                    "grid": SMALL_GRIDS, "n-points": N_POINTS}),
    "simulate-br": ("simulate", {"construction": ["br"], "grid": SMALL_GRIDS, "n-points": N_POINTS,
                                 "variogram": ["fractional:alpha=1", "fractional:scale=2;alpha=0.5",
                                               "quadratic:sigma=1"]}),
    "simulate-mmm": ("simulate", {"construction": ["mmm"], "sigma": ["1", "0.1", "1e-30"], "grid": SMALL_GRIDS}),
    "simulate-general": ("simulate", {"construction": ["general"], "dist": LAWS, "kappa": ["cgf"],
                                      "grid": SMALL_GRIDS, "n-points": N_POINTS}),
    "defect": ("defect", {"dist": LAWS, "n": ["1", "2"], "budget": ["1"],
                          "box": ["0,0.6", "-1,1", "-1e300,1e300"]}),
    "verify": ("verify", {"dist": LAWS, "replicates": ["100"], "budget": ["1"], "grid": SMALL_GRIDS,
                          "n-points": N_POINTS}),
    "fdd": ("fdd", {"dist": ["gaussian:mu=0;sigma=1", "exp:lambda=1"], "ts": ["0;1", "0;1e200", "1e200", "0", "-1e308;1e308"],
                    "xs": ["1,1", "1e-320,1", "1"], "method": ["mc", "closed-bivariate"],
                    "mc-n": ["2000"]}),
    "compare-reps": ("compare-reps", {"sigma": ["1", "1e-30"], "grid": ["0,1", "-1,0,1"], "replicates": ["100"],
                                      "threshold": ["0.2302"]}),
}


@st.composite
def whole_argvs(draw):
    """One call two ways: (argv, argv with some flags moved to a config
    file, the file's lines).  The flags come in a drawn order, each as
    ``--flag=value`` or ``--flag value``, one of them given twice with a
    drawn value first, which the later one overrides."""
    command, flags = ARGV_FLAGS[draw(st.sampled_from(sorted(ARGV_FLAGS)))]
    pairs = [(flag, draw(st.sampled_from(values))) for flag, values in flags.items()]
    pairs.append(("seed", str(draw(st.integers(0, 2**31 - 1)))))
    pairs = draw(st.permutations(pairs))
    twice = draw(st.integers(0, len(pairs) - 1))
    flag = pairs[twice][0]
    pairs.insert(draw(st.integers(0, twice)), (flag, draw(st.sampled_from(flags.get(flag, ["1"])))))
    moved = draw(st.sets(st.sampled_from([flag for flag, _ in pairs])))
    joined = [draw(st.booleans()) for _ in pairs]

    def argv(keep):
        words = [command]
        for (flag, value), join in zip(pairs, joined):
            if keep(flag):
                words += [f"--{flag}={value}"] if join else [f"--{flag}", value]
        return words

    lines = [f"{flag} = {value}" for flag, value in dict(pairs).items() if flag in moved]
    return argv(lambda flag: True), argv(lambda flag: flag not in moved), lines


def run_cli(argv):
    """(exit code, stdout, stderr, warnings) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def config_case(argv, moved):
    """A case of ``whole_argvs`` written out: ``--flag=value`` words, and
    the flags in ``moved`` put in the config file."""
    pairs = [word[2:].split("=", 1) for word in argv[1:]]
    short = [argv[0]] + [word for word, (flag, _) in zip(argv[1:], pairs) if flag not in moved]
    return argv, short, [f"{flag} = {value}" for flag, value in pairs if flag in moved]


@PROPERTY
@given(whole_argvs())
@example(config_case(["fdd", GAUSS, "--ts=0;1e200", "--xs=1,1", "--method=mc", "--mc-n=2000"], ["ts"]))
@example(config_case(["fdd", GAUSS, "--ts=0;1", "--xs=1e-320,1", "--method=mc", "--mc-n=2000"], ["xs"]))
@example(config_case(["fdd", GAUSS, "--ts=1e200", "--xs=1", "--method=mc"], ["dist"]))
@example(config_case(["fdd", GAUSS, "--ts=0;1e200", "--xs=1,1", "--method=closed-bivariate"], ["method"]))
@example(config_case(["defect", "--dist=uniform:a=0;b=1", "--box=-1e300,1e300", "--budget=1"], ["box"]))
@example(config_case(["simulate", "--construction=mmm", "--sigma=1e-30", "--grid=0,1"], ["sigma"]))
# values and spans past the double range, each reported where it starts
@example(config_case(["simulate", "--construction=br", "--variogram=fractional:alpha=1;scale=1e308",
                      "--grid=0:1:5"], ["variogram"]))
@example(config_case(["simulate", "--construction=br", "--variogram=fractional:alpha=1;scale=1e308",
                      "--grid=0,0;1,0;0,1"], ["grid"]))
@example(config_case(["defect", "--dist=uniform:a=0;b=1", "--box=-1e308,1e308"], ["box"]))
@example(config_case(["verify", GAUSS, "--grid=-1e308,1e308", "--replicates=100"], ["grid"]))
@example(config_case(["simulate", "--construction=smith", "--sigma=1e308", "--grid=0,1"], ["sigma"]))
@example(config_case(["simulate", "--construction=smith", "--sigma=1", "--grid=0:inf:3"], ["grid"]))
@example(config_case(["simulate", "--construction=mmm", "--sigma=1", "--grid=-1e308,1e308"], ["grid"]))
@example(config_case(["simulate", "--construction=mmm", "--sigma=1,0,0,1", "--grid=-1e308,0;1e308,0"], ["grid"]))
@example(config_case(["simulate", "--construction=br", "--variogram=fractional:alpha=1", "--grid=-1e308,0,1e308"],
                     ["grid"]))
@example(config_case(["simulate", "--construction=br", "--variogram=fractional:alpha=1",
                      "--grid=0,1.5e308,-1.5e308,1"], ["grid"]))
@example(config_case(["fdd", GAUSS, "--ts=-1e308;1e308", "--xs=1,1", "--method=closed-bivariate"], ["ts"]))
@example(config_case(["fdd", "--dist=gaussian:mu=0,0;sigma=0,0,0,1", "--ts=-1e308,0;1e308,0", "--xs=1,1",
                      "--method=closed-bivariate"], ["ts"]))
@example(config_case(["verify", "--dist=uniform:a=0;b=1", "--grid=0,1e155", "--replicates=100", "--budget=5"],
                     ["grid"]))
@example(config_case(["defect", "--dist=exp:lambda=1", "--box=0,0.6", "--budget=5", "--output=/"], ["output"]))
def test_whole_argv_keeps_the_exit_code_contract(case):
    # flag order, a repeated flag and a config file change nothing; every
    # call exits 0, 1, 2 or 3 and prints no traceback or warning
    argv, short_argv, lines = case
    code, out, err, caught = run_cli(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err and "Warning" not in err and not caught
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
        assert run_cli([*short_argv, "--config", path])[:2] == (code, out)
