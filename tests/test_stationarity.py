import itertools
import json
import math
import time

import numpy as np
import pytest

from maxstable import stationarity
from maxstable.cli import dump_json
from maxstable.seeding import derive_rng
from maxstable.fdd import bivariate_ecdf_distance, frechet_cdf, frechet_threshold_grid, ks_distance
from maxstable.simulator import _DUPLICATE_TOL, Grid, PreparedLaw, prepare_general
from maxstable.spectral import (
    DomainError,
    Exponential,
    Gamma,
    Gaussian,
    ShapeFunction,
    SpectralDistribution,
    Uniform,
    cgf_multi,
)
from maxstable.stationarity import (
    CriterionConfig,
    _coarse_grid,
    _simplex_grid,
    defect,
    default_shift,
    empirical_shift_distance,
    gradient_affinity_defect,
    marginal_frechet_ks,
    search_violation,
    verify_characterization,
)


def test_criterion_config_validation():
    cfg = CriterionConfig([[0.0], [1.0]], [0.5, 0.5], [0.3])
    assert cfg.ts.shape == (2, 1)
    with pytest.raises(ValueError):
        CriterionConfig([[0.0], [1.0]], [1.0], [0.3])
    with pytest.raises(ValueError):
        CriterionConfig([[0.0], [1.0]], [0.5, 0.5], [0.3, 0.3])


def test_config_domain_includes_shifted_points():
    # ts are inside the domain of exp(1); the shifted point 0.5 + 0.6 is not
    cfg = CriterionConfig([[0.0], [0.5]], [0.5, 0.5], [0.4])
    assert math.isfinite(defect(Exponential(1.0), cfg))
    cfg = CriterionConfig([[0.0], [0.5]], [0.5, 0.5], [0.6])
    with pytest.raises(DomainError):
        defect(Exponential(1.0), cfg)


@pytest.mark.parametrize("dist", [Exponential(1.0), Gaussian(0.0, 1.0)], ids=["exp", "gaussian"])
@pytest.mark.parametrize("ts, h", [([[0.0], [np.nan]], [0.4]), ([[0.0], [0.5]], [np.nan])],
                         ids=["point", "shift"])
def test_a_nan_config_lies_outside_the_domain(dist, ts, h):
    with pytest.raises(DomainError):
        defect(dist, CriterionConfig(ts, [0.5, 0.5], h))


def test_gaussian_defect_vanishes(rng):
    dist = Gaussian([0.2, -0.1], [[1.0, 0.3], [0.3, 0.5]])
    for _ in range(100):
        n = int(rng.integers(2, 4))
        cfg = CriterionConfig(
            rng.uniform(-1, 1, size=(n, 2)),
            rng.dirichlet(np.ones(n)),
            rng.uniform(-1, 1, size=2),
        )
        assert abs(defect(dist, cfg)) < 1e-12


def test_exponential_defect_frozen_value():
    cfg = CriterionConfig([[0.0], [0.5]], [0.5, 0.5], [0.25])
    assert defect(Exponential(1.0), cfg) == pytest.approx(0.08494951839769878, abs=1e-14)


def test_gradient_affinity_gaussian_zero(rng):
    dist = Gaussian([0.1], [[2.0]])
    for _ in range(50):
        t1, t2, h = rng.uniform(-1, 1, size=3)
        delta = float(rng.uniform(0, 1))
        assert abs(gradient_affinity_defect(dist, [t1], [t2], delta, [h])) < 1e-12


def test_gradient_affinity_exponential_frozen_value():
    # grad phi(t) = 1/(1-t); midpoint gap at (0, 1/2, delta=1/2) is -1/6
    val = gradient_affinity_defect(Exponential(1.0), [0.0], [0.5], 0.5, [1.0])
    assert val == pytest.approx(-1.0 / 6.0, abs=1e-8)
    with pytest.raises(ValueError):
        gradient_affinity_defect(Exponential(1.0), [0.0], [0.5], 1.5, [1.0])


# ---------------------------------------------------------------------------
# violation search


def test_search_violation_gaussian_consistent(rng):
    report = search_violation(Gaussian([0.0], [[1.0]]), 2, 200, [[-1.0, 1.0]], rng)
    assert report.verdict == "stationary-consistent"
    assert report.max_abs_defect < 1e-10
    assert report.n_evaluated > 200


def test_search_violation_exponential_violated(rng):
    report = search_violation(Exponential(1.0), 2, 200, [[0.0, 0.6]], rng)
    assert report.verdict == "violated"
    assert report.max_abs_defect > 0.084950 - 1e-9
    assert report.argmax_config is not None
    d = report.to_dict()
    assert d["verdict"] == "violated" and "argmax_config" in d


def test_search_violation_box_outside_domain(rng):
    with pytest.raises(DomainError):
        search_violation(Exponential(1.0), 2, 10, [[0.0, 2.0]], rng)


def test_search_violation_input_checks(rng):
    dist = Gaussian([0.0], [[1.0]])
    with pytest.raises(ValueError):
        search_violation(dist, 2, 0, [[-1.0, 1.0]], rng)
    for n in (0, 1):
        with pytest.raises(ValueError, match="n must be >= 2"):
            search_violation(dist, n, 10, [[-1.0, 1.0]], rng)
    with pytest.raises(ValueError):
        search_violation(dist, 2, 10, [[1.0, -1.0]], rng)
    with pytest.raises(ValueError):
        search_violation(dist, 2, 10, [[-1.0, 1.0], [-1.0, 1.0]], rng)


def test_search_violation_gives_no_verdict_on_a_cgf_overflow(rng):
    # phi(t) = t^2 / 2 overflows at t = 1e160: most defects would be nan
    dist = Gaussian([0.0], [[1.0]])
    with pytest.raises(ValueError, match="not finite"):
        search_violation(dist, 2, 5, [[0.0, 1e160]], rng)
    for box in ([[np.nan, np.nan]], [[0.0, np.inf]], [[-np.inf, 0.0]]):
        with pytest.raises(ValueError, match="box must be finite"):
            search_violation(dist, 2, 5, box, rng)


# The per-config search the batched one replaces, kept as its reference:
# the itertools.product walk for the coarse grid, the random configs in the
# search's three array calls, then one CriterionConfig, one domain check
# of its 2n + 3 points and two cgf_multi calls per config.


def _walk_coarse_grid(n, box):
    d = box.shape[0]
    axis = [np.linspace(box[j, 0], box[j, 1], 5) for j in range(d)]
    u_grid = [np.array(c, dtype=float) / 4 for c in itertools.product(range(5), repeat=n) if sum(c) == 4]
    total = 5 ** (n * d + d) * len(u_grid)
    stride = -(-total // stationarity._GRID_CAP)
    idx = 0
    for values in itertools.product(*[axis[j % d] for j in range(n * d + d)]):
        for u in u_grid:
            if idx % stride == 0:
                yield np.array(values[: n * d]).reshape(n, d), u, np.array(values[n * d :])
            idx += 1


def _reference_defect(dist, cfg):
    combo = cfg.weights.u @ cfg.ts
    dist.check_domain(np.vstack([cfg.ts, cfg.ts + cfg.h, [combo, combo + cfg.h]]))
    return cgf_multi(dist, cfg.ts, cfg.weights) - cgf_multi(dist, cfg.ts + cfg.h, cfg.weights)


def _reference_search(dist, n, budget, box, rng):
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    configs = [CriterionConfig(ts, u, h) for ts, u, h in _walk_coarse_grid(n, box)]
    rand_ts = rng.uniform(box[:, 0], box[:, 1], size=(budget, n, dist.dim))
    rand_h = rng.uniform(box[:, 0], box[:, 1], size=(budget, dist.dim))
    rand_u = rng.dirichlet(np.ones(n), size=budget)
    configs += [CriterionConfig(ts, u, h) for ts, u, h in zip(rand_ts, rand_u, rand_h)]
    defects, kept = [], []
    for cfg in configs:
        try:
            defects.append(_reference_defect(dist, cfg))
            kept.append(cfg)
        except DomainError:
            pass
    defects = np.array(defects)
    arg = int(np.argmax(np.abs(defects)))
    return defects, float(abs(defects[arg])), kept[arg], len(kept), len(configs) - len(kept)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.fixture
def small_grid_cap(monkeypatch):
    # a quarter of the default cap keeps the d = 2 reference loops short; the
    # grid at the default cap is compared with the walk row for row below
    monkeypatch.setattr(stationarity, "_GRID_CAP", 5000)


SEARCH_CASES = [
    *[(Gaussian([0.0], [[1.0]]), n, [[-1.0, 1.0]]) for n in (2, 3)],
    *[(Exponential(1.0), n, [[0.0, 0.6]]) for n in (2, 3)],
    *[(Uniform(0.0, 1.0), n, [[-1.0, 1.0]]) for n in (2, 3)],
    *[(Gamma(2.0, 1.0), n, [[0.0, 0.6]]) for n in (2, 3)],
    (Exponential(1.0), 2, [[0.0, 0.99]]),
    (Exponential([1.0, 2.0]), 2, [[0.0, 0.6], [0.0, 1.2]]),
    (Uniform([0.0, -1.0], [1.0, 2.0]), 2, [[-1.0, 1.0], [-1.0, 1.0]]),
    (Gamma([2.0, 0.5], [1.0, 3.0]), 2, [[0.0, 0.6], [-0.5, 2.9]]),
]


@pytest.mark.parametrize(
    "dist, n, box", SEARCH_CASES, ids=[f"{c[0].family}-d{c[0].dim}-n{c[1]}-{c[2][0][1]}" for c in SEARCH_CASES]
)
def test_batched_search_equals_the_per_config_loop(dist, n, box, small_grid_cap):
    want_defects, want_max, want_cfg, want_eval, want_skip = _reference_search(
        dist, n, 150, box, derive_rng(4242)
    )
    got = search_violation(dist, n, 150, box, derive_rng(4242))
    assert _bits(got.defects) == _bits(want_defects)
    assert got.max_abs_defect == want_max
    for name in ("ts", "h"):
        assert _bits(getattr(got.argmax_config, name)) == _bits(getattr(want_cfg, name))
    assert _bits(got.argmax_config.weights.u) == _bits(want_cfg.weights.u)
    assert (got.n_evaluated, got.n_skipped) == (want_eval, want_skip)
    # the bounded-domain cases exercise the skipping of configs
    assert (want_skip > 0) == (dist.family in ("exp", "gamma"))


def test_batched_search_on_a_2d_gaussian_agrees_to_round_off(small_grid_cap):
    # one CGF call on all points may take another BLAS kernel than the
    # per-point calls, so only the round-off may differ
    dist = Gaussian([0.0, 0.0], [[1.0, 0.3], [0.3, 2.0]])
    box = [[-1.0, 1.0], [-1.0, 1.0]]
    want_defects, _, _, want_eval, want_skip = _reference_search(dist, 2, 150, box, derive_rng(4343))
    got = search_violation(dist, 2, 150, box, derive_rng(4343))
    assert (got.n_evaluated, got.n_skipped) == (want_eval, want_skip) == (len(want_defects), 0)
    assert np.abs(got.defects - want_defects).max() < 1e-12
    assert got.max_abs_defect < 1e-12


@pytest.mark.parametrize(
    "dist, n, box", SEARCH_CASES, ids=[f"{c[0].family}-d{c[0].dim}-n{c[1]}-{c[2][0][1]}" for c in SEARCH_CASES]
)
def test_search_does_not_depend_on_the_config_block(dist, n, box, small_grid_cap, monkeypatch):
    # d = 1 or independent coordinates: every CGF value is computed row by row
    monkeypatch.setattr(stationarity, "_CONFIG_BLOCK", 10**9)
    whole = search_violation(dist, n, 150, box, derive_rng(4444))
    monkeypatch.setattr(stationarity, "_CONFIG_BLOCK", 7)
    blocks = search_violation(dist, n, 150, box, derive_rng(4444))
    assert _bits(blocks.defects) == _bits(whole.defects)
    assert blocks.to_dict() == whole.to_dict()


class _LocationMixture(SpectralDistribution):
    """1/2 N(-a, 1) + 1/2 N(a, 1): phi(t) = t^2/2 + log cosh(a t), quadratic
    only at a = 0, with a defect of order a^4."""

    family = "mixture"
    dim = 1

    def __init__(self, a):
        self.a = a

    def _cgf(self, pts):
        s = pts[:, 0]
        return 0.5 * s**2 + np.logaddexp(self.a * s, -self.a * s) - math.log(2.0)

    def mean(self):
        return np.zeros(1)


@pytest.mark.parametrize("a, verdict", [
    (0.0, "stationary-consistent"),
    (0.003, "violated"),
    (0.01, "violated"),
    (0.03, "violated"),
])
def test_search_finds_a_near_gaussian_mixture(a, verdict):
    # max |defect| runs from 4e-11 (a = 0.003) to 4e-7 (a = 0.03); each
    # config's round-off bound tells them from the Gaussian a = 0
    report = search_violation(_LocationMixture(a), 2, 1000, [[-1.0, 1.0]], derive_rng(1))
    assert report.verdict == verdict


DELTA = 1e-6
NEAR_SINGULAR = np.array([1.0, -1.0])


@pytest.mark.parametrize("dist, ts, u, h", [
    # linear and quadratic terms cancel at every point
    (Gaussian([-1.0], [[1.0]]), [[2 + DELTA], [2 + 3 * DELTA]], [0.5, 0.5], [-2.0]),
    # t along the null direction of a nearly singular Sigma
    (Gaussian([0.0, 0.0], [[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]]),
     [0.7 * NEAR_SINGULAR, 1.9 * NEAR_SINGULAR], [0.3, 0.7], -1.3 * NEAR_SINGULAR),
], ids=["cancelling-terms", "near-singular"])
def test_gaussian_roundoff_scale_sees_cancelling_terms(dist, ts, u, h):
    ts, u, h = (np.asarray(x, dtype=float)[None] for x in (ts, u, h))
    _, base, shifted, scale = stationarity._centred_cgfs(dist, ts, u, h)
    ratio = abs(base[0] - shifted[0]) / (np.finfo(float).eps * scale[0])
    assert ratio <= stationarity.ROUNDOFF_FACTOR


@pytest.mark.parametrize("n", range(1, 8))
def test_simplex_grid_equals_the_product_walk(n):
    walk = [c for c in itertools.product(range(5), repeat=n) if sum(c) == 4]
    assert _bits(_simplex_grid(n, np.arange(len(walk)))) == _bits(np.array(walk, dtype=float) / 4)
    # any subset of the ranks, in any order, unranks row by row
    ranks = np.arange(len(walk))[::-3]
    assert _bits(_simplex_grid(n, ranks)) == _bits(np.array(walk, dtype=float)[ranks] / 4)


@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (2, 2)])
def test_coarse_grid_equals_the_product_walk(n, d):
    box = np.array([[-1.0, 1.0], [0.0, 0.6]][:d])
    ts, u, h = _coarse_grid(n, box)
    walk = list(_walk_coarse_grid(n, box))
    assert len(ts) == len(u) == len(h) == len(walk) <= stationarity._GRID_CAP
    assert _bits(ts) == _bits([w[0] for w in walk])
    assert _bits(u) == _bits([w[1] for w in walk])
    assert _bits(h) == _bits([w[2] for w in walk])


def test_coarse_grid_does_not_walk_a_long_product():
    # n = 2, d = 3: the walk has 5^9 * 5 (about 10^7) entries
    n, d = 2, 3
    box = np.array([[-1.0, 1.0]] * d)
    ts, u, h = _coarse_grid(n, box)
    total = 5 ** (n * d + d) * 5
    stride = math.ceil(total / stationarity._GRID_CAP)
    assert len(ts) == len(u) == len(h) == math.ceil(total / stride) == 19_971
    # the first rows are those of the walk
    head = list(itertools.islice(_walk_coarse_grid(n, box), 5))
    assert _bits(ts[:5]) == _bits([w[0] for w in head])
    assert _bits(u[:5]) == _bits([w[1] for w in head])
    assert _bits(h[:5]) == _bits([w[2] for w in head])


def test_coarse_grid_builds_only_the_weights_it_keeps():
    # the whole simplex grid of n = 100 has C(103, 4) (about 4.4 million) rows
    start = time.perf_counter()
    ts, u, h = _coarse_grid(100, np.array([[-1.0, 1.0]]))
    assert time.perf_counter() - start < 5.0
    assert len(ts) == len(u) == len(h) <= stationarity._GRID_CAP
    assert u.shape[1] == 100 and np.all(u.sum(axis=1) == 1.0)


def test_coarse_grid_beyond_int64_indices():
    # 5^25 * 35 entries do not fit in int64; the grid still keeps at most the cap
    ts, u, h = _coarse_grid(4, np.array([[-1.0, 1.0]] * 5))
    assert ts.shape == (20_000, 4, 5) and u.shape == (20_000, 4) and h.shape == (20_000, 5)
    assert np.allclose(u.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# experiments (light versions; the heavy gates live in the acceptance suite)


def test_default_shift():
    assert np.allclose(default_shift(Gaussian([0.0], [[1.0]]), Grid([0.0, 1.0])), [0.7])
    assert np.allclose(default_shift(Exponential(1.0), Grid([0.0, 0.5])), [0.25])
    with pytest.raises(DomainError):
        default_shift(Exponential(1.0), Grid([0.0, 1.5]))


def test_marginal_frechet_ks_small_run():
    table = marginal_frechet_ks(
        Gaussian([0.0], [[1.0]]), Grid([0.0, 1.0]), 300, 31, n_points=2000
    )
    assert len(table) == 2
    assert all(row["pass"] for row in table)


def test_empirical_shift_distance_gaussian_small():
    d = empirical_shift_distance(
        Gaussian([0.0], [[1.0]]), [0.0], [1.0], [0.7], 400, 35, n_points=2000
    )
    assert 0.0 <= d < 0.15


def test_empirical_shift_distance_merges_each_point_into_the_first_kept_one_within_tolerance():
    # t1 + h = t2 = 2^-40 lies within the tolerance of t1 = 0, and t2 + h =
    # 2^-39 within that of t2 but not of t1: merged greedily the kept points
    # are 0 and 2^-39, a valid grid (0 and 2^-40 would not be one)
    dist = Gaussian([0.0], [[1.0]])
    h = 2.0**-40
    assert h <= _DUPLICATE_TOL < 2 * h
    got = empirical_shift_distance(dist, [0.0], [h], [h], 200, 41, n_points=1000)
    law = prepare_general(dist, ShapeFunction.from_cgf(dist), Grid([[0.0], [2.0**-39]]), 1000)
    pairs = law.simulate_many(41, range(200))[0][:, [0, 0, 0, 1]]
    assert got == bivariate_ecdf_distance(pairs[:, :2], pairs[:, 2:], frechet_threshold_grid())


def test_verify_characterization_verdicts():
    rep = verify_characterization(
        Gaussian([0.0], [[1.0]]),
        Grid([0.0, 0.5, 1.0]),
        200,
        37,
        n_points=1500,
        budget=50,
    )
    assert rep.verdict == "Gaussian-consistent"
    assert rep.marginals_pass
    parsed = json.loads(dump_json(rep.to_dict()))
    assert parsed["verdict"] == "Gaussian-consistent"

    rep = verify_characterization(
        Gamma(2.0, 1.0),
        Grid([0.0, 0.25, 0.5]),
        200,
        39,
        n_points=1500,
        budget=50,
    )
    assert rep.verdict == "non-stationary in dimension 2"
    assert rep.marginals_pass  # marginals are Frechet regardless
    assert rep.defect_report.verdict == "violated"


# (law, grid, the points verify simulates on, the columns of (t1, t2, t1 + h, t2 + h))
ONE_ENSEMBLE_CASES = {
    # h = 0.7: t1 + h and t2 + h are two more points
    "uniform-default-grid": (Uniform(0.0, 1.0), [0.0, 0.5, 1.0], [0.0, 0.5, 1.0, 0.7, 1.2], [0, 1, 3, 4]),
    # h = 0.7 moves t1 and t2 onto the grid's second and third points
    "gaussian-shift-on-grid": (Gaussian([0.0], [[1.0]]), [0.0, 0.7, 1.4], [0.0, 0.7, 1.4], [0, 1, 1, 2]),
    "gaussian-2d": (Gaussian([0.0, 0.0], [[1.0, 0.3], [0.3, 2.0]]), [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]],
                    [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.7, 0.7], [1.2, 0.7]], [0, 1, 3, 4]),
}


@pytest.mark.parametrize("case", sorted(ONE_ENSEMBLE_CASES))
def test_verify_reads_both_checks_from_one_ensemble(case, monkeypatch):
    dist, grid, points, columns = ONE_ENSEMBLE_CASES[case]
    prepared, simulated = [], []
    prepare = stationarity.prepare_general
    simulate_many = PreparedLaw.simulate_many

    def counted_prepare(*args):
        prepared.append(args[2])
        return prepare(*args)

    def counted_simulate_many(self, *args):
        simulated.append(args)
        return simulate_many(self, *args)

    monkeypatch.setattr(stationarity, "prepare_general", counted_prepare)
    monkeypatch.setattr(PreparedLaw, "simulate_many", counted_simulate_many)
    rep = verify_characterization(dist, Grid(grid), 100, 43, n_points=1000, budget=20)
    assert len(prepared) == 1 and len(simulated) == 1
    assert np.array_equal(prepared[0].locations, Grid(points).locations)
    # by hand: one law on the merged points, replicates 0 .. 99 of the seed
    values, _ = prepare(dist, ShapeFunction.from_cgf(dist), Grid(points), 1000).simulate_many(43, range(100))
    assert [row["ks"] for row in rep.marginal_ks] == [
        ks_distance(values[:, j], frechet_cdf) for j in range(len(grid))
    ]
    pairs = values[:, columns]
    assert rep.shift_distance == bivariate_ecdf_distance(pairs[:, :2], pairs[:, 2:], frechet_threshold_grid())


def test_verify_checks_the_grid_domain():
    # the grid is checked against the CGF domain before anything is simulated
    with pytest.raises(DomainError):
        verify_characterization(Exponential(1.0), Grid([0.0, 2.0]), 100, 5)


def test_verify_checks_the_budget_before_simulating(monkeypatch):
    prepared = []
    prepare_general = stationarity.prepare_general

    def counted(*args):
        prepared.append(args)
        return prepare_general(*args)

    monkeypatch.setattr(stationarity, "prepare_general", counted)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        verify_characterization(Gaussian([0.0], [[1.0]]), Grid([0.0, 1.0]), 100_000, 5, budget=0)
    assert prepared == []


def test_verify_characterization_needs_two_points():
    with pytest.raises(ValueError):
        verify_characterization(Gaussian([0.0], [[1.0]]), Grid([0.0]), 100, 5)
