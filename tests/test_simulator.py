import hashlib
import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    brown_resnick_block_reference,
    brown_resnick_reference,
    general_block_reference,
    general_reference,
    moving_maxima_block_reference,
    moving_maxima_reference,
    seed_rejecting_once_at_location_1,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from maxstable import simulator
from maxstable.cli import main
from maxstable.fdd import frechet_cdf, ks_distance, ks_threshold
from maxstable.pointproc import frechet_cascade
from maxstable.seeding import block_rng, derive_rng, spawn
from maxstable.simulator import (
    DEFAULT_N_POINTS,
    Field,
    Grid,
    Variogram,
    field_csv_text,
    moving_maxima_buffer,
    prepare_brown_resnick,
    prepare_general,
    prepare_moving_maxima,
    prepare_smith,
    simulate_brown_resnick,
    simulate_general,
    simulate_moving_maxima,
    simulate_smith,
)
from maxstable.spectral import DomainError, Exponential, Gamma, Gaussian, ShapeFunction, Uniform, psd_factor


def unit_smith_dist():
    return Gaussian([0.0], [[1.0]]), ShapeFunction.quadratic([0.0], [[1.0]])


# ---------------------------------------------------------------------------
# Grid / Field / Variogram


def test_grid_reshapes_1d_input():
    grid = Grid([0.0, 1.0, 2.0])
    assert grid.locations.shape == (3, 1)
    assert grid.size == 3 and grid.dim == 1


def test_grid_rejects_duplicates_and_nonfinite():
    with pytest.raises(ValueError):
        Grid([0.0, 1.0, 1.0 + 1e-15])
    with pytest.raises(ValueError):
        Grid([0.0, np.inf])
    with pytest.raises(ValueError):
        Grid(np.empty((0, 1)))


def test_grid_duplicate_check_in_2d():
    # a vertical line: every point shares its first coordinate
    line = np.column_stack([np.zeros(3000), np.arange(3000) * 1e-3])
    assert Grid(line).size == 3000
    # lexicographic order puts (2e-13, 1) between two points 5e-13 apart
    with pytest.raises(ValueError, match="duplicate"):
        Grid([[0.0, 0.0], [2e-13, 1.0], [5e-13, 0.0]])


def test_grid_duplicate_check_past_the_double_range():
    # these points project past the double range: their differences are
    # infinite or nan, and the check still tells them apart, without a warning
    assert Grid([[-1e308], [1e308]]).size == 2
    assert Grid([[1.5e308] * 3, [1.5e308, 1.5e308, -1.5e308]]).size == 2
    with pytest.raises(ValueError, match="duplicate"):
        Grid([[1.5e308] * 3, [0.0] * 3, [1.5e308] * 3])


def test_field_validation():
    grid = Grid([0.0, 1.0])
    with pytest.raises(ValueError):
        Field(grid, np.array([1.0]), {})
    with pytest.raises(ValueError):
        Field(grid, np.array([1.0, 0.0]), {})
    with pytest.raises(ValueError):
        Field(grid, np.array([1.0, np.inf]), {})


def test_variogram_values():
    frac = Variogram.fractional(2.0, 1.0)
    assert np.allclose(frac(np.array([[3.0], [-3.0]])), [6.0, 6.0])
    quad = Variogram.quadratic([[2.0]])
    assert quad(np.array([[2.0]]))[0] == pytest.approx(8.0)


def test_variogram_validation():
    with pytest.raises(ValueError):
        Variogram.fractional(1.0, 2.5)
    with pytest.raises(ValueError):
        Variogram.fractional(-1.0, 1.0)
    with pytest.raises(ValueError):
        Variogram("spherical")


# ---------------------------------------------------------------------------
# general / Smith construction


def test_simulate_general_with_stubbed_inputs(stub_rng):
    # StubRng: every arrival E = 1, every normal 0, so at t_j the first
    # arrival is zeta = 1 and X = Sigma t_j.  On the grid (1, 0):
    # t_1 = 1: X = 1, log Y(t) = X (t - 1) - (t^2 - 1) / 2 = (0, -1/2), kept;
    #          the next arrival 1/2 is below Z(1) = 1.
    # t_2 = 0: 1 > Z(0) = e^{-1/2}; X = 0, log Y = (-1/2, 0) stays below
    #          Z(1) = 1, kept; Z = max((1, e^{-1/2}), (e^{-1/2}, 1)) = (1, 1).
    field = simulate_smith([[1.0]], Grid([1.0, 0.0]), 10, stub_rng)
    assert np.array_equal(field.values, [1.0, 1.0])
    assert field.provenance["spectral_draws"] == 2 and field.provenance["rejections"] == 0
    # kappa = phi + 1/4 scales the same field by e^{-1/4}
    dist, _ = unit_smith_dist()
    kappa = ShapeFunction.quadratic([0.0], [[1.0]], c0=0.25)
    field = simulate_general(dist, kappa, Grid([1.0, 0.0]), 10, stub_rng)
    assert field.values == pytest.approx([math.exp(-0.25)] * 2, rel=1e-15)


def test_origin_value_is_cascade_max(rng):
    # with kappa(0) = 0 and the origin first, the origin value is the first
    # arrival 1/E_1, the largest point of a cascade on the arrival stream
    dist, kappa = unit_smith_dist()
    grid = Grid([0.0, 0.5])
    rng_u, _ = spawn(derive_rng(21), 2)
    cascade = frechet_cascade(500, rng_u)
    field = simulate_general(dist, kappa, grid, 500, derive_rng(21))
    assert field.values[0] == pytest.approx(cascade.points[0], rel=1e-15)


@pytest.mark.parametrize(
    "dist",
    [Gaussian([0.3], [[2.0]]), Exponential([1.0]), Uniform([0.0], [1.0]), Gamma([2.0], [1.0])],
    ids=lambda d: d.family,
)
def test_first_location_is_the_first_arrival(dist):
    # at t_1 the one candidate is zeta = 1/E_1 with Y(t_1) = 1, and kappa = phi
    grid = Grid([0.7, 0.1, 0.4])
    for seed in range(4):
        field = simulate_general(dist, ShapeFunction(dist), grid, 100, derive_rng(seed))
        e_1 = spawn(derive_rng(seed), 2)[0].exponential()
        assert field.values[0] == pytest.approx(1.0 / e_1, rel=1e-15)


def test_simulate_general_determinism():
    dist, kappa = unit_smith_dist()
    grid = Grid([0.0, 1.0])
    a = simulate_general(dist, kappa, grid, 2000, derive_rng(5))
    b = simulate_general(dist, kappa, grid, 2000, derive_rng(5))
    assert np.array_equal(a.values, b.values)


def with_cgf(dist, grid):
    return dist, ShapeFunction(dist), grid


# grids that reach far from the origin, where candidates are often rejected
REFERENCE_CASES = {
    "gaussian": with_cgf(Gaussian([0.0], [[1.0]]), Grid(np.linspace(-5.0, 5.0, 21))),
    "exp": with_cgf(Exponential([1.0]), Grid([0.0, 0.9, 0.3, 0.6, 0.95])),
    "uniform": with_cgf(Uniform([0.0], [1.0]), Grid([-4.0, 0.3, 4.0, 1.0, -1.0])),
    "gamma": with_cgf(Gamma([2.0], [1.0]), Grid([0.0, 0.9, 0.3, 0.6, 0.95])),
    "smith": (*simulator._smith_law([[1.0]]), Grid([0.0, 4.0, -2.0, 5.0, 1.0, -5.0])),
    # dense grids, where most candidates are rejected by the engine's screen
    # at the previous location: in grid order, and shuffled
    "smith-201": (*simulator._smith_law([[1.0]]), Grid(np.linspace(-5.0, 5.0, 201))),
    "smith-201-shuffled": (*simulator._smith_law([[1.0]]),
                           Grid(np.random.default_rng(0).permutation(np.linspace(-5.0, 5.0, 201)))),
}


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_engine_equals_the_textbook_loop(case):
    # d = 1: every log Y is one product and two subtractions per entry, so
    # scoring candidates in batches across locations cannot change a bit
    dist, kappa, grid = REFERENCE_CASES[case]
    for seed in range(4):
        field = simulate_general(dist, kappa, grid, DEFAULT_N_POINTS, derive_rng(seed))
        values, draws, kept = general_reference(
            dist, kappa, grid, DEFAULT_N_POINTS, derive_rng(seed)
        )
        assert np.array_equal(field.values, values)
        prov = field.provenance
        assert prov["spectral_draws"] == draws
        assert prov["spectral_draws"] == prov["rejections"] + kept


def test_a_location_past_the_table_reads_its_next_layer(monkeypatch):
    # with a one-arrival table every rejected candidate makes its location
    # read on, in the table's next layer; the textbook loop reads it too
    monkeypatch.setattr(simulator, "_ARRIVALS", 1)
    depths, grow = [], simulator._Scan.grow

    def counted(scan):
        layer = grow(scan)
        depths.append(scan.table.shape[1] // simulator._ARRIVALS)
        return layer

    monkeypatch.setattr(simulator._Scan, "grow", counted)
    rejections = 0
    for case in ("gaussian", "gamma", "smith", "smith-201"):
        dist, kappa, grid = REFERENCE_CASES[case]
        for seed in range(3):
            field = simulate_general(dist, kappa, grid, DEFAULT_N_POINTS, derive_rng(seed))
            values, draws, kept = general_reference(dist, kappa, grid, DEFAULT_N_POINTS, derive_rng(seed))
            assert np.array_equal(field.values, values)
            assert field.provenance["spectral_draws"] == draws
            rejections += draws - kept
    assert rejections > 0 and max(depths) > 1


def engine_and_reference(case):
    dist, kappa, grid = REFERENCE_CASES[case]
    return (lambda n: prepare_general(dist, kappa, grid, n),
            lambda n, rng: general_reference(dist, kappa, grid, n, rng))


BR_LINE, BR_VARIO = Grid(np.linspace(-1.0, 3.0, 9)), Variogram.fractional(1.0, 0.5)
N_POINTS_LAWS = {
    "gaussian": engine_and_reference("gaussian"),
    "gamma": engine_and_reference("gamma"),
    "brown-resnick": (lambda n: prepare_brown_resnick(BR_VARIO, BR_LINE, n),
                      lambda n, rng: brown_resnick_reference(BR_VARIO, BR_LINE, n, rng)),
}


@pytest.mark.parametrize("arrivals", [simulator._ARRIVALS, 1])
@pytest.mark.parametrize("law", N_POINTS_LAWS)
def test_n_points_raises_where_the_textbook_loop_does(monkeypatch, law, arrivals):
    # every field's first pass lists t_0, where all table arrivals beat
    # Z = -inf: with n_points < _ARRIVALS one past the bound is listed there
    # and pre-empted by the first, which is kept.  A one-arrival table puts
    # the bound on the arrivals of its later layers.
    monkeypatch.setattr(simulator, "_ARRIVALS", arrivals)
    prepare, reference = N_POINTS_LAWS[law]
    for n_points in (1, 2, 3):
        prepared = prepare(n_points)
        raised = 0
        for seed in range(40):
            try:
                want, draws, _ = reference(n_points, derive_rng(seed))
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(f"grid {exc}")):
                    prepared.simulate(derive_rng(seed))
                raised += 1
                continue
            field = prepared.simulate(derive_rng(seed))
            assert np.allclose(field.values, want, rtol=1e-13, atol=0.0)
            assert field.provenance["spectral_draws"] == draws
        assert 0 < raised < 40


def test_the_screen_leaves_few_candidates_to_score_on_the_whole_grid():
    dist, kappa = simulator._smith_law([[1.0]])
    grid = Grid(np.linspace(-5.0, 5.0, 1001))
    field = simulate_smith([[1.0]], grid, DEFAULT_N_POINTS, derive_rng(7))
    values, draws, kept = general_reference(dist, kappa, grid, DEFAULT_N_POINTS, derive_rng(7))
    assert np.array_equal(field.values, values)
    prov = field.provenance
    assert prov["full_scores"] * 10 < prov["spectral_draws"] == draws
    assert prov["spectral_draws"] == prov["rejections"] + kept
    # and for every replicate of an ensemble
    _, record = prepare_smith([[1.0]], grid, DEFAULT_N_POINTS).simulate_many(7, range(64))
    assert np.all(record["full_scores"] * 10 < record["spectral_draws"])


def test_two_dimensional_and_brown_resnick_agree_with_the_textbook_loop():
    # the engine multiplies many rows at once: equal up to round-off
    sigma = [[1.0, 0.3], [0.3, 2.0]]
    dist, kappa = simulator._smith_law(sigma)
    square = Grid(np.array(np.meshgrid(np.arange(4.0), np.arange(3.0))).reshape(2, -1).T)
    line = Grid(np.linspace(-3.0, 6.0, 19))
    vario = Variogram.fractional(1.0, 1.0)
    for seed in range(4):
        field = simulate_smith(sigma, square, DEFAULT_N_POINTS, derive_rng(seed))
        values, draws, _ = general_reference(
            dist, kappa, square, DEFAULT_N_POINTS, derive_rng(seed)
        )
        assert np.allclose(field.values, values, rtol=1e-13, atol=0.0)
        assert field.provenance["spectral_draws"] == draws
        field = simulate_brown_resnick(vario, line, DEFAULT_N_POINTS, derive_rng(seed))
        values, draws, _ = brown_resnick_reference(vario, line, DEFAULT_N_POINTS, derive_rng(seed))
        assert np.allclose(field.values, values, rtol=1e-13, atol=0.0)
        assert field.provenance["spectral_draws"] == draws


# replicates on both sides of block edges
ENSEMBLE_INDICES = [0, 1, 62, 63, 64, 65, 127, 128, 200]


# (case, _ARRIVALS, _BATCH_CELLS): a one-arrival table makes many slots of a
# block list a location over several passes, the table layers deep, keep
# candidates there and reach list_cap; one cell a batch also makes them wait
# on each other and lists a table deeper than list_cap
ENSEMBLE_LAYOUTS = {
    **{case: (case, simulator._ARRIVALS, simulator._BATCH_CELLS) for case in REFERENCE_CASES},
    **{f"{case}-one-arrival": (case, 1, simulator._BATCH_CELLS) for case in REFERENCE_CASES},
    "smith-201-one-arrival-one-cell": ("smith-201", 1, 1),
}


@pytest.mark.parametrize("layout", ENSEMBLE_LAYOUTS)
def test_ensemble_equals_the_textbook_loop_in_the_block_layout(monkeypatch, layout):
    # d = 1: bit for bit, with the reference's draws and rejections
    case, arrivals, cells = ENSEMBLE_LAYOUTS[layout]
    monkeypatch.setattr(simulator, "_ARRIVALS", arrivals)
    monkeypatch.setattr(simulator, "_BATCH_CELLS", cells)
    dist, kappa, grid = REFERENCE_CASES[case]
    law = simulator.prepare_general(dist, kappa, grid, DEFAULT_N_POINTS)
    values, record = law.simulate_many(17, ENSEMBLE_INDICES)
    for r, k in enumerate(ENSEMBLE_INDICES):
        want, draws, kept = general_block_reference(dist, kappa, grid, DEFAULT_N_POINTS, 17, k)
        assert np.array_equal(values[r], want)
        assert record["spectral_draws"][r] == draws
        assert record["rejections"][r] == draws - kept


def test_two_dimensional_and_brown_resnick_ensembles_agree_with_the_textbook_loop():
    # rows of many replicates are multiplied at once: equal up to round-off
    sigma = [[1.0, 0.3], [0.3, 2.0]]
    dist, kappa = simulator._smith_law(sigma)
    square = Grid(np.array(np.meshgrid(np.arange(4.0), np.arange(3.0))).reshape(2, -1).T)
    line = Grid(np.linspace(-3.0, 6.0, 19))
    vario = Variogram.fractional(1.0, 1.0)
    smith, _ = prepare_smith(sigma, square, DEFAULT_N_POINTS).simulate_many(5, ENSEMBLE_INDICES)
    br, record = prepare_brown_resnick(vario, line, DEFAULT_N_POINTS).simulate_many(5, ENSEMBLE_INDICES)
    for r, k in enumerate(ENSEMBLE_INDICES):
        want, _, _ = general_block_reference(dist, kappa, square, DEFAULT_N_POINTS, 5, k)
        assert np.allclose(smith[r], want, rtol=1e-13, atol=0.0)
        want, draws, _ = brown_resnick_block_reference(vario, line, DEFAULT_N_POINTS, 5, k)
        assert np.allclose(br[r], want, rtol=1e-13, atol=0.0)
        assert record["spectral_draws"][r] == draws


def test_ensemble_record():
    law = prepare_smith([[1.0]], Grid([0.0, 1.0]), 5000)
    values, record = law.simulate_many(42, range(3, 8))
    assert values.shape == (5, 2)
    assert record["seed"] == 42 and record["n_points"] == 5000
    assert record["construction"] == "smith"
    assert record["replicate_block"] == simulator._REPLICATE_BLOCK
    draws, rejections, full = record["spectral_draws"], record["rejections"], record["full_scores"]
    assert draws.shape == rejections.shape == full.shape == (5,)
    assert np.all(draws >= 1) and np.all((0 <= rejections) & (rejections < draws))
    # the candidates kept are scored in full, and no candidate twice
    assert np.all((draws - rejections <= full) & (full <= draws))


def test_ensemble_n_points_guard_and_overflow():
    grid = Grid([0.0, 2.0, 5.0, 8.0])
    with pytest.raises(ValueError, match="needs more than n_points = 1 spectral draws"):
        prepare_smith([[1.0]], grid, 1).simulate_many(1, range(100))
    dist, _ = unit_smith_dist()
    kappa = ShapeFunction.quadratic([0.0], [[1.0]], c0=-800.0)
    with pytest.raises(ValueError, match="overflow"):
        simulator.prepare_general(dist, kappa, Grid([0.0, 1.0]), 10).simulate_many(1, [0])


MULTI_SLOT_N_POINTS_LAWS = {
    "exp": (REFERENCE_CASES["exp"][2],
            lambda n: prepare_general(*REFERENCE_CASES["exp"], n),
            lambda n, seed, k: general_block_reference(*REFERENCE_CASES["exp"], n, seed, k)),
    "brown-resnick": (BR_LINE, lambda n: prepare_brown_resnick(BR_VARIO, BR_LINE, n),
                      lambda n, seed, k: brown_resnick_block_reference(BR_VARIO, BR_LINE, n, seed, k)),
}


@pytest.mark.parametrize("arrivals", [simulator._ARRIVALS, 1])
@pytest.mark.parametrize("law", MULTI_SLOT_N_POINTS_LAWS)
def test_ensemble_n_points_guard_on_multi_slot_blocks(monkeypatch, law, arrivals):
    # replicates 0-69 fill one block and start the next: an ensemble raises
    # iff some replicate's textbook loop does, naming a location and point
    # where one does; else its rows, draws and rejections are theirs
    monkeypatch.setattr(simulator, "_ARRIVALS", arrivals)
    grid, prepare, reference = MULTI_SLOT_N_POINTS_LAWS[law]
    outcomes = []
    for n_points in (2, 3, 6, 10, 40):
        prepared = prepare(n_points)
        for seed in (29, 30):
            wants, failed = [], {}
            for k in range(70):
                try:
                    wants.append(reference(n_points, seed, k))
                except ValueError as exc:
                    failed[int(re.match(r"location (\d+) ", str(exc))[1])] = str(exc)
            outcomes.append(bool(failed))
            if failed:
                with pytest.raises(ValueError) as info:
                    prepared.simulate_many(seed, range(70))
                j = int(re.match(r"grid location (\d+) ", str(info.value))[1])
                assert str(info.value) == f"grid {failed[j]} spectral draws (t = {grid.locations[j].tolist()})"
                continue
            values, record = prepared.simulate_many(seed, range(70))
            for k, (want, draws, kept) in enumerate(wants):
                assert np.array_equal(values[k], want)
                assert record["spectral_draws"][k] == draws
                assert record["rejections"][k] == draws - kept
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("indices", [[], range(0), [-1], [0.5], [[0, 1]]])
def test_ensemble_rejects_bad_indices(indices):
    with pytest.raises(ValueError):
        prepare_smith([[1.0]], Grid([0.0, 1.0]), 100).simulate_many(1, indices)


# ---------------------------------------------------------------------------
# product lattices: the screen's witnesses one row back


def mesh(indexing, *axes):
    return np.column_stack([a.ravel() for a in np.meshgrid(*axes, indexing=indexing)])


# (points, Sigma, the witness offsets): parse_grid's order (first axis
# slowest), numpy meshgrid's 'xy' order and a 3-D lattice
LATTICES = {
    "parse-order-12x12": (mesh("ij", 0.2 * np.arange(12), 0.2 * np.arange(12)), np.eye(2), (12,)),
    "xy-9x7": (mesh("xy", 0.25 * np.arange(9), 0.3 * np.arange(7) - 1.0), [[1.0, 0.3], [0.3, 2.0]], (9,)),
    "6x5x4": (mesh("ij", 0.4 * np.arange(6), 0.3 * np.arange(5), 0.5 * np.arange(4)), np.eye(3), (4, 20)),
}


def prepared_with_witnesses(prepare, offsets):
    """The law ``prepare()`` makes, its screen's witness offsets replaced by
    ``offsets`` (its own if None)."""
    with pytest.MonkeyPatch.context() as patch:
        if offsets is not None:
            patch.setattr(simulator, "_witnesses", lambda grid: tuple(offsets))
        return prepare()


@pytest.mark.parametrize("case", LATTICES)
def test_the_lattice_witnesses_change_no_field_and_score_fewer_rows(case):
    # any earlier location is an exact witness: the fields and every
    # decision stay those of the t_{j-1} screen alone, bit for bit
    points, sigma, offsets = LATTICES[case]
    grid = Grid(points)
    assert simulator._witnesses(grid) == offsets
    laws = [prepared_with_witnesses(lambda: prepare_smith(sigma, grid, DEFAULT_N_POINTS), w) for w in (None, ())]
    (witnessed, counts), (alone, counts_alone) = map(fields_and_counts, laws)
    for one, other in zip(witnessed, alone):
        assert np.array_equal(one, other)
    assert np.array_equal(counts["spectral_draws"], counts_alone["spectral_draws"])
    assert np.array_equal(counts["rejections"], counts_alone["rejections"])
    assert np.all(counts["full_scores"] <= counts_alone["full_scores"])
    assert counts["full_scores"].sum() < counts_alone["full_scores"].sum()


def fields_and_counts(law):
    """Five one-field simulations and a 64-slot ensemble of a prepared law:
    their values, and their per-replicate counts."""
    fields = [law.simulate(derive_rng(seed)) for seed in range(5)]
    values, record = law.simulate_many(17, ENSEMBLE_INDICES)
    counts = {key: np.concatenate([[field.provenance[key] for field in fields], record[key]])
              for key in ("spectral_draws", "rejections", "full_scores")}
    return [field.values for field in fields] + [values], counts


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(["smith", "gamma"]), st.integers(2, 40), st.integers(0, 2**32 - 1), st.data())
def test_any_earlier_location_is_an_exact_witness(law, m, seed, data):
    # arbitrary offsets on grids that are no lattice leave every field as it is
    offsets = data.draw(st.lists(st.integers(1, m - 1), max_size=4))
    points = np.random.default_rng(seed).uniform(-2.0, 0.9, size=(m, 2))
    grid = Grid(points)
    if law == "smith":
        def prepare():
            return prepare_smith([[1.0, 0.3], [0.3, 2.0]], grid, DEFAULT_N_POINTS)
    else:
        def prepare():
            dist = Gamma([2.0, 3.0], [1.0, 1.5])
            return prepare_general(dist, ShapeFunction(dist), grid, DEFAULT_N_POINTS)
    laws = [prepared_with_witnesses(prepare, w) for w in (offsets, ())]
    for k in range(3):
        fields = [law.simulate(derive_rng(seed + k)) for law in laws]
        assert np.array_equal(fields[0].values, fields[1].values)
        assert fields[0].provenance["spectral_draws"] == fields[1].provenance["spectral_draws"]
    values = [law.simulate_many(seed, [0, 1, 63, 64])[0] for law in laws]
    assert np.array_equal(*values)


@pytest.mark.parametrize("case", LATTICES)
def test_the_lattice_record_rebuilds_the_grid_from_its_axes(case):
    points = LATTICES[case][0]
    lattice = Grid(points).lattice
    assert len(lattice) == points.shape[1]
    for column, (values, stride) in zip(points.T, lattice):
        assert np.unique(values).size == values.size
        assert np.array_equal(np.tile(np.repeat(values, stride), len(points) // (values.size * stride)), column)
    # any nesting order of the axes, and an axis of one value
    xy = mesh("xy", np.arange(3.0), np.arange(4.0), np.arange(5.0))
    assert [(values.size, stride) for values, stride in simulator._product_lattice(xy)] == [(3, 5), (4, 15), (5, 1)]
    flat = mesh("ij", np.arange(3.0), np.array([7.0]))
    assert [(values.size, stride) for values, stride in simulator._product_lattice(flat)] == [(3, 1), (1, 3)]
    assert simulator._witnesses(Grid(flat)) == ()


def test_the_lattice_record_is_none_off_a_full_product():
    square = LATTICES["parse-order-12x12"][0]
    rng = np.random.default_rng(3)
    assert Grid(np.linspace(0.0, 1.0, 12)).lattice is None  # a 1-D grid: no witnesses, one-format CSV
    assert simulator._product_lattice(rng.uniform(size=(144, 2))) is None
    assert simulator._product_lattice(rng.permutation(square)) is None
    for missing in (0, 50, 143):
        assert simulator._product_lattice(np.delete(square, missing, axis=0)) is None
    # a staircase whose columns repeat, and an axis holding both -0.0 and 0.0
    assert simulator._product_lattice(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0]])) is None
    assert simulator._product_lattice(np.array([[-0.0, 0.0], [-0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])) is None
    assert Grid(rng.permutation(square)).lattice is None and simulator._witnesses(Grid(square[:-1])) == ()


MMM_ENSEMBLE_INDICES = [4, 0, 130, 63, 64, 9]


@pytest.mark.parametrize("sigma, grid", [
    ([[1.0]], Grid(np.linspace(-5.0, 5.0, 21))),
    ([[1.0, 0.6], [0.6, 0.5]], Grid([[0.0, 0.0], [0.5, 0.5], [3.0, -2.0]])),
], ids=["1d", "2d"])
def test_moving_maxima_ensemble_is_its_block_reference(sigma, grid):
    # bit for bit, storm counts too: a row is its replicate's slot of its
    # block stream, whatever else is asked for
    law = prepare_moving_maxima(sigma, grid)
    values, record = law.simulate_many(23, MMM_ENSEMBLE_INDICES)
    # some replicate carries Gamma from one step to the next
    assert record["n_points"].max() > simulator._STORM_STEP
    for r, k in enumerate(MMM_ENSEMBLE_INDICES):
        log_z, storms = moving_maxima_block_reference(sigma, grid, 23, k)
        assert np.array_equal(values[r], np.exp(log_z))
        assert record["n_points"][r] == storms
    assert record["seed"] == 23 and record["construction"] == "mmm"
    assert record["replicate_block"] == simulator._REPLICATE_BLOCK
    # one field is the one replicate of a one-slot block on its own generator
    field = law.simulate(derive_rng(23))
    log_z, storms = moving_maxima_reference(sigma, grid, derive_rng(23))
    assert np.array_equal(field.values, np.exp(log_z))
    assert field.provenance["n_points"] == storms


def test_moving_maxima_ensemble_does_not_depend_on_the_slice_size(monkeypatch):
    grid = Grid(np.linspace(-2.0, 3.0, 11))
    law = prepare_moving_maxima([[2.0]], grid)
    values, record = law.simulate_many(31, range(150))
    # one replicate scored at a time
    monkeypatch.setattr(simulator, "_BATCH_CELLS", 1)
    one, one_record = law.simulate_many(31, range(150))
    assert np.array_equal(one, values)
    assert np.array_equal(one_record["n_points"], record["n_points"])


def test_moving_maxima_ensemble_guard_is_per_replicate(monkeypatch):
    law = prepare_moving_maxima([[1.0]], Grid([0.0, 1.0]))
    _, record = law.simulate_many(5, range(100))
    one_step = np.flatnonzero(record["n_points"] == simulator._STORM_STEP)
    assert 0 < one_step.size < 100
    monkeypatch.setattr(simulator, "_MAX_STORMS", simulator._STORM_STEP)
    with pytest.raises(ValueError, match="stopping rule not reached"):
        law.simulate_many(5, range(100))
    # the replicates that stop after one step do not reach the guard
    law.simulate_many(5, one_step)


def test_output_does_not_depend_on_block_sizes(monkeypatch):
    dist, kappa = unit_smith_dist()
    grid = Grid(np.linspace(-5.0, 5.0, 41))
    base = simulate_general(dist, kappa, grid, DEFAULT_N_POINTS, derive_rng(3)).values
    # _BATCH_CELLS bounds the batches and, through a block's share, the read-ahead
    for cells in [1, 50, 1 << 20]:
        monkeypatch.setattr(simulator, "_BATCH_CELLS", cells)
        field = simulate_general(dist, kappa, grid, DEFAULT_N_POINTS, derive_rng(3))
        assert np.array_equal(field.values, base)


def test_engine_is_one_max_with_kappa_subtracted_once():
    # kappa only shifts the field once, by phi - kappa, after the engine:
    # the draws are those of kappa = phi
    dist, phi = unit_smith_dist()
    kappa = ShapeFunction.quadratic([0.5], [[3.0]], c0=-0.2)
    grid = Grid(np.linspace(-2.0, 2.0, 9))
    for seed in range(4):
        a = simulate_general(dist, phi, grid, DEFAULT_N_POINTS, derive_rng(seed))
        b = simulate_general(dist, kappa, grid, DEFAULT_N_POINTS, derive_rng(seed))
        t = grid.locations
        shift = phi.values(t) - kappa.values(t)
        assert np.allclose(b.values, a.values * np.exp(shift), rtol=1e-14, atol=0.0)
        assert b.provenance["spectral_draws"] == a.provenance["spectral_draws"]


def test_smith_is_general_with_gaussian_and_quadratic():
    grid = Grid([0.0, 0.7, 1.0])
    dist, kappa = unit_smith_dist()
    a = simulate_smith([[1.0]], grid, 1000, derive_rng(9))
    b = simulate_general(dist, kappa, grid, 1000, derive_rng(9))
    assert np.array_equal(a.values, b.values)
    assert a.provenance["construction"] == "smith"


def test_simulate_general_validates_inputs(rng):
    dist, kappa = unit_smith_dist()
    grid = Grid([0.0, 1.0])
    with pytest.raises(ValueError):
        simulate_general(dist, kappa, grid, 0, rng)
    with pytest.raises(DomainError):
        simulate_general(Exponential(1.0), ShapeFunction(Exponential(1.0)),
                         Grid([0.0, 1.5]), 10, rng)


def test_n_points_bounds_the_draws_at_one_location():
    # with this seed the second location draws two candidates: one rejected
    seed = seed_rejecting_once_at_location_1()
    grid = Grid([0.0, 1.0])
    with pytest.raises(ValueError, match="n_points = 1"):
        simulate_smith([[1.0]], grid, 1, derive_rng(seed))
    field = simulate_smith([[1.0]], grid, 2, derive_rng(seed))
    assert field.provenance["spectral_draws"] == 3 and field.provenance["rejections"] == 1
    assert np.array_equal(field.values, simulate_smith([[1.0]], grid, 10_000, derive_rng(seed)).values)


def test_overflowing_contribution_raises(rng):
    # kappa = phi - 800 scales the field by e^800, beyond the double range
    dist, _ = unit_smith_dist()
    kappa = ShapeFunction.quadratic([0.0], [[1.0]], c0=-800.0)
    with pytest.raises(ValueError, match="overflow"):
        simulate_general(dist, kappa, Grid([0.0, 1.0]), 10, rng)


def test_underflowing_field_names_the_underflow():
    # kappa = phi + 800 scales the field by e^-800, below the least subnormal
    dist, _ = unit_smith_dist()
    law = simulator.prepare_general(dist, ShapeFunction.quadratic([0.0], [[1.0]], c0=800.0),
                                    Grid([0.0, 1.0]), 10)
    message = r"general field underflows the double range \(min log value -\d"
    with pytest.raises(ValueError, match=message):
        law.simulate(derive_rng(3))
    with pytest.raises(ValueError, match=message):
        law.simulate_many(3, [0, 1])


def test_provenance_records_run():
    # with seed 12349 the second location draws a candidate
    field = prepare_smith([[1.0]], Grid([0.0, 1.0]), 5000).simulate(derive_rng(12349), seed_record=42)
    prov = field.provenance
    assert prov["seed"] == 42
    assert prov["n_points"] == 5000
    assert prov["spectral_draws"] >= 2 and 0 <= prov["rejections"] < prov["spectral_draws"]
    assert "truncation" not in prov


EXACTNESS_REPLICATES = 4000
GAMMA = Gamma(2.0, 1.0)


@pytest.mark.parametrize(
    "prepare, grid, far, seed",
    [
        (lambda g: prepare_smith([[1.0]], g, DEFAULT_N_POINTS),
         Grid([0.0, 3.0, 4.0, 5.0]), [1, 2, 3], 9101),
        (lambda g: prepare_brown_resnick(Variogram.fractional(1.0, 1.0), g, DEFAULT_N_POINTS),
         Grid([0.0, 5.0]), [1], 9201),
        (lambda g: prepare_general(GAMMA, ShapeFunction(GAMMA), g, DEFAULT_N_POINTS),
         Grid([0.0, 0.9]), [1], 9301),
    ],
    ids=["smith", "brown-resnick", "general-gamma"],
)
def test_marginals_are_frechet_far_from_the_origin(prepare, grid, far, seed):
    # a 10^4-atom cascade gave KS 0.015, 0.149, 0.437 for Smith at t = 3, 4, 5
    # and 0.272 for gamma at t = 0.9 here; Brown-Resnick at t = 5 passed
    values, _ = prepare(grid).simulate_many(seed, range(EXACTNESS_REPLICATES))
    for j in far:
        assert ks_distance(values[:, j], frechet_cdf) < ks_threshold(EXACTNESS_REPLICATES)


# ---------------------------------------------------------------------------
# Brown-Resnick


def test_brown_resnick_runs_and_is_deterministic():
    grid = Grid([0.0, 0.5, 1.0])
    vario = Variogram.fractional(1.0, 1.0)
    a = simulate_brown_resnick(vario, grid, 2000, derive_rng(11))
    b = simulate_brown_resnick(vario, grid, 2000, derive_rng(11))
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values > 0)
    assert a.provenance["construction"] == "brown_resnick"


def test_brown_resnick_origin_is_cascade_max():
    # Z(0) = 0 and gamma(0) = 0 make Y(0) = 1: the origin, visited first, is
    # the first arrival 1/E_1, the largest point of a cascade on that stream
    grid = Grid([0.0, 1.0])
    rng_u, _ = spawn(derive_rng(13), 2)
    cascade = frechet_cascade(3000, rng_u)
    field = simulate_brown_resnick(Variogram.fractional(1.0, 1.0), grid, 3000, derive_rng(13))
    assert field.values[0] == pytest.approx(cascade.points[0], rel=1e-15)


def test_brown_resnick_quadratic_variogram():
    # gamma(h) = <h, Sigma h> gives G(t) = <X, t>, X ~ N(0, Sigma): Smith's field
    line = Grid(np.linspace(-2.0, 3.0, 11))
    square = Grid(np.array(np.meshgrid(np.arange(3.0), np.arange(2.0))).reshape(2, -1).T)
    cases = [
        (Variogram.quadratic([[1.5]]), [[1.5]], line),
        (Variogram.quadratic([[1.0, 0.3], [0.3, 2.0]]), [[1.0, 0.3], [0.3, 2.0]], square),
        (Variogram.fractional(0.7, 2.0), 0.7 * np.eye(1), line),
        (Variogram.fractional(0.7, 2.0), 0.7 * np.eye(2), square),
    ]
    for seed, (vario, sigma, grid) in enumerate(cases):
        br = simulate_brown_resnick(vario, grid, DEFAULT_N_POINTS, derive_rng(seed))
        smith = simulate_smith(sigma, grid, DEFAULT_N_POINTS, derive_rng(seed))
        assert np.array_equal(br.values, smith.values)
        assert br.provenance["construction"] == "brown_resnick"


def test_fractional_brown_resnick_never_eigendecomposes(monkeypatch):
    # off a lattice, the grid's origin has G(0) = 0 and a zero factor row;
    # the other locations are positive definite and take a Cholesky factor
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    grid = Grid(np.linspace(-5.0, 5.0, 101) ** 3 / 25.0)
    field = simulate_brown_resnick(Variogram.fractional(1.0, 0.5), grid, DEFAULT_N_POINTS, derive_rng(4))
    assert field.values.shape == (101,)
    assert field.provenance["increments"] == "cholesky"


BR_SQUARE = Grid(np.array(np.meshgrid(np.arange(4.0), np.arange(3.0))).reshape(2, -1).T)
# grid -> the kind of increments prepare_brown_resnick takes on it
BR_PATHS = {
    "lattice": (Grid(np.linspace(-3.0, 6.0, 19)), "circulant"),
    "lattice-descending": (Grid(np.linspace(4.0, -4.0, 33)), "circulant"),
    "lattice-of-3": (Grid([1.0, 1.5, 2.0]), "circulant"),
    "irregular": (Grid([0.0, 1.3, -0.4, 2.0, 5.0, -3.0, 0.9, 0.95]), "cholesky"),
    "lattice-off-by-1e-6": (Grid(np.linspace(-3.0, 6.0, 19) + 1e-6 * (np.arange(19) == 7)), "cholesky"),
    "two-points": (Grid([0.0, 5.0]), "cholesky"),
    "square": (BR_SQUARE, "cholesky"),
}


@pytest.mark.parametrize("case", BR_PATHS)
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_brown_resnick_takes_the_circulant_embedding_on_1d_lattices_only(case, alpha):
    grid, kind = BR_PATHS[case]
    if alpha == 1.0 and grid.dim == 1:
        kind = "brownian"  # independent steps on any 1-D grid
    law = prepare_brown_resnick(Variogram.fractional(1.0, alpha), grid, DEFAULT_N_POINTS)
    assert law.provenance["increments"] == kind
    _, record = law.simulate_many(1, [0, 1])
    assert record["increments"] == kind


def test_a_lattice_whose_embedding_is_negative_takes_the_cholesky_factor(monkeypatch):
    # a tolerance below -1 takes every embedding as negative beyond round-off
    monkeypatch.setattr(simulator, "_EMBED_TOL", -2.0)
    grid, _ = BR_PATHS["lattice"]
    law = prepare_brown_resnick(BR_VARIO, grid, DEFAULT_N_POINTS)
    assert law.provenance["increments"] == "cholesky"
    field = law.simulate(derive_rng(2))
    want, draws, _ = brown_resnick_reference(BR_VARIO, grid, DEFAULT_N_POINTS, derive_rng(2))
    assert np.allclose(field.values, want, rtol=1e-13, atol=0.0)
    assert field.provenance["spectral_draws"] == draws


def test_a_lattice_whose_embedding_overflows_takes_the_cholesky_factor(capsys):
    # gamma(8) = 8.8e307 fits on the grid, but the embedding's padding lag
    # gamma(9) = 9.3e307 passes half the double range and its spectrum
    # overflows: the Cholesky factor reads only the grid's lags
    vario = Variogram.fractional(3.1e307, 0.5)
    grid = Grid(np.arange(9.0))
    law = prepare_brown_resnick(vario, grid, DEFAULT_N_POINTS)
    assert law.provenance["increments"] == "cholesky"
    field = law.simulate(derive_rng(2))
    want, draws, _ = brown_resnick_reference(vario, grid, DEFAULT_N_POINTS, derive_rng(2))
    assert np.allclose(field.values, want, rtol=1e-13, atol=0.0)
    assert field.provenance["spectral_draws"] == draws
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--construction", "br", "--variogram", "fractional:alpha=0.5;scale=3.1e307",
                     "--grid", "0:1:9", "--seed", "1"]) == 0
    values = [float(row.split(",")[1]) for row in capsys.readouterr().out.splitlines() if not row.startswith("#")]
    assert len(values) == 9 and all(np.isfinite(v) and v > 0 for v in values)


@pytest.mark.parametrize("case", BR_PATHS)
@pytest.mark.parametrize("alpha", [BR_VARIO.alpha, 1.0])
def test_brown_resnick_engine_equals_the_textbook_loop(case, alpha):
    # the lattice's FFT paths, the Brownian running sums and elementwise
    # conditioning give every row bit for bit; the Cholesky path's GEMM
    # agrees to round-off
    grid, _ = BR_PATHS[case]
    vario = Variogram.fractional(1.0, alpha)
    law = prepare_brown_resnick(vario, grid, DEFAULT_N_POINTS)

    def agree(got, want):
        if law.provenance["increments"] in ("brownian", "circulant"):
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    for seed in range(4):
        field = law.simulate(derive_rng(seed))
        want, draws, kept = brown_resnick_reference(vario, grid, DEFAULT_N_POINTS, derive_rng(seed))
        agree(field.values, want)
        assert field.provenance["spectral_draws"] == draws
        assert field.provenance["rejections"] == draws - kept
    values, record = law.simulate_many(5, ENSEMBLE_INDICES)
    for r, k in enumerate(ENSEMBLE_INDICES):
        want, draws, kept = brown_resnick_block_reference(vario, grid, DEFAULT_N_POINTS, 5, k)
        agree(values[r], want)
        assert record["spectral_draws"][r] == draws
        assert record["rejections"][r] == draws - kept


@pytest.mark.parametrize("arrivals, cells", [(1, 1 << 15), (8, 1), (1, 50)])
def test_brown_resnick_does_not_depend_on_read_ahead_or_batch_sizes(monkeypatch, arrivals, cells):
    # small batches make an ensemble's replicates wait on each other's row
    # and completion cursors, and a one-arrival table makes locations read
    # on after it: still the textbook loop's fields, bit for bit; _BATCH_CELLS
    # also sets how far the dealt streams read ahead
    monkeypatch.setattr(simulator, "_ARRIVALS", arrivals)
    monkeypatch.setattr(simulator, "_BATCH_CELLS", cells)
    grid, _ = BR_PATHS["lattice"]
    law = prepare_brown_resnick(BR_VARIO, grid, DEFAULT_N_POINTS)
    for seed in range(3):
        want, draws, _ = brown_resnick_reference(BR_VARIO, grid, DEFAULT_N_POINTS, derive_rng(seed))
        field = law.simulate(derive_rng(seed))
        assert np.array_equal(field.values, want)
        assert field.provenance["spectral_draws"] == draws
    values, record = law.simulate_many(5, ENSEMBLE_INDICES)
    for r, k in enumerate(ENSEMBLE_INDICES):
        want, draws, _ = brown_resnick_block_reference(BR_VARIO, grid, DEFAULT_N_POINTS, 5, k)
        assert np.array_equal(values[r], want)
        assert record["spectral_draws"][r] == draws


@pytest.mark.parametrize("origin", [[0.0], [[0.0, 0.0]]], ids=["1-d", "2-d"])
def test_brown_resnick_on_the_origin_alone_equals_the_textbook_loop(origin):
    # no location moves, so the completion rows have no entries
    grid = Grid(origin)
    law = prepare_brown_resnick(BR_VARIO, grid, DEFAULT_N_POINTS)
    for seed in range(3):
        want, draws, _ = brown_resnick_reference(BR_VARIO, grid, DEFAULT_N_POINTS, derive_rng(seed))
        field = law.simulate(derive_rng(seed))
        assert np.array_equal(field.values, want)
        assert field.provenance["spectral_draws"] == draws == 1
    values, _ = law.simulate_many(5, ENSEMBLE_INDICES)
    for r, k in enumerate(ENSEMBLE_INDICES):
        want, _, _ = brown_resnick_block_reference(BR_VARIO, grid, DEFAULT_N_POINTS, 5, k)
        assert np.array_equal(values[r], want)


# dyadic grids off a lattice: a shift by 2^40 keeps every difference exact
BR_DYADIC = {"1-d": (np.array([0.0, 0.25, 0.75, 1.5, 2.0])[:, None], [2.0**40]),
             "2-d": (np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 1.0], [1.5, 0.75], [2.0, 2.0]]),
                     [2.0**40, -(2.0**40)])}


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
@pytest.mark.parametrize("case", BR_DYADIC)
def test_brown_resnick_off_a_lattice_is_the_same_on_an_exact_translate(case, alpha):
    # the field is stationary, and its Cholesky and Brownian paths read only
    # differences of locations: a grid and its translate give the same
    # fields bit for bit
    pts, shift = BR_DYADIC[case]
    vario = Variogram.fractional(1.0, alpha)
    grid, moved = Grid(pts), Grid(pts + shift)
    tables = [simulator._gamma_table(vario, g, simulator._lattice_step(g)) for g in (grid, moved)]
    assert np.array_equal(*tables)
    law, moved_law = (prepare_brown_resnick(vario, g, DEFAULT_N_POINTS) for g in (grid, moved))
    assert moved_law.provenance["increments"] == ("brownian" if alpha == 1.0 and case == "1-d" else "cholesky")
    for seed in range(10):
        assert np.array_equal(moved_law.simulate(derive_rng(seed)).values, law.simulate(derive_rng(seed)).values)


@pytest.mark.parametrize("case", BR_PATHS)
@pytest.mark.parametrize("alpha", [0.8, 1.0])
def test_brown_resnick_screen_is_the_scored_entry_and_log_y_vanishes_at_t_j(case, alpha):
    # the screen at t_{j-1} must be the scored row's entry bit for bit, or
    # it could reject a candidate the row keeps; log Y(t_j) = 0 exactly
    grid, kind = BR_PATHS[case]
    sampler, got_kind = simulator._brown_resnick_sampler(Variogram.fractional(1.3, alpha), grid)
    assert got_kind == ("brownian" if alpha == 1.0 and grid.dim == 1 else kind)
    rng = np.random.default_rng(11)
    js = np.repeat(np.arange(1, grid.size), 5)
    n = np.arange(js.size)
    rows, paths = sampler.draw(js.size, rng), sampler.complete(js.size, rng)
    log_y = sampler.log_y(rows, js, paths)
    assert np.array_equal(log_y[n, js - 1], sampler.screen(rows, js))
    assert np.all(log_y[n, js] == 0.0)
    # t_0's first candidate has no screen
    first = sampler.log_y(rows[:4], np.zeros(4, np.int64), paths[:4])
    assert np.all(first[:, 0] == 0.0)
    if got_kind in ("brownian", "circulant"):
        # a row does not depend on the rows scored with it
        for i in (0, 3, js.size - 1):
            assert np.array_equal(sampler.log_y(rows[i:i + 1], js[i:i + 1], paths[i:i + 1])[0], log_y[i])


@pytest.mark.parametrize("m, width", [(3, 2), (19, 36), (41, 80), (201, 400), (501, 1000)])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
def test_the_padded_embedding_gives_the_lattices_path_covariance(m, width, alpha):
    # the embedding is of the least longer lattice whose FFT size is
    # 5-smooth; the first m points of its paths are G - G(t_0) exactly in law
    vario = Variogram.fractional(1.3, alpha)
    h = 10.0 / (m - 1)
    gamma = simulator._gamma_table(vario, Grid(h * np.arange(m)), h)
    inc = simulator._circulant_increments(vario, gamma, h)
    assert inc.kind == "circulant" and inc.width == width
    paths = inc.paths(np.eye(width))  # row k: the path of the k-th normal alone
    lag = vario(h * np.arange(m)[:, None])
    i = np.arange(m)
    want = 0.5 * (lag[i][:, None] + lag[i][None, :] - lag[np.abs(i[:, None] - i[None, :])])
    assert np.allclose(paths.T @ paths, want, rtol=0.0, atol=1e-9 * lag.max())
    assert np.array_equal(gamma, lag[np.abs(i[:, None] - i[None, :])])


def test_five_smooth_is_the_least_2_3_5_number_at_or_above_n():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for n in range(1, 3000):
        want = next(k for k in range(n, 2 * n + 1) if smooth(k))
        assert simulator._five_smooth(n) == want


@pytest.mark.parametrize("alpha, kind", [(0.5, "circulant"), (1.0, "brownian")])
def test_lattice_brown_resnick_prepare_builds_nothing_m_by_m(monkeypatch, alpha, kind):
    # an m-entry lag table and an FFT or m - 1 independent steps: no
    # Cholesky factor, no pairwise table
    def no_factor(*args, **kwargs):
        raise AssertionError("psd_factor called")

    monkeypatch.setattr(simulator, "psd_factor", no_factor)
    m = 2001
    grid = Grid(np.linspace(-10.0, 10.0, m))
    tracemalloc.start()
    try:
        law = prepare_brown_resnick(Variogram.fractional(1.0, alpha), grid, DEFAULT_N_POINTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert law.provenance["increments"] == kind
    assert peak < m * m * 8 / 20


def test_the_read_ahead_waits_bound_an_ensembles_memory():
    # a replicate that runs ahead of the block's slowest waits, so the dealt
    # buffers keep a few block shares of rows: the peak is about 34 MiB here,
    # close under the bound, and about 57 MiB if no replicate ever waits
    law = prepare_brown_resnick(Variogram.fractional(1.0, 0.5), Grid(np.linspace(-5.0, 5.0, 201)),
                                DEFAULT_N_POINTS)
    tracemalloc.start()
    try:
        law.simulate_many(9001, range(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2**20


def norm_br_cov_factor(variogram, grid):
    """The factor and pairwise table from variogram() on the m x m x d
    differences and a fresh covariance matrix of G - G(t_0) at t_1 ... t_{m-1}."""
    pts = grid.locations
    g = variogram(pts[1:] - pts[0])
    pairwise = variogram(pts[:, None, :] - pts[None, :, :])
    cov = 0.5 * (g[:, None] + g[None, :] - pairwise[1:, 1:])
    factor = np.zeros((grid.size, grid.size - 1))
    factor[1:] = psd_factor(cov, rel_tol=1e-8)
    return factor, pairwise


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("origin", [False, True])
def test_br_cov_factor_equals_the_norm_expression(d, alpha, origin):
    pts = np.random.default_rng(d).uniform(-3.0, 3.0, size=(30, d))
    if origin:
        pts[4] = 0.0
    grid = Grid(pts)
    vario = Variogram.fractional(1.7, alpha)
    pairwise = simulator._gamma_table(vario, grid, simulator._lattice_step(grid))
    factor = simulator._br_cov_factor(pairwise)
    want_factor, want_pairwise = norm_br_cov_factor(vario, grid)
    assert np.array_equal(pairwise, want_pairwise)
    assert np.array_equal(factor, want_factor)
    # G - G(t_0) is 0 at t_0 alone, wherever the origin lies
    assert np.flatnonzero(~factor.any(axis=1)).tolist() == [0]


# ---------------------------------------------------------------------------
# the scan's stages, pass by pass, against the textbook loop's decisions


def gaussian_stage_law():
    dist, kappa, grid = REFERENCE_CASES["gaussian"]
    return (prepare_general(dist, kappa, grid, DEFAULT_N_POINTS),
            lambda rng, width, slot, trace: general_reference(dist, kappa, grid, DEFAULT_N_POINTS, rng,
                                                              width, slot, trace))


def brown_resnick_stage_law():
    grid, _ = BR_PATHS["lattice"]
    return (prepare_brown_resnick(BR_VARIO, grid, DEFAULT_N_POINTS),
            lambda rng, width, slot, trace: brown_resnick_reference(BR_VARIO, grid, DEFAULT_N_POINTS, rng,
                                                                    width, slot, trace))


STAGE_LAWS = {"gaussian": gaussian_stage_law, "brown-resnick": brown_resnick_stage_law}
# a one-slot block per seed, and replicates on both sides of a block edge
STAGE_LAYOUTS = {"one-slot": [(seed, [0], 1) for seed in range(3)],
                 "multi-slot": [(17, [0, 1, 5, 63, 64], simulator._REPLICATE_BLOCK)]}


def stage_passes(monkeypatch, law, reference, seed, indices, width):
    """Every pass of the scan of a prepared law on a block layout, stage by
    stage, and each replicate's textbook trace.  A pass records the running
    record before it, the candidate table, the survivors, each replicate's
    first kept survivor, log Z after the score and the counts after it."""
    stream = (lambda block: derive_rng(seed)) if width == 1 else (lambda block: block_rng(seed, block))
    taken = []

    def take(m, sampler, n_points, blocks):
        taken.extend([m, sampler, n_points])
        return 0.0, {}

    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_extremal_log_fields", take)
        law.scan(None)
    scan = simulator._Scan(*taken, simulator._Blocks(indices, stream, width))
    passes = []
    while scan.run.ids.size:
        before = simulator._Running(*(a.copy() for a in scan.run))
        cand, ahead, over = scan.list()
        survivors, x = scan.screen(cand)
        found = scan.score(survivors, x)
        log_z = scan.log_z.copy()
        scan.advance(ahead, over, survivors, found)
        passes.append(SimpleNamespace(before=before, cand=cand, survivors=survivors, found=found, log_z=log_z,
                                      after=scan.run, draws=scan.draws.copy(), rejections=scan.rejections.copy()))
    traces = []
    for k in indices:
        traces.append([])
        block, slot = divmod(k, width)
        reference(derive_rng(seed) if width == 1 else block_rng(seed, block), width, slot, traces[-1])
    return passes, traces


def stage_cases(monkeypatch, law, layout, arrivals):
    """(pass, q, listed, records, trace) for every pass and running
    replicate q of it: q's candidates in the table up to the textbook
    loop's first kept one, the loop's records of them, and all of q's
    records."""
    monkeypatch.setattr(simulator, "_ARRIVALS", arrivals)
    prepared, reference = STAGE_LAWS[law]()
    resumed = 0
    for seed, indices, width in STAGE_LAYOUTS[layout]:
        passes, traces = stage_passes(monkeypatch, prepared, reference, seed, indices, width)
        for p in passes:
            resumed += int(np.count_nonzero(p.before.at_loc))
            for q, r in enumerate(p.before.ids):
                mine = np.flatnonzero(p.cand.rep == q)
                records = traces[r][p.before.next_row[q]:p.before.next_row[q] + mine.size]
                ends = [i + 1 for i, record in enumerate(records) if record["kept"]]
                n = ends[0] if ends else mine.size
                yield p, q, mine[:n], records[:n], traces[r]
    # a one-arrival table makes replicates list a location over several passes
    assert resumed > 0 or arrivals > 1


@pytest.mark.parametrize("arrivals", [simulator._ARRIVALS, 1])
@pytest.mark.parametrize("layout", STAGE_LAYOUTS)
@pytest.mark.parametrize("law", STAGE_LAWS)
def test_list_stage_lists_the_textbook_loops_candidates(monkeypatch, law, layout, arrivals):
    # up to its first kept candidate a replicate's run of the table is the
    # loop's next candidates: same location, log zeta and base row
    for p, q, listed, records, _ in stage_cases(monkeypatch, law, layout, arrivals):
        assert np.all(np.diff(p.cand.rep) >= 0)
        assert len(records) == listed.size
        assert p.cand.row[listed].tolist() == [record["row"] for record in records]
        assert p.cand.loc[listed].tolist() == [record["j"] for record in records]
        assert p.cand.log_zeta[listed].tolist() == [record["log_zeta"] for record in records]


@pytest.mark.parametrize("arrivals", [simulator._ARRIVALS, 1])
@pytest.mark.parametrize("layout", STAGE_LAYOUTS)
@pytest.mark.parametrize("law", STAGE_LAWS)
def test_screen_stage_rejects_what_reaches_z_at_the_previous_location(monkeypatch, law, layout, arrivals):
    # a survivor is a candidate that stays below Z(t_{j-1}); a Brown-Resnick
    # survivor reads the completion row the loop reads for it
    for p, q, listed, records, _ in stage_cases(monkeypatch, law, layout, arrivals):
        mine = p.survivors.rep == q
        survived = np.isin(p.cand.row[listed], p.survivors.row[mine])
        assert survived.tolist() == [not record["screened"] for record in records]
        if law == "brown-resnick":
            paths = p.survivors.path[mine][:survived.sum()]
            assert paths.tolist() == [record["path"] for record in records if not record["screened"]]


@pytest.mark.parametrize("arrivals", [simulator._ARRIVALS, 1])
@pytest.mark.parametrize("layout", STAGE_LAYOUTS)
@pytest.mark.parametrize("law", STAGE_LAWS)
def test_score_stage_keeps_the_textbook_loops_candidate(monkeypatch, law, layout, arrivals):
    # the first survivor the loop keeps, and log Z after it, bit for bit
    for p, q, _, records, _ in stage_cases(monkeypatch, law, layout, arrivals):
        kept = [record for record in records if record["kept"]]
        if kept:
            assert p.survivors.row[p.found[q]] == kept[0]["row"]
            assert np.array_equal(p.log_z[p.before.ids[q]], kept[0]["log_z"])
        else:
            assert p.found[q] == -1


@pytest.mark.parametrize("arrivals", [simulator._ARRIVALS, 1])
@pytest.mark.parametrize("layout", STAGE_LAYOUTS)
@pytest.mark.parametrize("law", STAGE_LAWS)
def test_advance_stage_moves_the_cursors_where_the_textbook_loop_goes_on(monkeypatch, law, layout, arrivals):
    # past the kept candidate, or past the window if none is kept: the loop's
    # candidates so far come before t_j, except the at_loc at t_j itself
    for p, q, _, records, trace in stage_cases(monkeypatch, law, layout, arrivals):
        r = p.before.ids[q]
        decided = p.before.next_row[q] + len(records)
        assert p.draws[r] == decided
        assert p.rejections[r] == sum(not record["kept"] for record in trace[:decided])
        if r not in p.after.ids:
            assert decided == len(trace)
            continue
        a = p.after.ids.tolist().index(r)
        loc = p.after.loc[a]
        assert p.after.next_row[a] == decided
        assert all(record["j"] <= loc for record in trace[:decided])
        assert sum(record["j"] == loc for record in trace[:decided]) == p.after.at_loc[a]
        assert all(record["j"] >= loc for record in trace[decided:])
        if law == "brown-resnick":
            assert p.after.next_path[a] == sum(record["path"] is not None for record in trace[:decided])


# ---------------------------------------------------------------------------
# one field's scan against the lockstep scan on its one-slot block


def engine_inputs(monkeypatch, law):
    """The grid size, sampler and n_points a prepared engine law scans with."""
    taken = []

    def take(m, sampler, n_points, blocks):
        taken.extend([m, sampler, n_points])
        return 0.0, {}

    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_extremal_log_fields", take)
        law.scan(None)
    return taken


def scan_outcome(scan):
    """log Z and the counts of a scan, or the message of the ValueError it raises."""
    try:
        log_z, counts = scan()
    except ValueError as exc:
        return str(exc)
    return log_z.tobytes(), {key: value.tolist() for key, value in counts.items()}


def one_slot_scan(driver, m, sampler, n_points, seed):
    """log Z and the counts of a scan of the one-slot block on derive_rng(seed), run by ``driver``."""
    scan = simulator._Scan(m, sampler, n_points, simulator._Blocks([0], lambda block: derive_rng(seed), 1))
    driver(scan)
    return scan.log_z, {"spectral_draws": scan.draws, "rejections": scan.rejections, "full_scores": scan.scored}


ONE_SLOT_LAWS = {
    **{case: (lambda case=case: prepare_general(*REFERENCE_CASES[case], DEFAULT_N_POINTS))
       for case in ("gaussian", "exp", "gamma", "uniform", "smith", "smith-201")},
    **{f"smith-{case}": (lambda case=case: prepare_smith(LATTICES[case][1], Grid(LATTICES[case][0]),
                                                          DEFAULT_N_POINTS))
       for case in LATTICES},
    **{f"br-{kind}": (lambda grid=grid, alpha=alpha: prepare_brown_resnick(Variogram.fractional(1.0, alpha), grid,
                                                                           DEFAULT_N_POINTS))
       for kind, grid, alpha in (("brownian", BR_PATHS["irregular"][0], 1.0),
                                 ("circulant", BR_PATHS["lattice"][0], 0.5),
                                 ("cholesky", BR_PATHS["irregular"][0], 1.5),
                                 ("cholesky-2d", BR_SQUARE, 0.5))},
    # the embedding's padding overflows, so the lattice falls back to the Cholesky factor
    "br-padding-overflow": lambda: prepare_brown_resnick(Variogram.fractional(3.1e307, 0.5), Grid(np.arange(9.0)),
                                                         DEFAULT_N_POINTS),
    # fields past n_points
    **{f"gaussian-n-points-{n}": (lambda n=n: prepare_general(*REFERENCE_CASES["gaussian"], n)) for n in (1, 2, 3)},
    **{f"br-n-points-{n}": (lambda n=n: prepare_brown_resnick(BR_VARIO, BR_LINE, n)) for n in (1, 2, 3)},
}


# (_ARRIVALS, _BATCH_CELLS): 64 cells cut a pass's window, list and score
# slices short on every grid above
ONE_SLOT_CAPS = {"default": (simulator._ARRIVALS, simulator._BATCH_CELLS),
                 "one-arrival": (1, simulator._BATCH_CELLS), "one-arrival-64-cells": (1, 64)}


@pytest.mark.parametrize("caps", ONE_SLOT_CAPS)
@pytest.mark.parametrize("law", ONE_SLOT_LAWS)
def test_one_field_scan_is_the_lockstep_scan_on_its_one_slot_block(monkeypatch, law, caps):
    # log Z and every count bit for bit, and the same n_points error
    arrivals, cells = ONE_SLOT_CAPS[caps]
    monkeypatch.setattr(simulator, "_ARRIVALS", arrivals)
    monkeypatch.setattr(simulator, "_BATCH_CELLS", cells)
    m, sampler, n_points = engine_inputs(monkeypatch, ONE_SLOT_LAWS[law]())
    raised = 0
    for seed in range(50):
        one = scan_outcome(lambda: one_slot_scan(simulator._Scan.one_field, m, sampler, n_points, seed))
        lockstep = scan_outcome(lambda: one_slot_scan(simulator._Scan.lockstep, m, sampler, n_points, seed))
        assert one == lockstep
        raised += isinstance(one, str)
    assert (raised > 0) == ("n-points" in law)


# ---------------------------------------------------------------------------
# moving maxima


def test_moving_maxima_single_stub_storm(stub_rng):
    # StubRng puts every storm at the window's midpoint, 0.5 for the box of
    # the grid, with strength |window| / k: the first storm, |window| strong,
    # is the gaussian kernel times |window|, and the _STORM_STEP storms of
    # the first step end the run
    grid = Grid([0.0, 1.0])
    field = simulate_moving_maxima([[1.0]], grid, stub_rng)
    [[lo, hi]] = field.provenance["window"]
    assert (lo + hi) / 2 == pytest.approx(0.5, abs=1e-15)
    c = 1.0 / math.sqrt(2.0 * math.pi)
    for value in field.values:
        assert value == pytest.approx(c * (hi - lo) * math.exp(-1.0 / 8.0), rel=1e-14)
    assert field.provenance["n_points"] == simulator._STORM_STEP


def test_moving_maxima_streaming_run():
    grid = Grid([0.0, 0.5, 1.0])
    a = simulate_moving_maxima([[1.0]], grid, derive_rng(17))
    b = simulate_moving_maxima([[1.0]], grid, derive_rng(17))
    assert np.array_equal(a.values, b.values)
    prov = a.provenance
    assert prov["edge_error_bound"] <= 1.01e-8
    assert prov["buffer_radius"] > 0


def test_moving_maxima_rejects_bad_geometry(rng):
    grid = Grid([0.0, 2.0])
    with pytest.raises(ValueError):
        simulate_moving_maxima([[0.0]], grid, rng)  # singular sigma


def test_moving_maxima_window_is_the_grids_buffered_box(stub_rng):
    # the box is padded by 0.5 along the axis where the grid has no extent
    grid = Grid([[0.0, 2.0], [1.0, 2.0], [3.0, 2.0]])
    field = simulate_moving_maxima(np.eye(2), grid, stub_rng)
    r, _ = moving_maxima_buffer(1.0 / (2.0 * math.pi), 1.0, [[0.0, 3.0], [1.5, 2.5]])
    assert field.provenance["buffer_radius"] == r
    assert field.provenance["window"] == [[0.0 - r, 3.0 + r], [1.5 - r, 2.5 + r]]


def test_moving_maxima_buffer_meets_error_target():
    c = 1.0 / math.sqrt(2.0 * math.pi)
    r, bound = moving_maxima_buffer(c, 1.0, [[0.0, 1.0]])
    vol = 1.0 + 2.0 * r
    assert c * math.exp(-0.5 * r * r) * vol * 1e3 <= 1.01e-8
    assert bound == pytest.approx(1e-8, rel=1e-6)


def test_moving_maxima_with_a_tiny_sigma_reaches_storms_outside_the_box():
    # c * V_max meets the 1e-8 bound at r = 0 when Sigma is tiny; a window of
    # the grid's box alone gave values of about 4e-16 at both points
    law = prepare_moving_maxima([[1e-30]], Grid([0.0, 1.0]))
    assert law.provenance["buffer_radius"] >= math.sqrt(2.0 * math.log(1e8) / 1e-30)
    values, _ = law.simulate_many(1, range(4000))
    for j in range(2):
        assert ks_distance(values[:, j], frechet_cdf) < ks_threshold(4000)


# sha256 of replicates 0-63 of seed 9001: fields whose buffer iteration
# never meets the bound at r = 0 keep every bit of their values (Sigma = 1
# is pinned by the stdout digests)
MOVING_MAXIMA_DIGESTS = {
    "0.1": ([[0.1]], "2049a436c5d3181ea5875b55de43bc0fc89917675a4d05eabe38c5170dc95c1c"),
    "I2": (np.eye(2), "c24aad20c6173f6ab73d56991d4c3155de204bde74c743b1fe33b2305e33a0d2"),
}


@pytest.mark.parametrize("sigma", MOVING_MAXIMA_DIGESTS)
def test_moving_maxima_fields_of_an_ordinary_sigma_keep_their_bits(sigma):
    matrix, digest = MOVING_MAXIMA_DIGESTS[sigma]
    square = Grid(np.array(np.meshgrid(np.arange(4.0), np.arange(3.0))).reshape(2, -1).T)
    grid = Grid(np.linspace(-5.0, 5.0, 101)) if len(matrix) == 1 else square
    values, _ = prepare_moving_maxima(matrix, grid).simulate_many(9001, range(64))
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# n_points is a loop guard, not a truncation


@pytest.mark.parametrize("n", [5, 3000])
@pytest.mark.parametrize(
    "simulate",
    [
        lambda n, rng: simulate_general(
            GAMMA, ShapeFunction(GAMMA), Grid([0.0, 0.5, 0.9, 0.99]), n, rng
        ),
        lambda n, rng: simulate_smith([[1.0]], Grid([0.0, 2.0, 5.0, 8.0]), n, rng),
        lambda n, rng: simulate_brown_resnick(
            Variogram.fractional(1.0, 1.0), Grid([0.0, 5.0, 20.0, 60.0]), n, rng
        ),
    ],
    ids=["general-gamma", "smith", "brown-resnick"],
)
def test_doubling_diagnostic_extends_the_simulated_field(simulate, n):
    # the doubling check a truncated cascade needed, by hand: on grids far
    # from the origin, doubling n_points leaves an exact field as it is.  A
    # field either stays within the bound n and equals the field with 2n,
    # or needs more than n draws at a location and raises.
    for seed in range(4):
        try:
            field = simulate(n, derive_rng(seed))
        except ValueError as exc:
            assert f"n_points = {n}" in str(exc) and n == 5
            continue
        doubled = simulate(2 * n, derive_rng(seed))
        assert np.array_equal(field.values, doubled.values)
        assert field.provenance["spectral_draws"] == doubled.provenance["spectral_draws"]


# ---------------------------------------------------------------------------
# CSV output


def test_field_csv_round_trip(rng):
    field = prepare_smith([[1.0]], Grid([0.0, 1.0]), 1000).simulate(rng, seed_record=3)
    text = field_csv_text(field, extra_header={"note": "x"})
    lines = text.strip().split("\n")
    assert lines[0] == "# construction=smith seed=3 n_points=1000"
    assert lines[1] == "# note=x"
    for j, line in enumerate(lines[2:]):
        t, v = (float(x) for x in line.split(","))
        assert t == field.grid.locations[j, 0]
        assert v == field.values[j]  # 17 significant digits round-trip exactly


def row_by_row_csv_text(field, extra_header=None):
    """field_csv_text with one format operation per grid location."""
    prov = field.provenance
    lines = [f"# construction={prov.get('construction', '?')}"
             f" seed={prov.get('seed') if prov.get('seed') is not None else 'none'}"
             f" n_points={prov.get('n_points', '?')}"]
    for key, value in (extra_header or {}).items():
        lines.append(f"# {key}={value}")
    row = ",".join(["%.17g"] * (field.grid.dim + 1))
    lines.extend(row % tuple(r) for r in np.column_stack([field.grid.locations, field.values]).tolist())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extra_header", [None, {"note": "x", "replicate": 2}])
def test_field_csv_text_equals_the_row_by_row_writer(d, extra_header):
    rng = np.random.default_rng(d)
    grid = Grid(rng.normal(size=(25, d)) * 10.0 ** rng.integers(-3, 150, size=(25, d)))
    values = np.exp(rng.normal(scale=100.0, size=25))
    field = Field(grid, values, {"construction": "general", "seed": None, "n_points": 7})
    assert field_csv_text(field, extra_header) == row_by_row_csv_text(field, extra_header)


def one_format_csv_text(field, extra_header=None):
    """field_csv_text as one format operation over the whole table."""
    prov = field.provenance
    lines = [f"# construction={prov.get('construction', '?')}"
             f" seed={prov.get('seed') if prov.get('seed') is not None else 'none'}"
             f" n_points={prov.get('n_points', '?')}"]
    for key, value in (extra_header or {}).items():
        lines.append(f"# {key}={value}")
    row = ",".join(["%.17g"] * (field.grid.dim + 1)) + "\n"
    table = np.column_stack([field.grid.locations, field.values])
    return "\n".join(lines) + "\n" + (row * field.grid.size) % tuple(table.ravel().tolist())


def digit_axis(rng, n):
    # values that need all 17 digits, from small to huge, and a signed zero
    return np.concatenate([[-0.0], rng.normal(size=n - 1) * 10.0 ** rng.integers(-3, 150, size=n - 1)])


CSV_GRIDS = {
    "parse-order": lambda rng: mesh("ij", digit_axis(rng, 7), digit_axis(rng, 5)),
    "xy": lambda rng: mesh("xy", digit_axis(rng, 6), digit_axis(rng, 4)),
    "3-d": lambda rng: mesh("ij", digit_axis(rng, 3), digit_axis(rng, 4), digit_axis(rng, 5)),
    # no product, though every coordinate repeats
    "staircase": lambda rng: mesh("ij", digit_axis(rng, 6), digit_axis(rng, 6))[np.add.outer(
        np.arange(6), np.arange(6)).ravel() < 6],
    "1-d": lambda rng: digit_axis(rng, 30)[:, None],
    # a product if -0.0 were 0.0
    "signed-zeros": lambda rng: np.array([[-0.0, 0.0], [-0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]),
}


@pytest.mark.parametrize("case", CSV_GRIDS)
@pytest.mark.parametrize("extra_header", [None, {"note": "x"}])
def test_field_csv_text_is_the_one_format_table_on_lattices_and_off(case, extra_header):
    rng = np.random.default_rng(len(case))
    grid = Grid(CSV_GRIDS[case](rng))
    assert (grid.lattice is not None) == (case in ("parse-order", "xy", "3-d"))
    values = np.exp(rng.normal(scale=100.0, size=grid.size))
    field = Field(grid, values, {"construction": "smith", "seed": 5, "n_points": 7})
    assert field_csv_text(field, extra_header) == one_format_csv_text(field, extra_header)
