import math

import numpy as np
import pytest

from maxstable.pointproc import FrechetCascade, StormSet, frechet_cascade
from maxstable.seeding import derive_rng, spawn
from maxstable.simulator import (
    Field,
    Grid,
    Variogram,
    field_csv_text,
    moving_maxima_buffer,
    simulate_brown_resnick,
    simulate_general,
    simulate_moving_maxima,
    simulate_smith,
    truncation_check,
    write_field_csv,
)
from maxstable.simulator import _CHUNK, _paired_log_max
from maxstable.spectral import DomainError, Exponential, Gamma, Gaussian, ShapeFunction


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


def test_grid_validate_domain():
    grid = Grid([0.0, 2.0])
    with pytest.raises(DomainError):
        grid.validate_domain(Exponential(1.0))


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


def test_simulate_general_with_stubbed_inputs(rng):
    dist, kappa = unit_smith_dist()
    grid = Grid([0.0, 1.0])
    cascade = FrechetCascade(np.array([1.0, 0.5]))
    spectral = np.array([[0.0], [1.0]])
    field = simulate_general(dist, kappa, grid, 2, rng, cascade=cascade, spectral=spectral)
    # contributions: log U_i + x_i t - t^2 / 2, maximized by hand
    expected_t0 = math.exp(max(math.log(1.0), math.log(0.5)))
    expected_t1 = math.exp(max(math.log(1.0) - 0.5, math.log(0.5) + 1.0 - 0.5))
    assert field.values[0] == pytest.approx(expected_t0, rel=1e-15)
    assert field.values[1] == pytest.approx(expected_t1, rel=1e-15)


def test_origin_value_is_cascade_max(rng):
    # with kappa(0) = 0 the origin value equals the largest cascade point
    dist, kappa = unit_smith_dist()
    grid = Grid([0.0, 0.5])
    rng_u, _ = spawn(derive_rng(21), 2)
    cascade = frechet_cascade(500, rng_u)
    field = simulate_general(dist, kappa, grid, 500, derive_rng(21))
    assert field.values[0] == pytest.approx(cascade.points[0], rel=1e-15)


def test_simulate_general_determinism():
    dist, kappa = unit_smith_dist()
    grid = Grid([0.0, 1.0])
    a = simulate_general(dist, kappa, grid, 2000, derive_rng(5))
    b = simulate_general(dist, kappa, grid, 2000, derive_rng(5))
    assert np.array_equal(a.values, b.values)


def test_engine_is_one_max_with_kappa_subtracted_once():
    # n = 5000 spans three chunks, the last one ragged; in d = 1 each
    # <X_i, t> is one rounded product, so chunking cannot change it
    assert 2 * _CHUNK < 5000 < 3 * _CHUNK
    dist, kappa = unit_smith_dist()
    grid = Grid(np.linspace(-4.0, 4.0, 9))
    cascade = frechet_cascade(5000, derive_rng(41))
    spectral = np.asarray(derive_rng(42).standard_normal((5000, 1)))
    field = simulate_general(dist, kappa, grid, 5000, derive_rng(43),
                             cascade=cascade, spectral=spectral)
    t = grid.locations
    log_max = (np.log(cascade.points)[:, None] + spectral @ t.T).max(axis=0)
    assert np.array_equal(field.values, np.exp(log_max - kappa.values(t)))


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
    with pytest.raises(ValueError):
        simulate_general(
            dist, kappa, grid, 2, rng,
            cascade=FrechetCascade(np.array([1.0, 0.5])),
            spectral=np.zeros((3, 1)),
        )
    with pytest.raises(DomainError):
        simulate_general(Exponential(1.0), ShapeFunction.from_cgf(Exponential(1.0)),
                         Grid([0.0, 1.5]), 10, rng)


def test_overflowing_contribution_raises(rng):
    dist, kappa = unit_smith_dist()
    grid = Grid([1.0])
    cascade = FrechetCascade(np.array([1.0]))
    with pytest.raises(ValueError, match="overflow"):
        simulate_general(dist, kappa, grid, 1, rng,
                         cascade=cascade, spectral=np.array([[1000.0]]))


def test_provenance_records_run(rng):
    field = simulate_smith([[1.0]], Grid([0.0, 1.0]), 5000, rng, seed_record=42)
    prov = field.provenance
    assert prov["seed"] == 42
    assert prov["n_points"] == 5000
    assert "truncation" not in prov


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
    # Z(0) = 0 and gamma(0) = 0 pin the origin to the largest cascade point
    grid = Grid([0.0, 1.0])
    rng_u, _ = spawn(derive_rng(13), 2)
    cascade = frechet_cascade(3000, rng_u)
    field = simulate_brown_resnick(Variogram.fractional(1.0, 1.0), grid, 3000, derive_rng(13))
    assert field.values[0] == pytest.approx(cascade.points[0], rel=1e-15)


def test_brown_resnick_quadratic_variogram(rng):
    field = simulate_brown_resnick(Variogram.quadratic([[1.0]]), Grid([0.0, 1.0]), 1000, rng)
    assert np.all(np.isfinite(field.values))


# ---------------------------------------------------------------------------
# moving maxima


def test_moving_maxima_single_stub_storm(rng):
    # one storm of unit strength at the origin: values are the gaussian kernel
    storms = StormSet(np.array([[0.0]]), np.array([1.0]), np.array([[-3.0, 3.0]]))
    grid = Grid([0.0, 1.0])
    field = simulate_moving_maxima([[1.0]], grid, [[-3.0, 3.0]], rng, storms=storms)
    c = 1.0 / math.sqrt(2.0 * math.pi)
    assert field.values[0] == pytest.approx(c, rel=1e-14)
    assert field.values[1] == pytest.approx(c * math.exp(-0.5), rel=1e-14)
    assert field.provenance["truncation"]["exact_on_grid"]


def test_moving_maxima_streaming_run():
    grid = Grid([0.0, 0.5, 1.0])
    a = simulate_moving_maxima([[1.0]], grid, [[0.0, 1.0]], derive_rng(17))
    b = simulate_moving_maxima([[1.0]], grid, [[0.0, 1.0]], derive_rng(17))
    assert np.array_equal(a.values, b.values)
    prov = a.provenance
    assert prov["truncation"]["exact_on_grid"]
    assert prov["edge_error_bound"] <= 1.01e-8
    assert prov["buffer_radius"] > 0


def test_moving_maxima_rejects_bad_geometry(rng):
    grid = Grid([0.0, 2.0])
    with pytest.raises(ValueError):
        simulate_moving_maxima([[1.0]], grid, [[0.0, 1.0]], rng)  # grid outside core
    with pytest.raises(ValueError):
        simulate_moving_maxima([[0.0]], grid, [[0.0, 2.0]], rng)  # singular sigma


def test_moving_maxima_buffer_meets_error_target():
    r = moving_maxima_buffer([[1.0]], [[0.0, 1.0]], edge_rel_err=1e-8)
    c = 1.0 / math.sqrt(2.0 * math.pi)
    vol = 1.0 + 2.0 * r
    assert c * math.exp(-0.5 * r * r) * vol * 1e3 <= 1.01e-8


# ---------------------------------------------------------------------------
# truncation diagnostic


def test_truncation_check_converges_for_smith(rng):
    diag = truncation_check("smith", {"sigma": [[1.0]]}, Grid([0.0, 1.0]), 5000, rng)
    assert diag.converged
    assert diag.change_fraction < 0.01


def test_truncation_check_flags_tiny_cascades(rng):
    diag = truncation_check("smith", {"sigma": [[1.0]]}, Grid([0.0, 1.0]), 1, rng)
    assert not diag.converged
    assert diag.max_rel_change > 0


def test_truncation_check_general_and_br(rng):
    dist, kappa = unit_smith_dist()
    diag = truncation_check(
        "general", {"dist": dist, "kappa": kappa}, Grid([0.0, 1.0]), 4000, rng, replicates=10
    )
    assert diag.converged
    diag = truncation_check(
        "brown_resnick", {"variogram": Variogram.fractional(1.0, 1.0)},
        Grid([0.0, 1.0]), 4000, rng, replicates=10,
    )
    assert diag.converged


GAMMA = Gamma(2.0, 1.0)


@pytest.mark.parametrize("n", [5, 3000])
@pytest.mark.parametrize(
    "construction, params, simulate, grid",
    [
        ("general", {"dist": GAMMA, "kappa": ShapeFunction.from_cgf(GAMMA)},
         lambda p, *args: simulate_general(p["dist"], p["kappa"], *args),
         Grid([0.0, 0.5, 0.9, 0.99])),
        ("smith", {"sigma": [[1.0]]}, lambda p, *args: simulate_smith(p["sigma"], *args),
         Grid([0.0, 2.0, 5.0, 8.0])),
        ("brown_resnick", {"variogram": Variogram.fractional(1.0, 1.0)},
         lambda p, *args: simulate_brown_resnick(p["variogram"], *args),
         Grid([0.0, 5.0, 20.0, 60.0])),
    ],
    ids=["general-gamma", "smith", "brown-resnick"],
)
def test_doubling_diagnostic_extends_the_simulated_field(construction, params, simulate, grid, n):
    # the n-atom level of the doubling diagnostic is the field simulate_*
    # draws from the same generator (n = 3000 spans two chunks); far grid
    # points, where atoms beyond n often win, make a wrong level show.
    # The 2n level is simulate_*(2n) too where log W is one product per
    # entry (d = 1 general and Smith): a max does not depend on how the
    # rows are chunked.  Brown-Resnick's increments pass through a matrix
    # product whose rounding may depend on the chunk shape.
    for seed in range(4):
        at_n, at_2n = _paired_log_max(construction, params, grid, n, derive_rng(seed))
        field = simulate(params, grid, n, derive_rng(seed))
        assert np.array_equal(np.exp(at_n), field.values)
        if construction != "brown_resnick":
            field = simulate(params, grid, 2 * n, derive_rng(seed))
            assert np.array_equal(np.exp(at_2n), field.values)


def test_truncation_check_rejects_unknown_construction(rng):
    with pytest.raises(ValueError):
        truncation_check("mmm", {}, Grid([0.0, 1.0]), 100, rng)


# ---------------------------------------------------------------------------
# CSV output


def test_field_csv_round_trip(tmp_path, rng):
    field = simulate_smith([[1.0]], Grid([0.0, 1.0]), 1000, rng, seed_record=3)
    text = field_csv_text(field, extra_header={"note": "x"})
    lines = text.strip().split("\n")
    assert lines[0] == "# construction=smith seed=3 n_points=1000"
    assert lines[1] == "# note=x"
    for j, line in enumerate(lines[2:]):
        t, v = (float(x) for x in line.split(","))
        assert t == field.grid.locations[j, 0]
        assert v == field.values[j]  # 17 significant digits round-trip exactly
    path = tmp_path / "field.csv"
    write_field_csv(field, path, extra_header={"note": "x"})
    assert path.read_text() == text
