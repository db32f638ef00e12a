import json

import numpy as np
import pytest

from maxstable.seeding import derive_rng
from maxstable.simulator import Grid
from maxstable.spectral import (
    DomainError,
    Exponential,
    Gamma,
    Gaussian,
    SimplexWeights,
)
from maxstable.stationarity import (
    TOL_DEFECT,
    CriterionConfig,
    defect,
    default_shift,
    empirical_shift_distance,
    gradient_affinity_defect,
    marginal_frechet_ks,
    quadratic_fit_check,
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
    cfg.validate_domain(Exponential(1.0))
    cfg = CriterionConfig([[0.0], [0.5]], [0.5, 0.5], [0.6])
    with pytest.raises(DomainError):
        cfg.validate_domain(Exponential(1.0))


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
    with pytest.raises(ValueError):
        search_violation(dist, 2, 10, [[1.0, -1.0]], rng)
    with pytest.raises(ValueError):
        search_violation(dist, 2, 10, [[-1.0, 1.0], [-1.0, 1.0]], rng)


# ---------------------------------------------------------------------------
# quadratic fit


def test_quadratic_fit_recovers_gaussian(rng):
    mu = np.array([0.4, -0.2])
    sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
    pts = rng.uniform(-1, 1, size=(60, 2))
    report = quadratic_fit_check(Gaussian(mu, sigma), pts)
    assert report.max_residual < 1e-10
    assert np.allclose(report.mu, mu, atol=1e-8)
    assert np.allclose(report.sigma, sigma, atol=1e-8)


def test_quadratic_fit_rejects_nonquadratic_cgf(rng):
    pts = rng.uniform(0.0, 0.6, size=(40, 1))
    report = quadratic_fit_check(Exponential(1.0), pts)
    assert report.max_residual > 1e-4


def test_quadratic_fit_needs_enough_points():
    with pytest.raises(ValueError):
        quadratic_fit_check(Gaussian([0.0], [[1.0]]), [[0.1], [0.2]])
    with pytest.raises(ValueError):
        quadratic_fit_check(Gaussian([0.0], [[1.0]]), [[0.1]] * 10)  # rank deficient


# ---------------------------------------------------------------------------
# experiments (light versions; the heavy gates live in the acceptance suite)


def test_default_shift():
    assert np.allclose(default_shift(Gaussian([0.0], [[1.0]]), Grid([0.0, 1.0])), [0.7])
    assert np.allclose(default_shift(Exponential(1.0), Grid([0.0, 0.5])), [0.25])
    with pytest.raises(DomainError):
        default_shift(Exponential(1.0), Grid([0.0, 1.5]))


def test_marginal_frechet_ks_small_run():
    table = marginal_frechet_ks(
        Gaussian([0.0], [[1.0]]), Grid([0.0, 1.0]), 300, derive_rng(31), n_points=2000
    )
    assert len(table) == 2
    assert all(row["pass"] for row in table)


def test_empirical_shift_distance_gaussian_small():
    d = empirical_shift_distance(
        Gaussian([0.0], [[1.0]]), [0.0], [1.0], [0.7], 400, derive_rng(35), n_points=2000
    )
    assert 0.0 <= d < 0.15


def test_verify_characterization_verdicts():
    rep = verify_characterization(
        Gaussian([0.0], [[1.0]]),
        Grid([0.0, 0.5, 1.0]),
        200,
        derive_rng(37),
        n_points=1500,
        budget=50,
    )
    assert rep.verdict == "Gaussian-consistent"
    assert rep.marginals_pass
    parsed = json.loads(rep.to_json())
    assert parsed["verdict"] == "Gaussian-consistent"

    rep = verify_characterization(
        Gamma(2.0, 1.0),
        Grid([0.0, 0.25, 0.5]),
        200,
        derive_rng(39),
        n_points=1500,
        budget=50,
    )
    assert rep.verdict == "non-stationary in dimension 2"
    assert rep.marginals_pass  # marginals are Frechet regardless
    assert rep.defect_report.max_abs_defect > TOL_DEFECT


def test_verify_characterization_needs_two_points(rng):
    with pytest.raises(ValueError):
        verify_characterization(Gaussian([0.0], [[1.0]]), Grid([0.0]), 100, rng)
