import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from conftest import distributions
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxstable.seeding import derive_rng
from maxstable.spectral import (
    DomainError,
    Exponential,
    Gamma,
    Gaussian,
    ShapeFunction,
    SimplexWeights,
    SpecParseError,
    UNIFORM_SMALL_T,
    Uniform,
    cgf_multi,
    clamp_psd,
    parse_distribution,
    psd_factor,
)


def registry_examples(d: int = 1) -> list:
    """One representative instance per family."""
    return [
        Gaussian(np.zeros(d), np.eye(d)),
        Exponential(np.ones(d)),
        Uniform(np.zeros(d), np.ones(d)),
        Gamma(2.0 * np.ones(d), np.ones(d)),
    ]


def random_psd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T / d + 0.1 * np.eye(d)


# ---------------------------------------------------------------------------
# closed-form CGFs


def test_exponential_cgf_frozen_value():
    # -log(1 - 0.5) for rate 1 at t = 0.5
    assert Exponential(1.0).cgf(0.5) == pytest.approx(0.6931471805599453, abs=1e-15)


def test_gaussian_cgf_matches_direct_formula(rng):
    for d in (1, 2, 4):
        mu = rng.standard_normal(d)
        sigma = random_psd(rng, d)
        dist = Gaussian(mu, sigma)
        for _ in range(20):
            t = rng.standard_normal(d)
            expected = float(mu @ t + 0.5 * t @ sigma @ t)
            assert dist.cgf(t) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_gamma_cgf_is_shape_times_exponential():
    assert Gamma(2.0, 1.0).cgf(0.4) == pytest.approx(2.0 * Exponential(1.0).cgf(0.4), abs=1e-14)


def test_uniform_cgf_moderate_t_matches_direct_formula():
    dist = Uniform(-0.5, 2.0)
    for t in (-3.0, -0.7, 0.2, 1.0, 4.0):
        expected = math.log((math.exp(2.0 * t) - math.exp(-0.5 * t)) / (2.5 * t))
        assert dist.cgf(t) == pytest.approx(expected, rel=1e-12)


def test_uniform_cgf_small_t_limit():
    dist = Uniform(0.0, 1.0)
    assert dist.cgf(1e-12) == pytest.approx(0.5e-12, rel=1e-6)
    assert dist.cgf(0.0) == 0.0


def test_uniform_cgf_large_t_branches_are_continuous():
    dist = Uniform(0.0, 1.0)
    for w in (29.999, 30.001, -29.999, -30.001):
        direct = math.log(abs(math.expm1(w)) / abs(w))
        assert dist.cgf(w) == pytest.approx(direct, rel=1e-12)
    # far into the asymptotic regime, exact to the stated tails
    assert dist.cgf(200.0) == pytest.approx(200.0 - math.log(200.0), rel=1e-14)
    assert dist.cgf(-200.0) == pytest.approx(-math.log(200.0), rel=1e-12)


def test_cgf_batch_matches_pointwise(rng):
    for dist in registry_examples(2):
        lo = np.maximum(dist.domain_lower(), -1.0)
        hi = np.minimum(dist.domain_upper(), 1.0)
        pts = rng.uniform(lo + 0.05, hi - 0.05, size=(30, 2))
        batch = dist.cgf(pts)
        for k in range(30):
            assert batch[k] == pytest.approx(dist.cgf(pts[k]), abs=1e-15)


def test_cgf_at_zero_is_zero():
    for dist in registry_examples(3):
        assert dist.cgf(np.zeros(3)) == 0.0


# ---------------------------------------------------------------------------
# domain handling


def test_exponential_domain_is_open_at_rate():
    dist = Exponential([1.0, 2.0])
    dist.check_domain([0.9, 1.9])
    with pytest.raises(DomainError) as err:
        dist.cgf([0.5, 2.0])
    assert err.value.coordinate == 1


def test_gamma_domain_error():
    with pytest.raises(DomainError):
        Gamma(2.0, 1.0).cgf(1.0)


@pytest.mark.parametrize("dist", [Gamma(2.0, 1.0), Gaussian(0.0, 1.0)], ids=["gamma", "gaussian"])
def test_a_nan_coordinate_lies_outside_every_domain(dist):
    # lo < x < hi is false for nan, on a bounded domain and on all of R alike
    for t in (np.array([np.nan]), np.array([[0.5], [np.nan]])):
        with pytest.raises(DomainError):
            dist.cgf(t)
    with pytest.raises(DomainError):
        dist.gradient([np.nan])


def test_unbounded_families_accept_large_points():
    for dist in (Gaussian(0.0, 1.0), Uniform(0.0, 1.0)):
        assert np.isfinite(dist.cgf(50.0))


# ---------------------------------------------------------------------------
# multivariate CGF and gradients


def test_cgf_multi_frozen_values():
    ts = np.array([[0.0], [1.0]])
    u = [0.5, 0.5]
    assert cgf_multi(Gaussian(0.0, 1.0), ts, u) == pytest.approx(-0.125, abs=1e-15)
    ts = np.array([[0.0], [0.5]])
    assert cgf_multi(Exponential(1.0), ts, u) == pytest.approx(
        -0.05889151782819172, abs=1e-14
    )


def test_cgf_multi_is_nonpositive_by_jensen(rng):
    # convexity of phi forces the centered combination below zero
    for dist in registry_examples(2):
        lo = np.maximum(dist.domain_lower(), -1.0)
        hi = np.minimum(dist.domain_upper(), 1.0)
        for _ in range(250):
            n = int(rng.integers(2, 5))
            ts = rng.uniform(lo + 0.05, hi - 0.05, size=(n, 2))
            u = rng.dirichlet(np.ones(n))
            assert cgf_multi(dist, ts, u) <= 1e-12


def test_cgf_multi_weight_count_mismatch():
    with pytest.raises(ValueError):
        cgf_multi(Gaussian(0.0, 1.0), [[0.0], [1.0]], [1.0])


def test_gaussian_gradient_closed_form(rng):
    mu = np.array([0.3, -0.2])
    sigma = random_psd(rng, 2)
    dist = Gaussian(mu, sigma)
    t = np.array([0.7, -1.1])
    assert np.allclose(dist.gradient(t), sigma @ t + mu, atol=1e-14)


def test_fd_gradient_matches_analytic_derivatives():
    # exp(rate): phi' = 1/(rate - t); gamma(k, rate): phi' = k/(rate - t)
    t = 0.4
    assert Exponential(1.0).gradient([t])[0] == pytest.approx(1.0 / 0.6, rel=1e-9)
    assert Gamma(2.0, 1.0).gradient([t])[0] == pytest.approx(2.0 / 0.6, rel=1e-9)
    # uniform(0, 1): phi' = e^t/(e^t - 1) - 1/t
    expected = math.exp(t) / math.expm1(t) - 1.0 / t
    assert Uniform(0.0, 1.0).gradient([t])[0] == pytest.approx(expected, rel=1e-9)


def test_gradient_is_exact_up_to_the_boundary():
    # no finite-difference step: 1 - 1e-12 is in the domain, t = 1 is not
    t = 1.0 - 1e-12
    assert Exponential(1.0).gradient([t])[0] == 1.0 / (1.0 - t) == pytest.approx(1e12, rel=1e-4)
    with pytest.raises(DomainError):
        Exponential(1.0).gradient([1.0])


def _uniform_gradient_reference(a, b, t):
    """m + h (coth v - 1/v), h = (b - a)/2, v = h t, in 40-digit decimals."""
    with decimal.localcontext(prec=40):
        a, b, t = Decimal(a), Decimal(b), Decimal(t)
        m, h = (a + b) / 2, (b - a) / 2
        if t == 0:
            return m
        e = (2 * h * t).exp()
        return m + h * ((e + 1) / (e - 1) - 1 / (h * t))


UNIFORM_GRADIENT_TS = [0.0] + [s * t for t in (1e-12, 1e-4, 0.5, 0.999, 1.0, 1.001, 3.0, 40.0, 700.0)
                               for s in (1.0, -1.0)]


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 1.0), (-3.0, 0.5), (2.0, 2.5), (0.0, 2.0)])
def test_uniform_gradient_matches_a_decimal_reference(a, b):
    # both branches and the switch at |v| = 1 (b - a = 2 puts v = t), to a
    # few ulps of |m| + h, the size of the terms the gradient adds
    grad = Uniform(a, b).gradient(np.array(UNIFORM_GRADIENT_TS)[:, None])[:, 0]
    ulp = np.finfo(float).eps * (abs(a + b) / 2 + (b - a) / 2)
    for t, g in zip(UNIFORM_GRADIENT_TS, grad):
        assert abs(Decimal(g) - _uniform_gradient_reference(a, b, t)) <= 4 * Decimal(ulp), t


def test_exp_gamma_and_gaussian_gradients_are_their_closed_forms(rng):
    pts = rng.uniform(-2.0, 0.9, size=(50, 3))
    rate, shape = np.array([1.0, 2.5, 0.95]), np.array([2.0, 0.5, 1.0])
    assert Exponential(rate).gradient(pts).tobytes() == (1.0 / (rate - pts)).tobytes()
    assert Gamma(shape, rate).gradient(pts).tobytes() == (shape / (rate - pts)).tobytes()
    mu, sigma = rng.standard_normal(3), random_psd(rng, 3)
    # Sigma t + mu, summed in coordinate order
    expected = np.array([[sum((sigma[j, k] * p[k] for k in range(1, 3)), sigma[j, 0] * p[0]) + mu[j]
                          for j in range(3)] for p in pts])
    assert Gaussian(mu, sigma).gradient(pts).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cgf_gradient_matches_a_central_difference_of_the_cgf(d, rng):
    h = 1e-5
    for dist in registry_examples(d):
        for _ in range(20):
            t = rng.uniform(-1.0, 0.8, size=d)
            step = h * np.eye(d)
            fd = np.array([(dist.cgf(t + e) - dist.cgf(t - e)) / (2 * h) for e in step])
            assert np.allclose(dist.gradient(t), fd, rtol=1e-7, atol=1e-8)


def test_mean_is_bit_equal_to_the_closed_form_means(rng):
    rate, shape = rng.uniform(0.1, 5.0, size=4), rng.uniform(0.1, 5.0, size=4)
    a = rng.uniform(-3.0, 3.0, size=4)
    b = a + rng.uniform(0.1, 5.0, size=4)
    mu = rng.standard_normal(4)
    assert Exponential(rate).mean().tobytes() == (1.0 / rate).tobytes()
    assert Gamma(shape, rate).mean().tobytes() == (shape / rate).tobytes()
    assert Uniform(a, b).mean().tobytes() == ((a + b) / 2.0).tobytes()
    assert Gaussian(mu, random_psd(rng, 4)).mean().tobytes() == mu.tobytes()


# ---------------------------------------------------------------------------
# sampling


def test_sample_shapes_and_means(rng):
    for dist in registry_examples(2):
        x = dist.sample(200_000, rng)
        assert x.shape == (200_000, 2)
        assert np.allclose(x.mean(axis=0), dist.mean(), atol=0.02)


def test_sample_is_deterministic_per_seed():
    for dist in registry_examples(1):
        a = dist.sample(50, derive_rng(7))
        b = dist.sample(50, derive_rng(7))
        assert np.array_equal(a, b)


def test_sample_tilted_means_match_cgf_gradient(rng):
    # the mean of the t-tilted law is grad phi(t)
    cases = [
        (Gaussian([0.5], [[2.0]]), 1.0),
        (Exponential(1.0), 0.5),
        (Uniform(0.0, 1.0), 1.7),
        (Uniform(0.0, 1.0), -40.0),
        (Uniform(0.0, 1.0), 50.0),
        (Gamma(2.0, 1.0), 0.4),
    ]
    for dist, t in cases:
        x = dist.sample_tilted([t], 200_000, rng)
        assert x.mean() == pytest.approx(dist.gradient([t])[0], abs=0.01)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_sample_rows_do_not_depend_on_the_batch(d):
    # 64 rows drawn at once equal 64 one-row draws bit for bit, and the
    # tilt of a base row to ts[j] equals its tilt by a sampler of ts[j]
    # alone; the gaussian's factor product and its tilted mean grad phi(t)
    # are summed in coordinate order, not by BLAS
    rng = derive_rng(d)
    laws = [*registry_examples(d), Gaussian(rng.standard_normal(d), random_psd(rng, d)),
            Gamma(rng.uniform(0.5, 3.0, d), rng.uniform(0.5, 3.0, d))]
    for dist in laws:
        batch = dist.sample(64, derive_rng(11))
        one = derive_rng(11)
        assert batch.tobytes() == np.vstack([dist.sample(1, one) for _ in range(64)]).tobytes()
        ts = np.minimum(rng.uniform(-2.0, 2.0, (8, d)), 0.5 * dist.domain_upper())
        draw, tilt = dist.tilted_sampler(ts)
        base = draw(64, derive_rng(11))
        for j in range(len(ts)):
            assert tilt(base, j).tobytes() == dist.tilted_sampler(ts[j:j + 1])[1](base, 0).tobytes()


def test_sample_tilted_rejects_out_of_domain(rng):
    with pytest.raises(DomainError):
        Exponential(1.0).sample_tilted([1.5], 10, rng)


def test_uniform_sample_tilted_stays_in_interval(rng):
    for t in (-40.0, -1.0, 1e-12, 1.0, 50.0):
        x = Uniform(-0.5, 2.0).sample_tilted([t], 5000, rng)
        assert np.all(x >= -0.5) and np.all(x <= 2.0)


def _uniform_tilt_reference(a, b, t, u):
    """One coordinate of one row of the uniform tilt, by the scalar formulas."""
    if abs(t) < UNIFORM_SMALL_T:
        return a + (b - a) * u
    w = (b - a) * t
    if w > 0:
        return b + np.log(u + (1 - u) * math.exp(-w)) / t
    return a + np.log1p(u * math.expm1(w)) / t


TILT_TS = [0.0, 1e-9, -1e-9, 1e-8, -1e-8, 0.3, -0.3, 2.0, -2.0, 45.0, -45.0, 700.0, -700.0]


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 1.0), (-3.0, 0.5)])
@pytest.mark.parametrize("d", [1, 2])
def test_uniform_tilt_equals_the_scalar_formulas(a, b, d):
    # bit for bit, with js an index array and with one index for all rows;
    # |w| up to 2450, where e^{-w} of the other branch would overflow
    dist = Uniform(np.full(d, a), np.full(d, b))
    ts = np.array(TILT_TS)[:, None] if d == 1 else np.column_stack([TILT_TS, TILT_TS[::-1]])
    draw, tilt = dist.tilted_sampler(ts)
    rng = derive_rng(d)
    u = draw(60, rng)
    js = rng.integers(0, len(ts), size=60)

    def reference(js):
        return np.array([[_uniform_tilt_reference(dist.a[c], dist.b[c], ts[j, c], u[r, c]) for c in range(d)]
                         for r, j in enumerate(np.broadcast_to(js, len(u)))])

    assert tilt(u, js).tobytes() == reference(js).tobytes()
    for j in range(len(ts)):
        assert tilt(u, j).tobytes() == reference(j).tobytes()


class _RecordingGenerator:
    """A generator that records the shape argument of each standard_gamma call."""

    def __init__(self, seed):
        self.rng = derive_rng(seed)
        self.shapes = []

    def standard_gamma(self, shape, size):
        self.shapes.append(shape)
        return self.rng.standard_gamma(shape, size=size)


@pytest.mark.parametrize("shape", [[2.0], [0.5], [2.0, 2.0], [0.5, 0.5], [2.0, 0.5]])
def test_gamma_draws_equal_standard_gamma_of_the_shape_vector(shape):
    # a shape shared by every coordinate is passed to numpy as a float, which
    # must give the bits of the shape array; distinct shapes pass the array
    dist = Gamma(shape, np.full(len(shape), 1.5))
    draw, _ = dist.tilted_sampler(np.zeros((1, len(shape))))
    rng = _RecordingGenerator(7)
    rows = draw(1001, rng)
    expected = derive_rng(7).standard_gamma(dist.shape, size=(1001, len(shape)))
    assert rows.tobytes() == expected.tobytes()
    if len(set(shape)) == 1:
        assert rng.shapes == [shape[0]] and type(rng.shapes[0]) is float
    else:
        assert len(rng.shapes) == 1 and rng.shapes[0] is dist.shape


def test_gaussian_sample_covariance(rng):
    sigma = np.array([[1.0, 0.6], [0.6, 2.0]])
    x = Gaussian([0.0, 0.0], sigma).sample(300_000, rng)
    assert np.allclose(np.cov(x.T), sigma, atol=0.03)


# ---------------------------------------------------------------------------
# weights, shape functions, matrices


def test_simplex_weights_renormalize():
    w = SimplexWeights([0.2, 0.2])
    assert np.allclose(w.u, [0.5, 0.5])
    assert len(w) == 2


def test_simplex_weights_reject_bad_input():
    with pytest.raises(ValueError):
        SimplexWeights([-0.5, 1.5])
    with pytest.raises(ValueError):
        SimplexWeights([0.0, 0.0])


def test_shape_function_quadratic_equals_gaussian_cgf(rng):
    mu = np.array([0.1, -0.3])
    sigma = random_psd(rng, 2)
    dist = Gaussian(mu, sigma)
    quad = ShapeFunction.quadratic(mu, sigma)
    from_cgf = ShapeFunction(dist)
    pts = rng.standard_normal((40, 2))
    assert np.allclose(quad.values(pts), from_cgf.values(pts), atol=1e-12)
    assert quad.values(pts[0]) == pytest.approx(from_cgf.values(pts[0]), abs=1e-12)


def test_shape_function_constant_offset():
    quad = ShapeFunction.quadratic([0.0], [[1.0]], c0=2.5)
    assert quad.values([0.0]) == 2.5


def test_clamp_psd_accepts_roundoff_negatives():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]])
    sym, w, _ = clamp_psd(sigma)
    assert np.all(w >= 0)
    with pytest.raises(ValueError):
        clamp_psd(np.array([[1.0, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError):
        clamp_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric


def test_psd_factor_reconstructs_matrix(rng):
    sigma = random_psd(rng, 3)
    left = psd_factor(sigma)
    assert np.allclose(left @ left.T, sigma, atol=1e-12)
    # singular PSD falls back to the eigen factor
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    left = psd_factor(singular)
    assert np.allclose(left @ left.T, singular, atol=1e-12)


# ---------------------------------------------------------------------------
# spec strings


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_parse_format_round_trip(data):
    # what the registry base derives from a family's statement of its law:
    # the spec string and its parse, dim, the mean, and cgf, gradient,
    # term_scale and kappa = phi at a point or at rows, a point's value its
    # row's bit for bit, and sample_tilted at a point
    d = data.draw(st.integers(1, 3))
    dist = data.draw(distributions(d))
    assert parse_distribution(dist.spec_string()) == dist
    assert dist.dim == d
    rows = data.draw(hnp.arrays(float, (4, d), elements=st.floats(-2.0, 2.0)))
    rows = np.minimum(rows, 0.5 * dist.domain_upper())
    kappa = ShapeFunction(dist)
    assert np.array([dist.cgf(row) for row in rows]).tobytes() == dist.cgf(rows).tobytes()
    assert np.array([dist.gradient(row) for row in rows]).tobytes() == dist.gradient(rows).tobytes()
    assert np.array([dist.term_scale(row[None]) for row in rows]).tobytes() == dist.term_scale(rows).tobytes()
    assert all(type(kappa.values(row)) is float for row in rows)
    assert np.array([kappa.values(row) for row in rows]).tobytes() == kappa.values(rows).tobytes()
    assert dist.mean().tobytes() == dist.gradient(np.zeros(d)).tobytes()
    if d == 1:  # a scalar is a point of a 1-D law
        assert type(dist.cgf(float(rows[0, 0]))) is float and dist.cgf(float(rows[0, 0])) == dist.cgf(rows[0])
        assert dist.gradient(float(rows[0, 0])).tobytes() == dist.gradient(rows[0]).tobytes()
        tilted = dist.sample_tilted(float(rows[0, 0]), 3, derive_rng(1))
        assert tilted.tobytes() == dist.sample_tilted(rows[0], 3, derive_rng(1)).tobytes()
    with pytest.raises(ValueError, match="one point"):
        dist.sample_tilted(rows, 3, derive_rng(1))
    if isinstance(dist, Gamma):
        edge = np.zeros(d)
        edge[-1] = dist.rate[-1]
        for t in (edge, np.vstack([np.zeros(d), edge])):
            for value in (dist.cgf, dist.gradient):
                with pytest.raises(DomainError):
                    value(t)


@pytest.mark.parametrize("d", [1, 2])
def test_a_family_prints_its_spec_string(d):
    for dist in registry_examples(d):
        assert repr(dist) == f"{type(dist).__name__}({dist.spec_string()!r})"
    assert repr(Exponential(1.0)) == "Exponential('exp:lambda=1.0')"


def test_parse_examples():
    dist = parse_distribution("gaussian:mu=0,0;sigma=1,0.5,0.5,1")
    assert isinstance(dist, Gaussian) and dist.dim == 2
    assert parse_distribution("exp:lambda=2") == Exponential(2.0)
    assert parse_distribution("uniform:a=0;b=1") == Uniform(0.0, 1.0)
    assert parse_distribution("gamma:k=2;theta=1") == Gamma(2.0, 1.0)


@pytest.mark.parametrize(
    "bad",
    [
        "weibull:k=1",
        "gaussian:mu=0",
        "gaussian:mu=0;sigma=1;extra=2",
        "exp:lambda=abc",
        "exp:lambda=1;centered=maybe",
        "exp:lambda=1;centered=true",
        "exponential:lambda=1",
        "gaussian:mu=0,0;sigma=1,0,0",
        "exp:lambda",
        "gaussian:mu=0;sigma=1;mu=5",
    ],
)
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(SpecParseError):
        parse_distribution(bad)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Exponential(-1.0)
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        Gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        Gaussian([0.0, 0.0], np.eye(3))
