"""Spectral laws and their cumulant generating functions (CGFs).

The analytic backbone of the toolkit: a closed registry of d-variate
spectral laws -- gaussian, exponential, uniform and gamma (independent
coordinates for the non-gaussian families) -- each providing a sampler,
a closed-form CGF phi(t) = log E exp(<X, t>), its domain, and (for the
gaussian) a closed-form gradient.  The registry is deliberately closed:
every family needs a matched sampler + closed-form CGF for the
stationarity experiments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Central-difference step scale: cbrt(machine epsilon) is the standard
# optimum for second-order finite differences.
FD_STEP = float(np.cbrt(np.finfo(float).eps))

# Eigenvalues of a covariance matrix in [-PSD_REL_TOL * lam_max, 0) are
# treated as round-off and clamped to zero; anything more negative is a
# hard error.
PSD_REL_TOL = 1e-10

# Below this |t_j| the uniform CGF routes to its removable-singularity limit.
UNIFORM_SMALL_T = 1e-8


class DomainError(ValueError):
    """A query point lies outside the CGF domain of a spectral law."""

    def __init__(self, message: str, coordinate: int | None = None):
        super().__init__(message)
        self.coordinate = coordinate


class SpecParseError(ValueError):
    """A distribution specification string could not be parsed."""


def clamp_psd(sigma, rel_tol: float = PSD_REL_TOL):
    """Validate a symmetric PSD matrix, clamping round-off negatives.

    Returns ``(clamped, eigvals, eigvecs)`` where ``eigvals`` are the
    clamped eigenvalues.  Raises ValueError for genuinely indefinite input.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance matrix must be square, got shape {sigma.shape}")
    scale = np.abs(sigma).max() if sigma.size else 0.0
    if scale > 0 and np.abs(sigma - sigma.T).max() > 1e-8 * scale:
        raise ValueError("covariance matrix is not symmetric")
    sym = 0.5 * (sigma + sigma.T)
    w, v = np.linalg.eigh(sym)
    lam_max = max(float(w.max()), 0.0) if w.size else 0.0
    floor = -rel_tol * lam_max
    if w.size and float(w.min()) < floor:
        raise ValueError(
            f"covariance matrix is not positive semidefinite "
            f"(eigenvalue {w.min():.3e} below tolerance {floor:.3e})"
        )
    w = np.clip(w, 0.0, None)
    return sym, w, v


def psd_factor(sigma, rel_tol: float = PSD_REL_TOL) -> np.ndarray:
    """A factor L with L @ L.T equal to the (clamped) PSD matrix."""
    sym, w, v = clamp_psd(sigma, rel_tol)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        # singular but PSD after clamping: eigen factor
        return v * np.sqrt(w)


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_vec(v) -> str:
    return ",".join(_fmt(x) for x in np.ravel(v))


class SpectralDistribution:
    """Base class of the spectral-law registry.

    Subclasses implement the closed-form CGF, its domain, the mean vector
    and a sampler.  All instances are immutable and safe to share.
    """

    family: str
    dim: int

    # domain -----------------------------------------------------------
    def domain_upper(self) -> np.ndarray:
        return np.full(self.dim, np.inf)

    def domain_lower(self) -> np.ndarray:
        return np.full(self.dim, -np.inf)

    def check_domain(self, t, margin: float = 0.0) -> np.ndarray:
        """Validate point(s) t against the open CGF domain.

        ``margin`` shrinks the domain on each bounded side (used by the
        finite-difference gradient).  Returns t as a float array.
        """
        t = np.asarray(t, dtype=float)
        pts = np.atleast_2d(t)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"expected points in R^{self.dim}, got shape {t.shape}")
        hi = self.domain_upper() - margin
        lo = self.domain_lower() + margin
        bad = (pts >= hi) | (pts <= lo)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DomainError(
                f"coordinate {j} of point {pts[i]} outside the CGF domain "
                f"of {self.family} (open interval ({lo[j]:g}, {hi[j]:g}))",
                coordinate=int(j),
            )
        return t

    # analytics --------------------------------------------------------
    def cgf(self, t):
        """phi(t) = log E exp(<X, t>); accepts a point or an (m, d) array."""
        raise NotImplementedError

    def cgf_gradient_closed(self, t):
        """Closed-form gradient, or None if the family has no closed form."""
        return None

    def mean(self) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, rng) -> np.ndarray:
        """n independent draws of X, shape (n, d); deterministic per rng state."""
        raise NotImplementedError

    def sample_tilted(self, t, n: int, rng) -> np.ndarray:
        """n draws from the exponentially tilted law e^{<x,t> - phi(t)} p(x).

        The tilt of each registry family stays in the family (gaussian: mean
        shift; exp/gamma: rate shift; uniform: explicit inverse CDF), which
        is what makes low-variance exponent estimation possible.  Every
        family draws through its ``tilted_sampler`` (``_tilted_draws``) and
        defines this method in its own class, where ``bench/tracer.py``
        wraps it per family.
        """
        raise NotImplementedError

    def tilted_sampler(self, ts):
        """The tilted laws at the rows of ts, an (m, d) array in the domain,
        as a pair ``(draw, tilt)``: draw(n, rng) gives n base rows, and
        tilt(rows, js) maps row r to a draw of X under the ts[js[r]]-tilted
        law (js an index array, or one index for all rows).  What the tilts
        need of ts is computed once, here.  Base rows are drawn one number
        after another, so n rows drawn at once equal n rows drawn one at a
        time, and each row is mapped on its own.
        """
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()!r})"


def _tilted_draws(dist: SpectralDistribution, t, n: int, rng) -> np.ndarray:
    """``sample_tilted`` of every family: n draws of its tilted sampler at t."""
    t = dist.check_domain(np.asarray(t, dtype=float))
    draw, tilt = dist.tilted_sampler(t[None, :])
    return tilt(draw(n, rng), 0)


@dataclass(frozen=True, eq=False)
class Gaussian(SpectralDistribution):
    mu: np.ndarray
    sigma: np.ndarray

    family = "gaussian"

    def __init__(self, mu, sigma):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        sym, _, _ = clamp_psd(sigma)
        if sym.shape[0] != mu.shape[0]:
            raise ValueError("mu and sigma dimensions disagree")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sym)
        object.__setattr__(self, "_factor", psd_factor(sym))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def cgf(self, t):
        t = self.check_domain(t)
        pts = np.atleast_2d(t)
        quad = np.einsum("md,de,me->m", pts, self.sigma, pts)
        val = pts @ self.mu + 0.5 * quad
        return float(val[0]) if t.ndim == 1 else val

    def cgf_gradient_closed(self, t):
        t = np.asarray(t, dtype=float)
        return self.sigma @ t + self.mu

    def mean(self) -> np.ndarray:
        return self.mu.copy()

    def sample(self, n: int, rng) -> np.ndarray:
        z = np.asarray(rng.standard_normal((int(n), self.dim)))
        return z @ self._factor.T + self.mu

    def sample_tilted(self, t, n: int, rng) -> np.ndarray:
        return _tilted_draws(self, t, n, rng)

    def tilted_sampler(self, ts):
        shift = ts @ self.sigma  # row j is Sigma t_j, Sigma being symmetric

        def draw(n, rng):
            return np.asarray(rng.standard_normal((int(n), self.dim)))

        def tilt(rows, js):
            return rows @ self._factor.T + self.mu + shift[js]

        return draw, tilt

    def spec_string(self) -> str:
        return f"gaussian:mu={_fmt_vec(self.mu)};sigma={_fmt_vec(self.sigma)}"

    def __eq__(self, other):
        return (
            isinstance(other, Gaussian)
            and np.array_equal(self.mu, other.mu)
            and np.array_equal(self.sigma, other.sigma)
        )


@dataclass(frozen=True, eq=False)
class Exponential(SpectralDistribution):
    """Independent exponential coordinates with rates lambda_j > 0."""

    rate: np.ndarray
    centered: bool

    family = "exp"

    def __init__(self, rate, centered: bool = False):
        rate = np.atleast_1d(np.asarray(rate, dtype=float))
        if np.any(rate <= 0):
            raise ValueError("exponential rates must be positive")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "centered", bool(centered))

    @property
    def dim(self) -> int:
        return self.rate.shape[0]

    def domain_upper(self) -> np.ndarray:
        return self.rate.copy()

    def cgf(self, t):
        t = self.check_domain(t)
        pts = np.atleast_2d(t)
        val = -np.log1p(-pts / self.rate).sum(axis=1)
        if self.centered:
            val = val - (pts / self.rate).sum(axis=1)
        return float(val[0]) if t.ndim == 1 else val

    def mean(self) -> np.ndarray:
        return np.zeros(self.dim) if self.centered else 1.0 / self.rate

    def sample(self, n: int, rng) -> np.ndarray:
        x = np.asarray(rng.exponential(size=(int(n), self.dim))) / self.rate
        if self.centered:
            x = x - 1.0 / self.rate
        return x

    def sample_tilted(self, t, n: int, rng) -> np.ndarray:
        return _tilted_draws(self, t, n, rng)

    def tilted_sampler(self, ts):
        rates = self.rate - ts

        def draw(n, rng):
            return np.asarray(rng.exponential(size=(int(n), self.dim)))

        def tilt(rows, js):
            x = rows / rates[js]
            return x - 1.0 / self.rate if self.centered else x

        return draw, tilt

    def spec_string(self) -> str:
        return f"exp:lambda={_fmt_vec(self.rate)};centered={'true' if self.centered else 'false'}"

    def __eq__(self, other):
        return (
            isinstance(other, Exponential)
            and np.array_equal(self.rate, other.rate)
            and self.centered == other.centered
        )


@dataclass(frozen=True, eq=False)
class Uniform(SpectralDistribution):
    """Independent uniform coordinates on [a_j, b_j]."""

    a: np.ndarray
    b: np.ndarray

    family = "uniform"

    def __init__(self, a, b):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != b.shape:
            raise ValueError("interval endpoint vectors disagree in length")
        if np.any(b <= a):
            raise ValueError("uniform intervals must have b > a")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def cgf(self, t):
        t = self.check_domain(t)
        pts = np.atleast_2d(t)
        # per coordinate: log((e^{bt} - e^{at}) / ((b-a) t)), with the
        # removable singularity at t=0 handled by its analytic limit.
        w = (self.b - self.a) * pts
        small = np.abs(pts) < UNIFORM_SMALL_T
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            core = np.where(
                w > 30.0,
                w - np.log(np.where(w > 30.0, w, 1.0)),
                np.where(
                    w < -30.0,
                    -np.log(np.where(w < -30.0, -w, 1.0)),
                    np.log(np.expm1(np.where(small, 1.0, w)) / np.where(small, 1.0, w)),
                ),
            )
        per_coord = np.where(small, pts * (self.a + self.b) / 2.0, self.a * pts + core)
        val = per_coord.sum(axis=1)
        return float(val[0]) if t.ndim == 1 else val

    def mean(self) -> np.ndarray:
        return (self.a + self.b) / 2.0

    def sample(self, n: int, rng) -> np.ndarray:
        return np.asarray(rng.uniform(self.a, self.b, size=(int(n), self.dim)))

    def sample_tilted(self, t, n: int, rng) -> np.ndarray:
        return _tilted_draws(self, t, n, rng)

    def tilted_sampler(self, ts):
        # inverse CDF of the density proportional to e^{t x} on [a, b]
        w = (self.b - self.a) * ts

        def draw(n, rng):
            return np.asarray(rng.uniform(size=(int(n), self.dim)))

        def tilt_at(u, j):
            out = np.empty_like(u)
            for c in range(self.dim):
                wc, tc = w[j, c], ts[j, c]
                if abs(tc) < UNIFORM_SMALL_T:
                    out[:, c] = self.a[c] + (self.b[c] - self.a[c]) * u[:, c]
                elif wc > 0:
                    # anchored at b: stable for arbitrarily large positive w
                    out[:, c] = self.b[c] + np.log(u[:, c] + (1 - u[:, c]) * math.exp(-wc)) / tc
                else:
                    out[:, c] = self.a[c] + np.log1p(u[:, c] * math.expm1(wc)) / tc
            return out

        def tilt(u, js):
            points = {js} if np.ndim(js) == 0 else set(js.tolist())
            if len(points) == 1:
                return tilt_at(u, points.pop())
            out = np.empty_like(u)
            for j in points:
                at = js == j
                out[at] = tilt_at(u[at], j)
            return out

        return draw, tilt

    def spec_string(self) -> str:
        return f"uniform:a={_fmt_vec(self.a)};b={_fmt_vec(self.b)}"

    def __eq__(self, other):
        return (
            isinstance(other, Uniform)
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
        )


@dataclass(frozen=True, eq=False)
class Gamma(SpectralDistribution):
    """Independent gamma coordinates with shape k_j and rate theta_j."""

    shape: np.ndarray
    rate: np.ndarray

    family = "gamma"

    def __init__(self, shape, rate):
        shape = np.atleast_1d(np.asarray(shape, dtype=float))
        rate = np.atleast_1d(np.asarray(rate, dtype=float))
        if shape.shape != rate.shape:
            raise ValueError("shape and rate vectors disagree in length")
        if np.any(shape <= 0) or np.any(rate <= 0):
            raise ValueError("gamma shape and rate must be positive")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rate", rate)

    @property
    def dim(self) -> int:
        return self.shape.shape[0]

    def domain_upper(self) -> np.ndarray:
        return self.rate.copy()

    def cgf(self, t):
        t = self.check_domain(t)
        pts = np.atleast_2d(t)
        val = (-self.shape * np.log1p(-pts / self.rate)).sum(axis=1)
        return float(val[0]) if t.ndim == 1 else val

    def mean(self) -> np.ndarray:
        return self.shape / self.rate

    def sample(self, n: int, rng) -> np.ndarray:
        return np.asarray(rng.gamma(self.shape, 1.0 / self.rate, size=(int(n), self.dim)))

    def sample_tilted(self, t, n: int, rng) -> np.ndarray:
        return _tilted_draws(self, t, n, rng)

    def tilted_sampler(self, ts):
        # a gamma draw with scale s is s times a standard gamma draw
        scales = 1.0 / (self.rate - ts)

        def draw(n, rng):
            return np.asarray(rng.standard_gamma(self.shape, size=(int(n), self.dim)))

        def tilt(rows, js):
            return rows * scales[js]

        return draw, tilt

    def spec_string(self) -> str:
        return f"gamma:k={_fmt_vec(self.shape)};theta={_fmt_vec(self.rate)}"

    def __eq__(self, other):
        return (
            isinstance(other, Gamma)
            and np.array_equal(self.shape, other.shape)
            and np.array_equal(self.rate, other.rate)
        )


# ---------------------------------------------------------------------------
# operations


def cgf(dist: SpectralDistribution, t) -> float:
    """phi(t) = log E exp(<X, t>) at a single point t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return float(dist.cgf(t))


def cgf_multi(dist: SpectralDistribution, ts, weights: "SimplexWeights") -> float:
    """Centered multivariate CGF: phi(sum u_i t_i) - sum u_i phi(t_i).

    By convexity of phi (Jensen) the value is always <= 0 for simplex
    weights.
    """
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    u = weights.u if isinstance(weights, SimplexWeights) else SimplexWeights(weights).u
    if len(u) != ts.shape[0]:
        raise ValueError("number of weights must match number of points")
    combo = u @ ts
    return float(dist.cgf(combo)) - float(u @ np.asarray(dist.cgf(ts)))


def cgf_gradient(dist: SpectralDistribution, t) -> np.ndarray:
    """Gradient of phi at t: closed form for the gaussian family, central
    finite differences (step FD_STEP * max(1, ||t||)) otherwise.

    Rejects points within one finite-difference step of the domain boundary.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    closed = dist.cgf_gradient_closed(t)
    if closed is not None:
        dist.check_domain(t)
        return np.asarray(closed, dtype=float)
    h = FD_STEP * max(1.0, float(np.linalg.norm(t)))
    dist.check_domain(t, margin=h)
    grad = np.empty(dist.dim)
    for j in range(dist.dim):
        tp = t.copy()
        tm = t.copy()
        tp[j] += h
        tm[j] -= h
        grad[j] = (dist.cgf(tp) - dist.cgf(tm)) / (2.0 * h)
    return grad


def sample(dist: SpectralDistribution, n: int, rng) -> np.ndarray:
    """n independent draws of X, shape (n, d)."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    return dist.sample(n, rng)


# ---------------------------------------------------------------------------
# shape function and simplex weights


@dataclass(frozen=True)
class SimplexWeights:
    """Weights u_1..u_n in [0, 1] summing to 1 (renormalized on construction)."""

    u: np.ndarray

    def __init__(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
            raise ValueError("simplex weights must lie in [0, 1]")
        u = np.clip(u, 0.0, 1.0)
        total = u.sum()
        if total <= 0:
            raise ValueError("simplex weights must have positive sum")
        u = u / total
        object.__setattr__(self, "u", u)

    def __len__(self):
        return len(self.u)


class ShapeFunction:
    """The normalizer kappa(t) in the max-stable construction.

    Two kinds: the CGF of a spectral law (which has kappa(0) = 0), or an
    explicit quadratic <mu, t> + 0.5 <t, Sigma t> + c0.
    """

    def __init__(self, kind: str, *, dist=None, mu=None, sigma=None, c0=0.0):
        if kind not in ("cgf", "quadratic"):
            raise ValueError(f"unknown shape-function kind {kind!r}")
        self.kind = kind
        if kind == "cgf":
            if dist is None:
                raise ValueError("cgf shape function requires a distribution")
            self.dist = dist
        else:
            self.mu = np.atleast_1d(np.asarray(mu, dtype=float))
            self.sigma, _, _ = clamp_psd(sigma)
            if self.sigma.shape[0] != self.mu.shape[0]:
                raise ValueError("mu and sigma dimensions disagree")
            self.c0 = float(c0)

    @classmethod
    def from_cgf(cls, dist: SpectralDistribution) -> "ShapeFunction":
        return cls("cgf", dist=dist)

    @classmethod
    def quadratic(cls, mu, sigma, c0: float = 0.0) -> "ShapeFunction":
        return cls("quadratic", mu=mu, sigma=sigma, c0=c0)

    def values(self, points) -> np.ndarray:
        """kappa at an (m, d) array of points, shape (m,)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "cgf":
            return np.asarray(self.dist.cgf(pts), dtype=float)
        quad = np.einsum("md,de,me->m", pts, self.sigma, pts)
        return pts @ self.mu + 0.5 * quad + self.c0

    def __call__(self, t) -> float:
        return float(self.values(np.atleast_1d(np.asarray(t, dtype=float))[None, :])[0])


# ---------------------------------------------------------------------------
# specification strings


def _parse_params(body: str, spec: str) -> dict:
    params = {}
    for part in body.split(";"):
        if not part:
            continue
        if "=" not in part:
            raise SpecParseError(f"malformed parameter {part!r} in {spec!r}")
        key, _, value = part.partition("=")
        params[key.strip()] = value.strip()
    return params


def _parse_vec(s: str, spec: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in s.split(",")])
    except ValueError as exc:
        raise SpecParseError(f"bad numeric list {s!r} in {spec!r}") from exc


def parse_distribution(spec: str) -> SpectralDistribution:
    """Parse a ``family:param=value;...`` specification string.

    Examples: ``gaussian:mu=0,0;sigma=1,0.5,0.5,1`` (row-major Sigma),
    ``exp:lambda=1;centered=false``, ``uniform:a=0;b=1``,
    ``gamma:k=2;theta=1``.
    """
    family, _, body = spec.strip().partition(":")
    family = family.strip().lower()
    params = _parse_params(body, spec)
    try:
        if family == "gaussian":
            mu = _parse_vec(params.pop("mu"), spec)
            flat = _parse_vec(params.pop("sigma"), spec)
            d = mu.shape[0]
            if flat.size != d * d:
                raise SpecParseError(
                    f"sigma must have {d * d} entries (row-major) in {spec!r}"
                )
            dist = Gaussian(mu, flat.reshape(d, d))
        elif family in ("exp", "exponential"):
            rate = _parse_vec(params.pop("lambda"), spec)
            centered = params.pop("centered", "false").lower()
            if centered not in ("true", "false"):
                raise SpecParseError(f"centered must be true/false in {spec!r}")
            dist = Exponential(rate, centered == "true")
        elif family == "uniform":
            dist = Uniform(_parse_vec(params.pop("a"), spec), _parse_vec(params.pop("b"), spec))
        elif family == "gamma":
            dist = Gamma(_parse_vec(params.pop("k"), spec), _parse_vec(params.pop("theta"), spec))
        else:
            raise SpecParseError(f"unknown distribution family {family!r} in {spec!r}")
    except KeyError as exc:
        raise SpecParseError(f"missing parameter {exc.args[0]!r} in {spec!r}") from exc
    if params:
        raise SpecParseError(f"unknown parameters {sorted(params)} in {spec!r}")
    return dist


def format_distribution(dist: SpectralDistribution) -> str:
    """Canonical specification string; parse(format(d)) == d."""
    return dist.spec_string()


REGISTRY = ("gaussian", "exp", "uniform", "gamma")


def registry_examples(d: int = 1) -> list:
    """One representative instance per family (used by experiments/tests)."""
    return [
        Gaussian(np.zeros(d), np.eye(d)),
        Exponential(np.ones(d)),
        Uniform(np.zeros(d), np.ones(d)),
        Gamma(2.0 * np.ones(d), np.ones(d)),
    ]
