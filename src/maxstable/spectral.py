"""Spectral laws and their cumulant generating functions (CGFs).

The analytic backbone of the toolkit: a closed registry of d-variate
spectral laws -- gaussian, exponential (gamma of shape 1), uniform and
gamma, with independent coordinates for the non-gaussian families.  Each
family states its law once: a closed-form CGF phi(t) = log E exp(<X, t>)
on its domain, a closed-form gradient, a tilted sampler and its spec
keys; ``SpectralDistribution`` derives the rest, and nothing is
differentiated numerically.  Every quantity of a law is asked of the law
itself, at a point or at rows.  ``parse_spec`` reads every spec string.
"""
from __future__ import annotations

import math

import numpy as np

from .frozen import Frozen

# Eigenvalues of a covariance matrix in [-PSD_REL_TOL * lam_max, 0) are
# treated as round-off and clamped to zero; anything more negative is a
# hard error.
PSD_REL_TOL = 1e-10

# Below this |w_j|, w_j = (b_j - a_j) t_j, the uniform tilted sampler draws
# from the untilted law: the tilt's shape depends on t_j only through w_j.
UNIFORM_SMALL_T = 1e-8

# Taylor coefficients 1/(2k + 1)!, k = 1..8, of sinh v / v - 1 in v^2; the
# eight terms reach round-off for |v| <= 1
_SINHC_TERMS = tuple(1.0 / math.factorial(2 * k + 1) for k in range(1, 9))


class DomainError(ValueError):
    """A query point lies outside the CGF domain of a spectral law."""

    def __init__(self, message: str, coordinate: int | None = None):
        super().__init__(message)
        self.coordinate = coordinate


class SpecParseError(ValueError):
    """A specification string could not be parsed."""


def clamp_psd(sigma, rel_tol: float = PSD_REL_TOL):
    """Validate a symmetric PSD matrix, clamping round-off negatives.

    Returns ``(clamped, eigvals, eigvecs)`` where ``eigvals`` are the
    clamped eigenvalues.  Raises ValueError for genuinely indefinite input.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance matrix must be square, got shape {sigma.shape}")
    scale = np.abs(sigma).max() if sigma.size else 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        if scale > 0 and np.abs(sigma - sigma.T).max() > 1e-8 * scale:
            raise ValueError("covariance matrix is not symmetric")
        twice = sigma + sigma.T
    if not np.all(np.isfinite(twice)):
        raise ValueError(f"covariance matrix entries are too large: Sigma + Sigma^T overflows "
                         f"(largest |entry| {scale:.3g})")
    sym = 0.5 * twice
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


def psd_factor(sym, rel_tol: float = PSD_REL_TOL) -> np.ndarray:
    """L with L @ L.T = sym for a symmetric PSD ``sym``: Cholesky, or if that
    fails the eigen factor of ``clamp_psd``, which rejects indefinite input."""
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        _, w, v = clamp_psd(sym, rel_tol)
        return v * np.sqrt(w)


def ordered_dot(x, t) -> np.ndarray:
    """<x, t> over the last axis, broadcast, summed in coordinate order.

    Each entry is the same fixed sequence of roundings wherever it sits, so
    a row's products do not depend on the other rows of its batch, and one
    entry taken alone equals the same entry of a whole matrix bit for bit;
    a BLAS product gives neither for d >= 2."""
    out = x[..., 0] * t[..., 0]
    for k in range(1, x.shape[-1]):
        out += x[..., k] * t[..., k]
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_vec(v) -> str:
    return ",".join(_fmt(x) for x in np.ravel(v))


# ---------------------------------------------------------------------------
# specification strings


def parse_spec(spec: str, kinds: dict):
    """``make(*read(take))`` for the kind a ``kind:key=value;...`` string names.

    ``kinds`` maps each kind, in lower case, to ``(make, read)``; ``take(key,
    default=None)`` gives a value's text, stripped (no default: the key must
    be given).  A part without '=', a repeated key, an unknown kind, a
    missing key, a key not taken and a value ``read`` cannot read each raise
    SpecParseError; a value ``make`` rejects raises its own ValueError."""
    name, _, body = spec.partition(":")
    kind = name.strip().lower()
    if kind not in kinds:
        known = ", ".join(kinds)
        raise SpecParseError(f"unknown kind {name.strip()!r} in {spec!r} (expected one of {known})")
    make, read = kinds[kind]
    texts = {}
    for part in body.split(";"):
        key, eq, value = (s.strip() for s in part.partition("="))
        if not (eq or key):
            continue
        if not eq:
            raise SpecParseError(f"malformed parameter {part!r} in {spec!r} (expected key=value)")
        if key in texts:
            raise SpecParseError(f"repeated parameter {key!r} in {spec!r}")
        texts[key] = value

    def take(key, default=None):
        if default is None and key not in texts:
            raise SpecParseError(f"missing parameter {key!r}")
        return texts.pop(key, default)

    try:
        args = read(take)
    except SpecParseError as exc:
        raise SpecParseError(f"{exc} in {spec!r}") from exc
    if texts:
        raise SpecParseError(f"unknown parameter {next(iter(texts))!r} in {spec!r}")
    return make(*args)


def parse_numbers(text: str, size: int | None = None) -> np.ndarray:
    """Comma-separated finite numbers, ``size`` of them if given."""
    try:
        vec = np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise SpecParseError(f"bad number list {text!r}") from exc
    if not np.all(np.isfinite(vec)):
        raise SpecParseError(f"non-finite number in {text!r}")
    if size is not None and vec.size != size:
        raise SpecParseError(f"expected {size} number(s), got {text!r}")
    return vec


def parse_matrix(text: str) -> np.ndarray:
    """A square matrix from its row-major entries, comma-separated."""
    vec = parse_numbers(text)
    d = math.isqrt(vec.size)
    if d * d != vec.size:
        raise SpecParseError(f"matrix {text!r} must have a square number of entries (row-major)")
    return vec.reshape(d, d)


# ---------------------------------------------------------------------------
# the registry


class SpectralDistribution:
    """Base class of the spectral-law registry.  A family states its law
    and nothing else: ``_cgf`` and ``_gradient``, the CGF and its gradient
    at the rows of an (m, d) array inside the domain; ``tilted_sampler``;
    its domain, if not all of R^d; and ``_spec``, its spec keys in spec
    order as (key, field, reader) entries, the fields in constructor
    order.  It binds ``sample, sample_tilted = _draws, _tilted_draws`` in
    its own class body.  The base derives the rest from that one
    statement: ``cgf`` and ``gradient`` at a point (a scalar is a point of
    a 1-D law) or at rows, behind the one domain check; ``dim``, the
    length of the first field; the mean; the round-off scale
    ``term_scale``; ``spec_string`` and the repr; and the parse, through
    ``_DISTRIBUTIONS``.  All instances are immutable and safe to share."""

    family: str
    _spec: tuple = ()

    @property
    def dim(self) -> int:
        return len(getattr(self, self._fields[0]))

    # domain -----------------------------------------------------------
    def domain_upper(self) -> np.ndarray:
        return np.full(self.dim, np.inf)

    def domain_lower(self) -> np.ndarray:
        return np.full(self.dim, -np.inf)

    def inside(self, pts) -> np.ndarray:
        """Which coordinates of pts lie in the open CGF domain, lo < x < hi
        (so nan never does)."""
        return (pts > self.domain_lower()) & (pts < self.domain_upper())

    def check_domain(self, t) -> np.ndarray:
        """Validate point(s) t against the open CGF domain; returns t as a
        float array."""
        t = np.asarray(t, dtype=float)
        pts = np.atleast_2d(t)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"expected points in R^{self.dim}, got shape {t.shape}")
        inside = self.inside(pts)
        if not inside.all():
            i, j = np.argwhere(~inside)[0]
            raise DomainError(
                f"coordinate {j} of point {pts[i]} outside the CGF domain "
                f"of {self.family} (open interval ({self.domain_lower()[j]:g}, "
                f"{self.domain_upper()[j]:g}))",
                coordinate=int(j),
            )
        return t

    # analytics --------------------------------------------------------
    def cgf(self, t):
        """phi(t) = log E exp(<X, t>): a float at a point, shape (m,) at the
        rows of an (m, d) array."""
        t = self.check_domain(t)
        val = self._cgf(np.atleast_2d(t))
        return float(val[0]) if t.ndim < 2 else val

    def _cgf(self, pts) -> np.ndarray:
        """phi at the rows of an (m, d) array inside the domain, shape (m,),
        each row on its own: a point's value is its row's in any batch."""
        raise NotImplementedError

    def gradient(self, t) -> np.ndarray:
        """grad phi(t), in closed form: shape (d,) at a point, (m, d) at the
        rows of an (m, d) array."""
        t = self.check_domain(t)
        grad = self._gradient(np.atleast_2d(t))
        return grad[0] if t.ndim < 2 else grad

    def _gradient(self, pts) -> np.ndarray:
        """grad phi at the rows of an (m, d) array inside the domain, shape
        (m, d), each row on its own."""
        raise NotImplementedError

    def mean(self) -> np.ndarray:
        """E[X] = grad phi(0)."""
        return self._gradient(np.zeros((1, self.dim)))[0]

    def term_scale(self, pts) -> np.ndarray:
        """Size of the terms phi adds up at each row of an (m, d) array, the
        scale of its round-off, each row on its own: sum_i |E[X_i] p_i|
        unless the family knows more terms."""
        return np.abs(pts * self.mean()).sum(axis=1)

    def tilted_sampler(self, ts):
        """The tilted laws e^{<x,t> - phi(t)} p(x) at the rows t of ts, an
        (m, d) array in the domain, as a pair ``(draw, tilt)``: draw(n, rng)
        gives n base rows, and tilt(rows, js) maps row r to a draw of X
        under the ts[js[r]]-tilted law (js an index array, or one index for
        all rows).  The tilt stays in the family (gaussian: mean shift;
        exp/gamma: rate shift; uniform: explicit inverse CDF), which is what
        makes low-variance exponent estimation possible.  What the tilts
        need of ts is computed once, here.  Base rows are drawn one number
        after another, so n rows drawn at once equal n rows drawn one at a
        time, and each row is mapped on its own.
        """
        raise NotImplementedError

    def spec_string(self) -> str:
        fields = ";".join(f"{key}={_fmt_vec(getattr(self, field))}" for key, field, _ in self._spec)
        return f"{self.family}:{fields}"

    @classmethod
    def _read_spec(cls, take) -> tuple:
        """The constructor's arguments, read key by key from ``parse_spec``'s take."""
        return tuple(read(take(key)) for key, _, read in cls._spec)

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()!r})"


def _tilted_draws(dist: SpectralDistribution, t, n: int, rng) -> np.ndarray:
    """``sample_tilted`` of every family: n draws of its tilted sampler at
    the one point t (a scalar for a 1-D law), shape (n, d).  No package
    code calls it or ``sample``; both stay, bound in each family's class,
    because the benchmark's tracer (``bench/tracer.py``) wraps them per
    family: with ``cgf_multi`` they are the only spectral names it wraps
    (ROADMAP item 1)."""
    t = dist.check_domain(t)
    if t.ndim > 1:
        raise ValueError(f"sample_tilted draws at one point t, got an array of shape {t.shape}")
    draw, tilt = dist.tilted_sampler(t.reshape(1, -1))
    return tilt(draw(n, rng), 0)


def _draws(dist: SpectralDistribution, n: int, rng) -> np.ndarray:
    """``sample`` of every family: n independent draws of X, shape (n, d),
    the tilted sampler at t = 0; deterministic per rng state."""
    return _tilted_draws(dist, np.zeros(dist.dim), n, rng)


def _sinhc_series(v2):
    """sinh v / v - 1 at v^2 = v2 <= 1, by its eight-term Taylor series."""
    series = 0.0
    for c in reversed(_SINHC_TERMS):
        series = (series + c) * v2
    return series


class Gaussian(SpectralDistribution, Frozen):
    _fields = ("mu", "sigma")
    family = "gaussian"
    _spec = (("mu", "mu", parse_numbers), ("sigma", "sigma", parse_matrix))
    sample, sample_tilted = _draws, _tilted_draws

    def __init__(self, mu, sigma):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        sym, _, _ = clamp_psd(sigma)
        if sym.shape[0] != mu.shape[0]:
            raise ValueError("mu and sigma dimensions disagree")
        self._set_fields(mu, sym)
        object.__setattr__(self, "_factor", psd_factor(sym))

    def _cgf(self, pts):
        # <t, mu> + 0.5 <Sigma t, t>, summed in coordinate order: a point's
        # value is its row's in any batch, as BLAS and einsum do not give
        return ordered_dot(pts, self.mu) + 0.5 * ordered_dot(ordered_dot(pts[:, None, :], self.sigma), pts)

    def _gradient(self, pts):
        # Sigma t + mu, Sigma being symmetric
        return ordered_dot(pts[:, None, :], self.sigma) + self.mu

    def term_scale(self, pts) -> np.ndarray:
        # sum_i |mu_i p_i| + 0.5 |p|^T |Sigma| |p|, in coordinate order as
        # _cgf: the linear and quadratic terms may cancel
        size = np.abs(pts)
        quadratic = ordered_dot(ordered_dot(size[:, None, :], np.abs(self.sigma)), size)
        return ordered_dot(size, np.abs(self.mu)) + 0.5 * quadratic

    def tilted_sampler(self, ts):
        mean = self._gradient(ts)  # the t_j-tilted law is N(grad phi(t_j), Sigma)

        def draw(n, rng):
            return np.asarray(rng.standard_normal((int(n), self.dim)))

        def tilt(rows, js):
            return ordered_dot(rows[:, None, :], self._factor) + mean[js]

        return draw, tilt


class Uniform(SpectralDistribution, Frozen):
    """Independent uniform coordinates on [a_j, b_j]."""

    _fields = ("a", "b")
    family = "uniform"
    _spec = (("a", "a", parse_numbers), ("b", "b", parse_numbers))
    sample, sample_tilted = _draws, _tilted_draws

    def __init__(self, a, b):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != b.shape:
            raise ValueError("interval endpoint vectors disagree in length")
        if np.any(b <= a):
            raise ValueError("uniform intervals must have b > a")
        self._set_fields(a, b)

    def _cgf(self, pts):
        # per coordinate: m t + log(sinh v / v), with m = (a + b) / 2 and
        # v = (b - a) t / 2; below |v| = 1 the log is log1p of the Taylor
        # series of sinh v / v - 1
        v = np.abs(0.5 * (self.b - self.a) * pts)
        series = _sinhc_series(np.minimum(v, 1.0) ** 2)
        big = np.maximum(v, 1.0)
        log_sinhc = np.where(
            v < 1.0, np.log1p(series), big + np.log1p(-np.exp(-2.0 * big)) - np.log(2.0 * big)
        )
        return (0.5 * (self.a + self.b) * pts + log_sinhc).sum(axis=1)

    def _gradient(self, pts):
        # per coordinate: m + h (coth v - 1/v), with h = (b - a) / 2 and
        # v = h t; below |v| = 1, the derivative of cgf's series over 1 plus
        # the series, so nothing cancels
        h = 0.5 * (self.b - self.a)
        v = h * pts
        near = np.abs(v) < 1.0
        v2 = np.minimum(np.abs(v), 1.0) ** 2
        slope = 0.0
        for k in range(len(_SINHC_TERMS), 0, -1):
            slope = slope * v2 + 2 * k * _SINHC_TERMS[k - 1]
        far = np.where(near, 1.0, v)
        g = np.where(near, v * slope / (1.0 + _sinhc_series(v2)), 1.0 / np.tanh(far) - 1.0 / far)
        return 0.5 * (self.a + self.b) + h * g

    def tilted_sampler(self, ts):
        # inverse CDF of the density proportional to e^{t x} on [a, b], per
        # coordinate: flat below |w| = UNIFORM_SMALL_T, else anchored at b
        # where w = (b - a) t > 0 (stable for arbitrarily large w), else at
        # a.  Each table is filled only where its branch is taken (e^{-w}
        # overflows at w < -709); 1 and 0 elsewhere keep the others finite.
        w = (self.b - self.a) * ts
        flat = np.abs(w) < UNIFORM_SMALL_T
        up = ~flat & (w > 0)
        divisor = np.where(flat, 1.0, ts)
        exp_neg = np.array([math.exp(-x) if x > 0 else 1.0 for x in w.ravel()]).reshape(w.shape)
        expm1 = np.array([math.expm1(x) if x <= 0 else 0.0 for x in w.ravel()]).reshape(w.shape)

        def draw(n, rng):
            return np.asarray(rng.uniform(size=(int(n), self.dim)))

        def tilt(u, js):
            t = divisor[js]
            curved = np.where(up[js], self.b + np.log(u + (1 - u) * exp_neg[js]) / t,
                              self.a + np.log1p(u * expm1[js]) / t)
            return np.where(flat[js], self.a + (self.b - self.a) * u, curved)

        return draw, tilt


class Gamma(SpectralDistribution, Frozen):
    """Independent gamma coordinates with shape k_j and rate theta_j."""

    _fields = ("shape", "rate")
    family = "gamma"
    _spec = (("k", "shape", parse_numbers), ("theta", "rate", parse_numbers))
    sample, sample_tilted = _draws, _tilted_draws

    def __init__(self, shape, rate):
        shape = np.atleast_1d(np.asarray(shape, dtype=float))
        rate = np.atleast_1d(np.asarray(rate, dtype=float))
        if shape.shape != rate.shape:
            raise ValueError("shape and rate vectors disagree in length")
        if np.any(shape <= 0) or np.any(rate <= 0):
            raise ValueError("gamma shape and rate must be positive")
        self._set_fields(shape, rate)

    def domain_upper(self) -> np.ndarray:
        return self.rate.copy()

    def _cgf(self, pts):
        return (-self.shape * np.log1p(-pts / self.rate)).sum(axis=1)

    def _gradient(self, pts):
        return self.shape / (self.rate - pts)

    def tilted_sampler(self, ts):
        # a gamma draw with scale s is s times a standard gamma draw
        scales = 1.0 / (self.rate - ts)
        # numpy fills the rows in C order from a scalar shape and from a
        # shape array alike, so a shape shared by every coordinate passes as
        # a float: the same draws, without numpy's per-element broadcast loop
        shape = float(self.shape[0]) if np.all(self.shape == self.shape[0]) else self.shape

        def draw(n, rng):
            return np.asarray(rng.standard_gamma(shape, size=(int(n), self.dim)))

        def tilt(rows, js):
            return rows * scales[js]

        return draw, tilt


class Exponential(Gamma):
    """Independent exponential coordinates with rates lambda_j > 0: the
    gamma law of shape 1, whose standard draws are numpy's exponentials."""

    family = "exp"
    _spec = (("lambda", "rate", parse_numbers),)
    sample, sample_tilted = _draws, _tilted_draws

    def __init__(self, rate):
        rate = np.atleast_1d(np.asarray(rate, dtype=float))
        if np.any(rate <= 0):
            raise ValueError("exponential rates must be positive")
        super().__init__(np.ones_like(rate), rate)


_DISTRIBUTIONS = {cls.family: (cls, cls._read_spec) for cls in (Gaussian, Exponential, Uniform, Gamma)}


def parse_distribution(spec: str) -> SpectralDistribution:
    """A spectral law from its spec, such as ``gaussian:mu=0,0;sigma=1,0.5,0.5,1``
    (row-major Sigma), ``exp:lambda=1``, ``uniform:a=0;b=1``
    or ``gamma:k=2;theta=1``."""
    return parse_spec(spec, _DISTRIBUTIONS)


# ---------------------------------------------------------------------------
# operations


def cgf_multi(dist: SpectralDistribution, ts, weights: "SimplexWeights") -> float:
    """Centered multivariate CGF: phi(sum u_i t_i) - sum u_i phi(t_i).

    By convexity of phi (Jensen) the value is always <= 0 for simplex
    weights.
    """
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    u = weights.u if isinstance(weights, SimplexWeights) else SimplexWeights(weights).u
    if len(u) != ts.shape[0]:
        raise ValueError("number of weights must match number of points")
    return dist.cgf(u @ ts) - float(u @ dist.cgf(ts))


# ---------------------------------------------------------------------------
# shape function and simplex weights


class SimplexWeights(Frozen):
    """Weights u_1..u_n in [0, 1] summing to 1 (renormalized on construction)."""

    _fields = ("u",)

    def __init__(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
            raise ValueError("simplex weights must lie in [0, 1]")
        u = np.clip(u, 0.0, 1.0)
        total = u.sum()
        if total <= 0:
            raise ValueError("simplex weights must have positive sum")
        u = u / total
        self._set_fields(u)

    def __len__(self):
        return len(self.u)


class ShapeFunction(Frozen):
    """The normalizer kappa(t) = phi_law(t) + c0 in the max-stable
    construction: the CGF of a spectral law plus a constant.  The
    characterization reads kappa only through kappa(t) - kappa(0), which
    must be a CGF, so this is every kappa it admits."""

    _fields = ("law", "c0")

    def __init__(self, law: SpectralDistribution, c0: float = 0.0):
        self._set_fields(law, c0)

    @classmethod
    def quadratic(cls, mu, sigma, c0: float = 0.0) -> "ShapeFunction":
        """<mu, t> + 0.5 <t, Sigma t> + c0, the gaussian(mu, Sigma) CGF plus c0."""
        return cls(Gaussian(mu, sigma), float(c0))

    def values(self, t):
        """kappa(t): a float at a point, shape (m,) at the rows of an (m, d) array."""
        return self.law.cgf(t) + self.c0


def parse_kappa(spec: str, dist: SpectralDistribution) -> ShapeFunction:
    """The normalizer spec: ``cgf``, the CGF of dist, or
    ``quadratic:mu=..;sigma=..;c0=..`` (c0 = 0 unless given), which must
    have dist's dimension."""
    kappa = parse_spec(spec, {
        "cgf": (ShapeFunction, lambda take: (dist,)),
        "quadratic": (ShapeFunction.quadratic, lambda take: (parse_numbers(take("mu")),
                      parse_matrix(take("sigma")), parse_numbers(take("c0", "0"), 1)[0])),
    })
    if kappa.law.dim != dist.dim:
        raise SpecParseError(f"kappa {spec!r} is in R^{kappa.law.dim}, but the law "
                             f"{dist.spec_string()!r} is in R^{dist.dim}")
    return kappa

