"""Field simulators for the four max-stable constructions.

The general, Smith (gaussian X, quadratic kappa) and Brown-Resnick
constructions share one exact engine, simulation by extremal functions
(Dombry, Engelke & Oesting, Biometrika 2016; for Brown-Resnick also
Dieker & Mikosch, Extremes 2015).  It visits the grid locations in order
and draws, at each, Poisson arrivals whose spectral functions come from
the law tilted at that location, until the arrivals fall below the field
there; a candidate that beats the field at an earlier location is
rejected.  It costs about one spectral draw per grid location, and every
grid value has the exact law of the infinite max.  A construction only
supplies log Y = log(W / W(t_j)) under the t_j-tilted law: the family's
``tilted_sampler`` for general and Smith, Gaussian increments from one
covariance factor for Brown-Resnick.  The engine works in log space and
exponentiates once, so a single huge value cannot overflow intermediate
arithmetic.  ``n_points`` is a loop guard, not a truncation: the most
spectral draws at one grid location; a field that needs more raises
ValueError.  The moving-maxima construction uses an exact-on-grid
stopping rule with an explicit edge-error bound.

Randomness layout: the engine splits its generator into two child
streams, arrivals (one standard exponential per arrival) and spectral
draws (one base row per candidate), each consumed in the algorithm's
order.  Both are read ahead in blocks of _BLOCK, and what a location does
not consume goes to the next, so the output does not depend on the block
size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the benchmark's tracer tests still look frechet_cascade up on this module
from .pointproc import frechet_cascade, window_volume  # noqa: F401
from .seeding import spawn
from .spectral import (
    Gaussian,
    ShapeFunction,
    SpectralDistribution,
    clamp_psd,
    psd_factor,
)

DEFAULT_N_POINTS = 10_000  # most spectral draws at one grid location unless a caller asks otherwise
_LOG_MAX = math.log(np.finfo(float).max)
_BLOCK = 64  # arrivals and spectral base rows read ahead at a time
_BATCH_CELLS = 1 << 15  # most candidate-by-location values scored at once
_STORM_CHUNK = 256
_MAX_STORMS = 2_000_000
_DUPLICATE_TOL = 1e-12


def has_duplicate_points(points) -> bool:
    """True when two rows of an (m, d) array lie within _DUPLICATE_TOL.

    Exact: rows are sorted by their projection on a fixed unit vector v,
    and since |<v, p - q>| <= ||p - q||, only rows whose projections lie
    within the tolerance (plus a round-off margin) are compared in full.
    """
    m, d = points.shape
    # irrational coordinate ratios: lattice grids have no ties in projection
    v = np.sqrt(np.arange(2.0, d + 2.0))
    proj = points @ (v / np.linalg.norm(v))
    order = np.argsort(proj)
    proj, pts = proj[order], points[order]
    window = _DUPLICATE_TOL + 8 * d * np.finfo(float).eps * float(np.abs(pts).max(initial=0.0))
    lo = np.arange(m)
    lag = 1
    while lo.size:
        lo = lo[lo + lag < m]
        lo = lo[proj[lo + lag] - proj[lo] <= window]
        if np.any(np.linalg.norm(pts[lo + lag] - pts[lo], axis=1) <= _DUPLICATE_TOL):
            return True
        lag += 1
    return False


@dataclass(frozen=True)
class Grid:
    """Finite set of evaluation locations in R^d (no duplicates)."""

    locations: np.ndarray

    def __init__(self, locations):
        pts = np.asarray(locations, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("grid must be a non-empty (m, d) array of locations")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid locations must be finite")
        if pts.shape[0] > 1 and has_duplicate_points(pts):
            raise ValueError(f"grid contains duplicate locations (tolerance {_DUPLICATE_TOL:g})")
        object.__setattr__(self, "locations", pts)

    @property
    def size(self) -> int:
        return self.locations.shape[0]

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    def validate_domain(self, dist: SpectralDistribution):
        """For CGF-bounded spectral families all locations must be inside."""
        dist.check_domain(self.locations)


@dataclass(frozen=True)
class Field:
    """One simulated realization: positive values on Frechet scale."""

    grid: Grid
    values: np.ndarray
    provenance: dict

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.size,):
            raise ValueError("field values must match the grid size")
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise ValueError("field values must be strictly positive and finite")
        object.__setattr__(self, "values", vals)


class Variogram:
    """Variogram gamma(h) >= 0 with gamma(0) = 0, gamma(h) = gamma(-h).

    Kinds: fractional  gamma(h) = scale * ||h||^alpha, alpha in (0, 2];
           quadratic   gamma(h) = <h, Sigma h> with Sigma PSD.
    """

    def __init__(self, kind: str, *, scale=None, alpha=None, sigma=None):
        self.kind = kind
        if kind == "fractional":
            self.scale = float(scale)
            self.alpha = float(alpha)
            if self.scale <= 0:
                raise ValueError("variogram scale must be positive")
            if not 0.0 < self.alpha <= 2.0:
                raise ValueError("variogram exponent must lie in (0, 2]")
        elif kind == "quadratic":
            self.sigma, _, _ = clamp_psd(sigma)
        else:
            raise ValueError(f"unknown variogram kind {kind!r}")

    @classmethod
    def fractional(cls, scale: float, alpha: float) -> "Variogram":
        return cls("fractional", scale=scale, alpha=alpha)

    @classmethod
    def quadratic(cls, sigma) -> "Variogram":
        return cls("quadratic", sigma=sigma)

    def __call__(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        pts = np.atleast_2d(h) if h.ndim <= 1 else h
        if self.kind == "fractional":
            out = self.scale * np.linalg.norm(pts, axis=-1) ** self.alpha
        else:
            out = np.einsum("...d,de,...e->...", pts, self.sigma, pts)
        return out


# ---------------------------------------------------------------------------
# exact simulation by extremal functions


def _extremal_log_field(m, draw, log_y, n_points, rng):
    """log Z on m grid locations, exactly, by extremal functions (Dombry,
    Engelke & Oesting, Biometrika 2016, Algorithm 2).

    Location t_j runs its own Poisson process of arrivals zeta = 1 / Gamma
    while zeta > Z(t_j).  Each arrival is a candidate zeta * Y, where
    Y = W / W(t_j) is drawn under the t_j-tilted law; it is kept iff it
    stays below Z at t_1 ... t_{j-1}, and then Z = max(Z, zeta * Y).  A kept
    candidate sets Z(t_j) = zeta, so it is the last candidate at t_j.

    draw(n, rng_x) gives n base rows of the spectral stream and
    log_y(rows, js) the (n, m) values log Y of the rows, row r tilted at
    location js[r].  The arrival stream gives one standard exponential per
    arrival, the spectral stream one base row per candidate; both are read
    _BLOCK at a time, and what is read ahead and not consumed is consumed
    next, so the field is the one drawn one number at a time.

    Z changes only when a candidate is kept, which is rare on a dense grid.
    So the candidates are scored in batches that run across locations, as
    if none were kept: 1, 2, 4, ... up to _BATCH_CELLS / m rows, back to 1
    after a kept one.  Up to the first kept candidate of a batch every
    decision is the one the location-by-location loop makes; the scan
    restarts after it.  Returns (log Z, spectral draws, rejections).
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng_e, rng_x = spawn(rng, 2)
    arrivals = []
    rows = draw(_BLOCK, rng_x)  # spectral base rows not yet consumed
    log_z = np.full(m, -np.inf)
    cap = max(1, _BATCH_CELLS // m)
    width = 1
    draws = kept_total = 0
    # the scan: location j, Z(t_j), the next arrival k, Gamma, and the
    # candidates at t_j so far
    j, log_z_j, k, gamma, at_j = 0, -math.inf, 0, 0.0, 0
    while j < m:
        locs, log_zeta, resume = [], [], []
        over_bound = False  # t_j has n_points candidates and one more arrival
        while len(locs) < width and j < m:
            while k >= len(arrivals):
                arrivals += np.asarray(rng_e.exponential(size=_BLOCK)).tolist()
            gamma += arrivals[k]
            k += 1
            log_zeta_k = -math.log(gamma)
            if not log_zeta_k > log_z_j:
                j, gamma, at_j = j + 1, 0.0, 0
                log_z_j = float(log_z[j]) if j < m else 0.0
            elif at_j == n_points:
                over_bound = True
                break
            else:
                at_j += 1
                locs.append(j)
                log_zeta.append(log_zeta_k)
                # if kept, one more arrival falls below it and t_j ends
                resume.append(k + 1)
        if locs:
            n = len(locs)
            while len(rows) < n:
                rows = np.concatenate([rows, draw(_BLOCK, rng_x)])
            js = np.array(locs)
            cand = np.array(log_zeta)[:, None] + log_y(rows[:n], js)
            # a candidate reaches Z at its own location, so it is kept iff
            # that is the first location where it does
            kept = (cand >= log_z).argmax(axis=1) == js
            first = int(kept.argmax())
            if kept[first]:
                np.maximum(log_z, cand[first], out=log_z)
                kept_total += 1
                draws += first + 1
                rows = rows[first + 1:]
                j, k, gamma, at_j = locs[first] + 1, resume[first], 0.0, 0
                log_z_j = float(log_z[j]) if j < m else 0.0
                width = 1
                continue
            draws += n
            rows = rows[n:]
            width = min(2 * width, cap)
        if over_bound:
            raise ValueError(
                f"grid location {j} needs more than n_points = {n_points} spectral draws"
            )
    return log_z, draws, draws - kept_total


def _extremal_field(grid, sampler, n_points, rng, provenance, shift=None) -> Field:
    """The engine's field exp(log Z + shift), with its draw counts recorded."""
    log_z, draws, rejections = _extremal_log_field(grid.size, *sampler, n_points, rng)
    if shift is not None:
        log_z += shift
    if np.any(log_z > _LOG_MAX):
        raise ValueError(
            "spectral contribution overflows the double range "
            f"(max log value {log_z.max():.3g})"
        )
    provenance.update(spectral_draws=draws, rejections=rejections)
    return Field(grid, np.exp(log_z), provenance)


def _general_sampler(dist, t_mat, phi):
    """(draw, log_y) with log Y = <X, t - t_j> - (phi(t) - phi(t_j)) for X
    under the t_j-tilted law: Y = W / W(t_j) for W(t) = exp(<X, t> - phi(t)).
    It is evaluated as a(t) - a(t_j), a(t) = <X, t> - phi(t): one product
    and two passes over the candidates, and exactly 0 at t_j."""
    draw, tilt = dist.tilted_sampler(t_mat)
    t_cols = np.ascontiguousarray(t_mat.T)

    def log_y(rows, js):
        a = tilt(rows, js) @ t_cols - phi
        return a - a[np.arange(len(js)), js][:, None]

    return draw, log_y


def _smith_law(sigma):
    """Smith's spectral law gaussian(0, Sigma) and its CGF 0.5 <t, Sigma t>."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    d = sigma.shape[0]
    return Gaussian(np.zeros(d), sigma), ShapeFunction.quadratic(np.zeros(d), sigma)


def simulate_general(
    dist: SpectralDistribution,
    kappa: ShapeFunction,
    grid: Grid,
    n_points: int,
    rng,
    *,
    seed_record=None,
    construction: str = "general",
) -> Field:
    """max_i U_i exp(<X_i, t> - kappa(t)) on the grid, exactly.

    The engine simulates the unit-Frechet field with kappa = phi, the CGF
    of X, and shifts it once by phi(t) - kappa(t).  n_points bounds the
    spectral draws at one grid location.
    """
    t_mat = grid.locations
    phi = np.asarray(dist.cgf(t_mat), dtype=float)  # checks the domain, as validate_domain does
    prov = {
        "construction": construction,
        "dist": dist.spec_string(),
        "kappa": kappa.kind,
        "n_points": n_points,
        "seed": seed_record,
    }
    is_cgf = kappa.kind == "cgf" and kappa.dist == dist
    return _extremal_field(
        grid, _general_sampler(dist, t_mat, phi), n_points, rng, prov,
        shift=None if is_cgf else phi - kappa.values(t_mat),
    )


def simulate_smith(sigma, grid: Grid, n_points: int, rng, *, seed_record=None) -> Field:
    """Smith construction: gaussian(0, Sigma) spectral law with quadratic
    normalizer 0.5 <t, Sigma t>."""
    return simulate_general(
        *_smith_law(sigma), grid, n_points, rng, seed_record=seed_record, construction="smith"
    )


def _br_cov_factor(variogram: Variogram, grid: Grid):
    """Factor of the increment covariance pinned at the origin, and the
    pairwise variogram gamma(s - t) it is built from.

    C(s, t) = 0.5 (gamma(s) + gamma(t) - gamma(s - t)); the origin is
    appended internally if absent so Z(0) = 0 anchors the realization.
    """
    pts = grid.locations
    has_origin = np.any(np.all(np.abs(pts) <= 1e-12, axis=1))
    if not has_origin:
        pts = np.vstack([pts, np.zeros((1, grid.dim))])
    g = variogram(pts)
    pairwise = variogram(pts[:, None, :] - pts[None, :, :])
    cov = 0.5 * (g[:, None] + g[None, :] - pairwise)
    try:
        factor = psd_factor(cov, rel_tol=1e-8)
    except ValueError as exc:
        raise ValueError(f"variogram is not valid on this grid: {exc}") from exc
    return factor, pairwise


def _brown_resnick_sampler(variogram: Variogram, grid: Grid):
    """(draw, log_y) with log Y = G(t) - G(t_j) - gamma(t - t_j) / 2, the
    t_j-tilted law of W / W(t_j) for W(t) = exp(G(t) - gamma(t) / 2)."""
    factor, pairwise = _br_cov_factor(variogram, grid)
    m = grid.size
    grid_factor = factor[:m].T
    half_pairwise = 0.5 * pairwise[:m, :m]

    def draw(n, rng_z):
        return np.asarray(rng_z.standard_normal((int(n), factor.shape[0])))

    def log_y(rows, js):
        g = rows @ grid_factor
        return g - g[np.arange(len(js)), js][:, None] - half_pairwise[js]

    return draw, log_y


def simulate_brown_resnick(
    variogram: Variogram, grid: Grid, n_points: int, rng, *, seed_record=None
) -> Field:
    """Brown-Resnick construction from grid-sampled Gaussian increments,
    exactly; n_points bounds the spectral draws at one grid location."""
    prov = {
        "construction": "brown_resnick",
        "variogram": variogram.kind,
        "n_points": n_points,
        "seed": seed_record,
    }
    return _extremal_field(grid, _brown_resnick_sampler(variogram, grid), n_points, rng, prov)


# ---------------------------------------------------------------------------
# moving maxima


def _mmm_prefactor(sigma) -> float:
    d = sigma.shape[0]
    det = float(np.linalg.det(sigma))
    return math.sqrt(det) / (2.0 * math.pi) ** (d / 2.0)


def moving_maxima_buffer(sigma, window_core, edge_rel_err: float = 1e-8) -> float:
    """Buffer radius so storms outside it contribute < edge_rel_err.

    Solves c * exp(-0.5 lam_min r^2) * V_max < edge_rel_err by fixed-point
    iteration, with V_max estimated as |buffered window| * 1e3 (the 1e-3
    upper quantile of the largest storm strength).
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    _, eigs, _ = clamp_psd(sigma)
    lam_min = float(eigs.min())
    if lam_min <= 0:
        raise ValueError("moving-maxima representation requires nonsingular Sigma")
    c = _mmm_prefactor(sigma)
    core = np.asarray(window_core, dtype=float).reshape(-1, 2)
    widths = core[:, 1] - core[:, 0]
    r = 0.0
    for _ in range(200):
        vol = float(np.prod(widths + 2.0 * r))
        v_max = vol * 1e3
        arg = c * v_max / edge_rel_err
        r_new = math.sqrt(2.0 * math.log(arg) / lam_min) if arg > 1.0 else 0.0
        if abs(r_new - r) < 1e-9:
            return r_new
        r = r_new
    raise ValueError("buffer radius iteration did not converge for the requested edge error")


def simulate_moving_maxima(
    sigma,
    grid: Grid,
    window_core,
    rng,
    *,
    storms=None,
    seed_record=None,
) -> Field:
    """Moving-maxima construction: max over storms of
    c * V_i * exp(-0.5 <(t - T_i), Sigma (t - T_i)>), c = det(Sigma)^1/2 / (2 pi)^{d/2}.

    Storms are streamed in decreasing strength on the buffered window and
    generation stops once c * V_i drops below the current field minimum on
    the grid, so the result is exact on the grid up to the recorded
    outside-buffer error bound.  A fixed StormSet may be supplied for
    deterministic tests (no stopping rule applied then).
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    c = _mmm_prefactor(sigma)
    log_c = math.log(c) if c > 0 else -math.inf
    grid_pts = grid.locations
    core = np.asarray(window_core, dtype=float).reshape(-1, 2)
    if core.shape[0] != grid.dim:
        raise ValueError("window_core dimension must match the grid")
    if np.any(grid_pts < core[:, 0]) or np.any(grid_pts > core[:, 1]):
        raise ValueError("grid must lie inside window_core")

    def kernel_log(centers, strengths):
        diff = grid_pts[None, :, :] - centers[:, None, :]
        quad = np.einsum("kmd,de,kme->km", diff, sigma, diff)
        return log_c + np.log(strengths)[:, None] - 0.5 * quad

    if storms is not None:
        best = kernel_log(storms.centers, storms.strengths).max(axis=0)
        prov = {
            "construction": "mmm",
            "n_points": storms.count,
            "seed": seed_record,
            "truncation": {"exact_on_grid": True},
        }
        return Field(grid, np.exp(best), prov)

    r_buf = moving_maxima_buffer(sigma, core)
    window = np.column_stack([core[:, 0] - r_buf, core[:, 1] + r_buf])
    vol = window_volume(window)
    _, eigs, _ = clamp_psd(sigma)
    edge_bound = c * math.exp(-0.5 * float(eigs.min()) * r_buf**2) * vol * 1e3

    rng_v, rng_t = spawn(rng, 2)
    best = np.full(grid.size, -np.inf)
    gamma_total = 0.0
    n_storms = 0
    while True:
        arrivals = np.asarray(rng_v.exponential(size=_STORM_CHUNK), dtype=float)
        gammas = gamma_total + np.cumsum(arrivals)
        gamma_total = float(gammas[-1])
        strengths = vol / gammas
        centers = np.asarray(rng_t.uniform(window[:, 0], window[:, 1], size=(_STORM_CHUNK, grid.dim)))
        best = np.maximum(best, kernel_log(centers, strengths).max(axis=0))
        n_storms += _STORM_CHUNK
        if log_c + math.log(strengths[-1]) < best.min():
            break
        if n_storms >= _MAX_STORMS:
            raise ValueError(f"moving-maxima stopping rule not reached within {_MAX_STORMS} storms")
    if np.any(best > _LOG_MAX):
        raise ValueError("storm contribution overflows the double range")
    prov = {
        "construction": "mmm",
        "n_points": n_storms,
        "seed": seed_record,
        "window": window.tolist(),
        "buffer_radius": r_buf,
        "edge_error_bound": edge_bound,
        "truncation": {"exact_on_grid": True},
    }
    return Field(grid, np.exp(best), prov)


# ---------------------------------------------------------------------------
# output format


def _f17(x) -> str:
    return format(float(x), ".17g")


def field_csv_rows(field: Field) -> list:
    """``t_1,...,t_d,value`` rows in grid order with 17 significant digits."""
    return [
        ",".join(_f17(c) for c in loc) + "," + _f17(val)
        for loc, val in zip(field.grid.locations, field.values)
    ]


def field_csv_text(field: Field, extra_header: dict | None = None) -> str:
    """Field CSV: one comment header line, then the ``field_csv_rows``."""
    prov = field.provenance
    header = (
        f"# construction={prov.get('construction', '?')}"
        f" seed={prov.get('seed') if prov.get('seed') is not None else 'none'}"
        f" n_points={prov.get('n_points', '?')}"
    )
    lines = [header]
    if extra_header:
        for key, value in extra_header.items():
            lines.append(f"# {key}={value}")
    lines.extend(field_csv_rows(field))
    return "\n".join(lines) + "\n"


def write_field_csv(field: Field, path, extra_header: dict | None = None):
    with open(path, "w") as fh:
        fh.write(field_csv_text(field, extra_header))
