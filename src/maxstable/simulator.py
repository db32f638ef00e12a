"""Field simulators for the four max-stable constructions.

All constructions evaluate spectral contributions in log space,
max-reduce, and exponentiate once, so a single huge contribution cannot
overflow intermediate arithmetic.  The general, Smith (gaussian X,
quadratic kappa) and Brown-Resnick constructions share one cascade
engine truncated at n_points atoms and differ only in log W.  Its
normaliser (kappa(t), or gamma(t) / 2) does not depend on the atom, so
the engine keeps one running max of log U_i + <X_i, t> and subtracts the
normaliser once.  A field carries no convergence flag: the doubling
diagnostic ``truncation_check`` is the one convergence diagnostic.  The
moving-maxima construction uses an exact-on-grid stopping rule with an
explicit edge-error bound.

Randomness layout: the engine splits its generator into two child
streams (cascade arrivals, spectral draws).  Because child streams are
consumed as prefix-stable block draws, a run with 2 * n_points extends
rather than reshuffles the run with n_points -- the basis of the
doubling truncation diagnostic.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .pointproc import FrechetCascade, frechet_cascade, window_volume
from .seeding import spawn
from .spectral import (
    Gaussian,
    ShapeFunction,
    SpectralDistribution,
    clamp_psd,
    psd_factor,
)

DEFAULT_N_POINTS = 10_000  # cascade atoms per field unless a caller asks otherwise
_LOG_MAX = math.log(np.finfo(float).max)
_CHUNK = 2048
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
# cascade-based constructions


def _max_reduce(log_contrib_chunks, m):
    """Running max over chunks of (k, m) arrays."""
    best = np.full(m, -np.inf)
    for chunk in log_contrib_chunks:
        np.maximum(best, chunk.max(axis=0), out=best)
    return best


def _log_contributions(start, n_points, rng, cascade=None, split=None):
    """Chunks of log U_i + log W_i(t) + shift(t), in cascade order.

    The shift of log W does not depend on i, so callers subtract it once
    after the max.  start(count, rng_x) draws the spectral side from its
    child stream and returns chunk(i0, i1), a fresh (i1 - i0, m) array.
    Chunks hold at most _CHUNK rows and also end at ``split``, so the
    chunks before ``split`` are exactly those of a run with n_points = split.
    """
    rng_u, rng_x = spawn(rng, 2)
    if cascade is None:
        cascade = frechet_cascade(n_points, rng_u)
    chunk = start(cascade.count, rng_x)
    logu = np.log(cascade.points)
    edges = [0, cascade.count] if split is None else [0, split, cascade.count]
    for lo, hi in zip(edges, edges[1:]):
        for i0 in range(lo, hi, _CHUNK):
            i1 = min(i0 + _CHUNK, hi)
            block = chunk(i0, i1)
            block += logu[i0:i1, None]
            yield block


def _cascade_field(grid, log_w, n_points, rng, provenance, cascade=None) -> Field:
    """The cascade engine: max over i <= n_points of U_i W_i(t) on the grid."""
    start, shift = log_w
    best = _max_reduce(_log_contributions(start, n_points, rng, cascade), grid.size)
    best -= shift
    if np.any(best > _LOG_MAX):
        raise ValueError(
            "spectral contribution overflows the double range "
            f"(max log value {best.max():.3g})"
        )
    return Field(grid, np.exp(best), provenance)


def _general_log_w(dist, kappa, grid, spectral=None):
    """log W_i(t) = <X_i, t> - kappa(t) as (start, shift = kappa(t)); the
    X_i are drawn in one block per field unless given."""
    grid.validate_domain(dist)
    t_mat = grid.locations

    def start(count, rng_x):
        x = dist.sample(count, rng_x) if spectral is None else spectral
        x = np.asarray(x, dtype=float)
        if x.shape != (count, grid.dim):
            raise ValueError("spectral draws must have shape (n_points, d)")
        return lambda i0, i1: x[i0:i1] @ t_mat.T

    return start, kappa.values(t_mat)


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
    cascade: FrechetCascade | None = None,
    spectral: np.ndarray | None = None,
    seed_record=None,
    construction: str = "general",
) -> Field:
    """max over i <= n_points of U_i exp(<X_i, t> - kappa(t)) on the grid.

    ``cascade`` / ``spectral`` may be supplied explicitly (stubbed tests);
    otherwise both are drawn from child streams of rng.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    log_w = _general_log_w(dist, kappa, grid, spectral)
    count = n_points if cascade is None else cascade.count
    prov = {
        "construction": construction,
        "dist": dist.spec_string(),
        "kappa": kappa.kind,
        "n_points": count,
        "seed": seed_record,
    }
    return _cascade_field(grid, log_w, count, rng, prov, cascade)


def simulate_smith(sigma, grid: Grid, n_points: int, rng, *, seed_record=None) -> Field:
    """Smith construction: gaussian(0, Sigma) spectral law with quadratic
    normalizer 0.5 <t, Sigma t>."""
    return simulate_general(
        *_smith_law(sigma), grid, n_points, rng, seed_record=seed_record, construction="smith"
    )


def _br_cov_factor(variogram: Variogram, grid: Grid):
    """Factor of the increment covariance pinned at the origin.

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
    return factor, g, pts.shape[0]


def _brown_resnick_log_w(variogram: Variogram, grid: Grid):
    """log W_i(t) = Z_i(t) - gamma(t) / 2 as (start, shift = gamma(t) / 2);
    the Gaussian increments Z_i are drawn per chunk, as a whole field's
    would hold n_points x m doubles."""
    factor, g, m_all = _br_cov_factor(variogram, grid)
    m = grid.size

    def start(count, rng_z):
        return lambda i0, i1: (
            np.asarray(rng_z.standard_normal((i1 - i0, m_all))) @ factor.T
        )[:, :m]

    return start, 0.5 * g[:m]


def simulate_brown_resnick(
    variogram: Variogram, grid: Grid, n_points: int, rng, *, seed_record=None
) -> Field:
    """Brown-Resnick construction from grid-sampled Gaussian increments."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    prov = {
        "construction": "brown_resnick",
        "variogram": variogram.kind,
        "n_points": n_points,
        "seed": seed_record,
    }
    return _cascade_field(grid, _brown_resnick_log_w(variogram, grid), n_points, rng, prov)


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
# truncation diagnostic


@dataclass(frozen=True)
class TruncationDiagnostic:
    change_fraction: float
    max_rel_change: float
    converged: bool
    n_points: int
    replicates: int


def _paired_log_max(construction: str, params: dict, grid: Grid, n: int, rng):
    """Log-field after n and after 2n cascade atoms of one realization.

    One engine run over 2n atoms whose first n atoms, and the chunks that
    reduce them, are those of the simulator run with n_points = n.
    """
    if construction == "smith":
        log_w = _general_log_w(*_smith_law(params["sigma"]), grid)
    elif construction == "general":
        log_w = _general_log_w(params["dist"], params["kappa"], grid)
    elif construction == "brown_resnick":
        log_w = _brown_resnick_log_w(params["variogram"], grid)
    else:
        raise ValueError(
            f"truncation diagnostic applies to cascade constructions, not {construction!r}"
        )
    start, shift = log_w
    chunks = _log_contributions(start, 2 * n, rng, split=n)
    at_n = _max_reduce(itertools.islice(chunks, math.ceil(n / _CHUNK)), grid.size)
    at_2n = np.maximum(at_n, _max_reduce(chunks, grid.size))
    return at_n - shift, at_2n - shift


def truncation_check(
    construction: str,
    params: dict,
    grid: Grid,
    n_points: int,
    rng,
    replicates: int = 20,
) -> TruncationDiagnostic:
    """Doubling diagnostic: rerun with 2 * n_points sharing the first
    n_points of the cascade; converged iff the field changed at fewer than
    1% of grid-replicate pairs."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    changed = 0
    total = 0
    max_rel = 0.0
    for _ in range(replicates):
        child = spawn(rng, 1)[0]
        at_n, at_2n = _paired_log_max(construction, params, grid, n_points, child)
        diff = at_2n > at_n
        changed += int(diff.sum())
        total += at_n.size
        if diff.any():
            max_rel = max(max_rel, float(np.expm1((at_2n - at_n)[diff]).max()))
    frac = changed / total
    return TruncationDiagnostic(frac, max_rel, frac < 0.01, n_points, replicates)


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
