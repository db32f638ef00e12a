"""Stationarity analysis of the general max-stable construction.

The process max_i U_i exp(<X_i, t> - kappa(t)) is stationary exactly when
the centered multivariate CGF is shift invariant:

    phi(sum u_i t_i) - sum u_i phi(t_i)
        = phi(h + sum u_i t_i) - sum u_i phi(t_i + h)

for every shift h and simplex weights u.  This module evaluates the
defect (the difference of the two sides), tests the equivalent affinity
of the CGF gradient, searches for violations, fits quadratics to phi,
and runs the end-to-end characterization experiment: marginals are
Frechet for any spectral law once kappa is its CGF, but the defect
vanishes identically only for Gaussian laws (quadratic phi).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import fdd
from .seeding import spawn
from .simulator import DEFAULT_N_POINTS, Grid, simulate_general
from .spectral import (
    DomainError,
    ShapeFunction,
    SimplexWeights,
    SpectralDistribution,
    cgf,
    cgf_gradient,
)

TOL_DEFECT = 1e-6  # separates round-off (<=1e-10 gaussian) from genuine violations (>=1e-3)
_GRID_VALUES_PER_SCALAR = 5
_GRID_CAP = 20_000


@dataclass(frozen=True)
class CriterionConfig:
    """One probe of the shift-invariance criterion: points, weights, shift."""

    ts: np.ndarray
    weights: SimplexWeights
    h: np.ndarray

    def __init__(self, ts, weights, h):
        ts = np.atleast_2d(np.asarray(ts, dtype=float))
        if not isinstance(weights, SimplexWeights):
            weights = SimplexWeights(weights)
        h = np.atleast_1d(np.asarray(h, dtype=float))
        if len(weights) != ts.shape[0]:
            raise ValueError("weights must match the number of points")
        if h.shape[0] != ts.shape[1]:
            raise ValueError("shift dimension must match the points")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "h", h)

    def validate_domain(self, dist: SpectralDistribution):
        """All of ts, ts + h, sum u_i t_i and its shift must be inside."""
        combo = self.weights.u @ self.ts
        dist.check_domain(np.vstack([self.ts, self.ts + self.h, [combo, combo + self.h]]))

    def to_dict(self) -> dict:
        return {
            "ts": self.ts.tolist(),
            "u": self.weights.u.tolist(),
            "h": self.h.tolist(),
        }


def _criterion_points(ts, u, h) -> np.ndarray:
    """The 2n + 3 points each of K configs touches, shape (K, 2n + 3, d):
    ts, ts + h, sum u_i t_i, sum u_i (t_i + h) and sum u_i t_i + h, for
    ts (K, n, d), simplex weights u (K, n) and shifts h (K, d)."""
    shifted = ts + h[:, None, :]
    # stacked matmul rounds each config exactly as u @ ts does for one
    combo = np.matmul(u[:, None, :], ts)
    combo_shifted = np.matmul(u[:, None, :], shifted)
    return np.concatenate([ts, shifted, combo, combo_shifted, combo + h[:, None, :]], axis=1)


def _centred_cgfs(dist: SpectralDistribution, ts, u, h):
    """Both sides of the criterion for K configs in one CGF pass.

    Returns the mask of configs whose 2n + 3 points all lie inside the CGF
    domain, and for those configs, in order, the centred CGFs
    phi(sum u_i t_i) - sum u_i phi(t_i) and the same at ts + h.
    """
    n = ts.shape[1]
    pts = _criterion_points(ts, u, h)
    lo, hi = dist.domain_lower(), dist.domain_upper()
    feasible = ~((pts >= hi) | (pts <= lo)).any(axis=(1, 2))
    # the last point, sum u_i t_i + h, is only checked, never evaluated
    pts = pts[feasible, :-1]
    w = u[feasible, None, :]
    phi = dist.cgf(pts.reshape(-1, dist.dim)).reshape(len(pts), 2 * n + 2)
    base = phi[:, 2 * n] - np.matmul(w, phi[:, :n, None])[:, 0, 0]
    shifted = phi[:, 2 * n + 1] - np.matmul(w, phi[:, n : 2 * n, None])[:, 0, 0]
    return feasible, base, shifted


def defect(dist: SpectralDistribution, cfg: CriterionConfig) -> float:
    """Difference of the two sides of the shift-invariance criterion;
    zero for all configs iff the construction is stationary."""
    ts, u, h = cfg.ts[None], cfg.weights.u[None], cfg.h[None]
    dist.check_domain(_criterion_points(ts, u, h)[0])
    _, base, shifted = _centred_cgfs(dist, ts, u, h)
    return float(base[0] - shifted[0])


def gradient_affinity_defect(dist, t1, t2, delta: float, h_dir) -> float:
    """Directional defect of gradient affinity:
    <grad phi((1-d)t1 + d t2) - (1-d) grad phi(t1) - d grad phi(t2), h_dir>.

    Vanishes for all inputs iff grad phi is affine (phi quadratic).
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    t1 = np.atleast_1d(np.asarray(t1, dtype=float))
    t2 = np.atleast_1d(np.asarray(t2, dtype=float))
    h_dir = np.atleast_1d(np.asarray(h_dir, dtype=float))
    mid = (1.0 - delta) * t1 + delta * t2
    gap = (
        cgf_gradient(dist, mid)
        - (1.0 - delta) * cgf_gradient(dist, t1)
        - delta * cgf_gradient(dist, t2)
    )
    return float(gap @ h_dir)


@dataclass(frozen=True)
class DefectReport:
    """Outcome of a violation search over many criterion configs."""

    defects: np.ndarray
    max_abs_defect: float
    argmax_config: CriterionConfig | None
    verdict: str
    tol: float
    n_evaluated: int
    n_skipped: int

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_abs_defect": self.max_abs_defect,
            "argmax_config": self.argmax_config.to_dict() if self.argmax_config else None,
            "tol": self.tol,
            "n_evaluated": self.n_evaluated,
            "n_skipped": self.n_skipped,
        }


def _compositions(total: int, n: int):
    """The n-tuples of nonnegative integers summing to total, in ascending
    lexicographic (itertools.product) order."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first, *rest)


def _simplex_grid(n: int) -> np.ndarray:
    """Coarse simplex grid, shape (G, n): weights with entries in multiples
    of 1/4, in itertools.product order.  The C(n + 3, 4) compositions of 4
    are enumerated directly, not filtered out of the 5^n product."""
    steps = _GRID_VALUES_PER_SCALAR - 1
    return np.array(list(_compositions(steps, n)), dtype=float) / steps


def _coarse_grid(n: int, box: np.ndarray):
    """Deterministic coarse grid: 5 values per free scalar of (ts, h),
    crossed with the coarse simplex grid, keeping every stride-th entry of
    the itertools.product walk so that about _GRID_CAP remain.

    The kept entries are found by index arithmetic, without the walk.
    Returns ts (K, n, d), u (K, n) and h (K, d).
    """
    d = box.shape[0]
    axis = np.array([np.linspace(lo, hi, _GRID_VALUES_PER_SCALAR) for lo, hi in box])
    u_grid = _simplex_grid(n)
    n_scalars = n * d + d
    shape = (_GRID_VALUES_PER_SCALAR,) * n_scalars + (len(u_grid),)
    total = math.prod(shape)
    stride = max(1, total // _GRID_CAP)
    # mixed-radix digits of 0, stride, 2 stride, ... (last digit fastest);
    # Python integers once the walk's length leaves int64
    flat = np.arange(-(-total // stride), dtype=np.int64 if total < 2**63 else object) * stride
    digits = np.empty((len(flat), len(shape)), dtype=np.intp)
    for j in reversed(range(len(shape))):
        digits[:, j] = flat % shape[j]
        flat //= shape[j]
    values = axis[np.arange(n_scalars) % d, digits[:, :-1]]
    return values[:, : n * d].reshape(-1, n, d), u_grid[digits[:, -1]], values[:, n * d :]


def search_violation(
    dist: SpectralDistribution,
    n: int,
    budget: int,
    box,
    rng,
    tol_defect: float = TOL_DEFECT,
) -> DefectReport:
    """Probe the criterion on a deterministic coarse grid plus ``budget``
    random configs (ts, h uniform in the box, u uniform on the simplex).

    The verdict is "violated" iff max |defect| > tol_defect.  Configs
    whose shifted points leave the CGF domain are skipped.
    """
    if n < 1:
        raise ValueError("criterion tuple size n must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not (math.isfinite(tol_defect) and tol_defect >= 0):
        raise ValueError("defect tolerance must be finite and >= 0")
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    if box.shape[0] != dist.dim:
        raise ValueError("box dimension must match the distribution")
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must have positive widths")
    # the box itself must be feasible for the CGF
    dist.check_domain(box.T)

    grid_ts, grid_u, grid_h = _coarse_grid(n, box)
    rand_ts = np.empty((budget, n, dist.dim))
    rand_h = np.empty((budget, dist.dim))
    rand_u = np.empty((budget, n))
    for k in range(budget):
        rand_ts[k] = rng.uniform(box[:, 0], box[:, 1], size=(n, dist.dim))
        rand_h[k] = rng.uniform(box[:, 0], box[:, 1], size=dist.dim)
        rand_u[k] = rng.dirichlet(np.ones(n))
    ts = np.concatenate([grid_ts, rand_ts])
    raw_u = np.concatenate([grid_u, rand_u])
    h = np.concatenate([grid_h, rand_h])
    # SimplexWeights' normalisation, row by row (its clip to [0, 1] is a
    # no-op on grid and Dirichlet weights)
    u = raw_u / raw_u.sum(axis=1, keepdims=True)

    feasible, base, shifted = _centred_cgfs(dist, ts, u, h)
    kept = np.flatnonzero(feasible)
    if not len(kept):
        raise DomainError("no feasible criterion configs inside the box")
    defects = base - shifted
    # lowest index wins ties: np.argmax keeps the first maximum
    arg = int(np.argmax(np.abs(defects)))
    max_abs = float(abs(defects[arg]))
    verdict = "violated" if max_abs > tol_defect else "stationary-consistent"
    best = kept[arg]
    # built from the raw weights, so that SimplexWeights normalises them once
    argmax_config = CriterionConfig(ts[best].copy(), raw_u[best], h[best].copy())
    return DefectReport(
        defects, max_abs, argmax_config, verdict, tol_defect, len(kept), len(ts) - len(kept)
    )


# ---------------------------------------------------------------------------
# quadratic fit


@dataclass(frozen=True)
class QuadraticFitReport:
    mu: np.ndarray
    sigma: np.ndarray
    max_residual: float


def quadratic_fit_check(dist: SpectralDistribution, points) -> QuadraticFitReport:
    """Least-squares fit of phi by <mu, t> + 0.5 <t, Sigma t> (no constant:
    phi(0) = 0).  For gaussian input the fit is exact to round-off."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = dist.dim
    n_params = d + d * (d + 1) // 2
    if pts.shape[0] < (d * d + 3 * d + 2) // 2:
        raise ValueError(
            f"need at least {(d * d + 3 * d + 2) // 2} sample points in dimension {d}"
        )
    dist.check_domain(pts)
    phi = np.asarray(dist.cgf(pts), dtype=float)
    cols = [pts[:, j] for j in range(d)]
    quad_index = []
    for a in range(d):
        for b in range(a, d):
            cols.append(pts[:, a] * pts[:, b])
            quad_index.append((a, b))
    design = np.column_stack(cols)
    coef, _, rank, _ = np.linalg.lstsq(design, phi, rcond=None)
    if rank < n_params:
        raise ValueError("sample points are not in general position (rank-deficient fit)")
    mu = coef[:d]
    sigma = np.zeros((d, d))
    for (a, b), beta in zip(quad_index, coef[d:]):
        if a == b:
            sigma[a, a] = 2.0 * beta
        else:
            sigma[a, b] = sigma[b, a] = beta
    max_residual = float(np.abs(design @ coef - phi).max())
    return QuadraticFitReport(mu, sigma, max_residual)


# ---------------------------------------------------------------------------
# characterization experiment


@dataclass(frozen=True)
class CharacterizationReport:
    dist_spec: str
    verdict: str
    marginal_ks: list
    marginals_pass: bool
    defect_report: DefectReport
    shift_distance: float
    replicates: int

    def to_dict(self) -> dict:
        return {
            "dist": self.dist_spec,
            "verdict": self.verdict,
            "marginals_pass": self.marginals_pass,
            "marginal_ks": self.marginal_ks,
            "defect": self.defect_report.to_dict(),
            "shift_distance": self.shift_distance,
            "replicates": self.replicates,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def default_shift(dist: SpectralDistribution, grid: Grid) -> np.ndarray:
    """A shift keeping the grid inside the CGF domain: half the headroom
    to a bounded boundary, 0.7 per coordinate otherwise."""
    upper = dist.domain_upper()
    t_max = grid.locations.max(axis=0)
    h = np.empty(dist.dim)
    for j in range(dist.dim):
        h[j] = 0.7 if math.isinf(upper[j]) else 0.5 * (upper[j] - t_max[j])
    if np.any(h <= 0):
        raise DomainError("grid leaves no headroom for a domain-respecting shift")
    return h


def marginal_frechet_ks(
    dist: SpectralDistribution,
    grid: Grid,
    replicates: int,
    rng,
    n_points: int = DEFAULT_N_POINTS,
    level: float = 0.01,
) -> list:
    """KS distance of simulated marginals against unit Frechet at each grid
    point, with kappa equal to the CGF of the spectral law."""
    kappa = ShapeFunction.from_cgf(dist)
    values = np.empty((replicates, grid.size))
    for rep, child in enumerate(spawn(rng, replicates)):
        values[rep] = simulate_general(dist, kappa, grid, n_points, child).values
    threshold = fdd.ks_threshold(replicates, level)
    table = []
    for j in range(grid.size):
        ks = fdd.ks_distance(values[:, j], fdd.frechet_cdf)
        table.append(
            {
                "t": grid.locations[j].tolist(),
                "ks": ks,
                "threshold": threshold,
                "pass": bool(ks < threshold),
            }
        )
    return table


def empirical_shift_distance(
    dist: SpectralDistribution,
    t1,
    t2,
    h,
    replicates: int,
    rng,
    n_points: int = DEFAULT_N_POINTS,
) -> float:
    """Two-sample sup distance between the bivariate empirical CDFs at
    (t1, t2) and (t1 + h, t2 + h), over the Frechet-quantile threshold grid."""
    t1 = np.atleast_1d(np.asarray(t1, dtype=float))
    t2 = np.atleast_1d(np.asarray(t2, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    kappa = ShapeFunction.from_cgf(dist)
    # the four query points may coincide (e.g. t2 = t1 + h); simulate on the
    # distinct locations and index back into them
    wanted = np.vstack([t1, t2, t1 + h, t2 + h])
    uniq: list = []
    index = []
    for p in wanted:
        for k, q in enumerate(uniq):
            if np.linalg.norm(p - q) <= 1e-12:
                index.append(k)
                break
        else:
            index.append(len(uniq))
            uniq.append(p)
    grid = Grid(np.array(uniq))
    index = np.array(index)
    pairs = np.empty((replicates, 4))
    for rep, child in enumerate(spawn(rng, replicates)):
        pairs[rep] = simulate_general(dist, kappa, grid, n_points, child).values[index]
    thresholds = fdd.frechet_threshold_grid()
    return fdd.bivariate_ecdf_distance(pairs[:, :2], pairs[:, 2:], thresholds)


def verify_characterization(
    dist: SpectralDistribution,
    grid: Grid,
    replicates: int,
    rng,
    *,
    n_points: int = DEFAULT_N_POINTS,
    budget: int = 1000,
) -> CharacterizationReport:
    """End-to-end experiment with kappa set to the CGF of the spectral law:
    (a) simulated marginals vs unit Frechet at every grid point, (b) the
    analytic defect search, (c) the empirical bivariate shift comparison.

    Concludes "Gaussian-consistent" when the defect search finds nothing,
    "non-stationary in dimension 2" otherwise (marginals are Frechet
    either way).
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if grid.size < 2:
        raise ValueError("characterization needs at least two grid points")
    grid.validate_domain(dist)
    lo = grid.locations.min(axis=0)
    hi = grid.locations.max(axis=0)
    box = np.column_stack([lo, np.where(hi > lo, hi, lo + 0.5)])
    shift = default_shift(dist, grid)

    marg = marginal_frechet_ks(dist, grid, replicates, rng, n_points)
    report = search_violation(dist, 2, budget, box, rng)
    t1, t2 = grid.locations[0], grid.locations[1]
    shift_dist = empirical_shift_distance(dist, t1, t2, shift, replicates, rng, n_points)
    verdict = (
        "Gaussian-consistent"
        if report.verdict == "stationary-consistent"
        else "non-stationary in dimension 2"
    )
    return CharacterizationReport(
        dist.spec_string(),
        verdict,
        marg,
        all(row["pass"] for row in marg),
        report,
        shift_dist,
        replicates,
    )
