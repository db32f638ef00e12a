"""Stationarity analysis of the general max-stable construction.

The process max_i U_i exp(<X_i, t> - kappa(t)) is stationary exactly when
the centered multivariate CGF is shift invariant:

    phi(sum u_i t_i) - sum u_i phi(t_i)
        = phi(h + sum u_i t_i) - sum u_i phi(t_i + h)

for every shift h and simplex weights u.  This module evaluates the
defect (the difference of the two sides), tests the equivalent affinity
of the CGF gradient, searches for violations, and runs the end-to-end
characterization experiment: marginals are Frechet for any spectral law
once kappa is its CGF, but the defect vanishes identically only for
Gaussian laws (quadratic phi).  Its marginal and shift checks read one
simulated ensemble, on the grid and two shifted grid points.
"""
from __future__ import annotations

import math

import numpy as np

from . import fdd
from .frozen import Frozen
from .seeding import derive_rng
from .simulator import _DUPLICATE_TOL, DEFAULT_N_POINTS, Grid, prepare_general
from .spectral import (
    DomainError,
    ShapeFunction,
    SimplexWeights,
    SpectralDistribution,
)

# "violated" iff some |defect| > ROUNDOFF_FACTOR * eps * S (S: see _centred_cgfs); on
# Gaussians the largest |defect| / (eps S) measured was 1.18 (2560 laws; see the README)
ROUNDOFF_FACTOR = 1024
_GRID_VALUES_PER_SCALAR = 5
_GRID_CAP = 20_000
_CONFIG_BLOCK = 4096  # configs per CGF pass of the search, which bounds its memory


class CriterionConfig(Frozen):
    """One probe of the shift-invariance criterion: points, weights, shift."""

    _fields = ("ts", "weights", "h")

    def __init__(self, ts, weights, h):
        ts = np.atleast_2d(np.asarray(ts, dtype=float))
        if not isinstance(weights, SimplexWeights):
            weights = SimplexWeights(weights)
        h = np.atleast_1d(np.asarray(h, dtype=float))
        if len(weights) != ts.shape[0]:
            raise ValueError("weights must match the number of points")
        if h.shape[0] != ts.shape[1]:
            raise ValueError("shift dimension must match the points")
        self._set_fields(ts, weights, h)

    def to_dict(self) -> dict:
        return {
            "ts": self.ts.tolist(),
            "u": self.weights.u.tolist(),
            "h": self.h.tolist(),
        }


def _criterion_points(ts, u, h):
    """For ts (K, n, d), simplex weights u (K, n) and shifts h (K, d): the
    (K, 2n + 2, d) table of the points the criterion evaluates, ts, ts + h,
    sum u_i t_i and sum u_i (t_i + h), filled in place, and the point it
    only checks against the CGF domain, sum u_i t_i + h (K, d)."""
    n = ts.shape[1]
    table = np.empty((len(ts), 2 * n + 2, ts.shape[2]))
    table[:, :n] = ts
    np.add(ts, h[:, None, :], out=table[:, n : 2 * n])
    # stacked matmul rounds each config exactly as u @ ts does for one
    np.matmul(u[:, None, :], ts, out=table[:, 2 * n : 2 * n + 1])
    np.matmul(u[:, None, :], table[:, n : 2 * n], out=table[:, 2 * n + 1 :])
    return table, table[:, 2 * n] + h


def _centred_cgfs(dist: SpectralDistribution, ts, u, h):
    """Both sides of the criterion for K configs, one CGF pass per _CONFIG_BLOCK configs.

    Returns the mask of configs whose 2n + 3 points all lie inside the CGF
    domain, and for those configs, in order, the centred CGFs
    phi(sum u_i t_i) - sum u_i phi(t_i) and the same at ts + h, and the
    round-off scale S of their difference: with s(p) = |phi(p)| +
    dist.term_scale(p), the size of phi(p) and of the terms it adds up,
    S = s(sum u_i t_i) + s(sum u_i (t_i + h)) + sum u_i (s(t_i) + s(t_i + h)).
    """
    n = ts.shape[1]
    blocks = []
    for start in range(0, len(ts), _CONFIG_BLOCK):
        block = slice(start, start + _CONFIG_BLOCK)
        pts, last = _criterion_points(ts[block], u[block], h[block])
        feasible = dist.inside(pts).all(axis=(1, 2)) & dist.inside(last).all(axis=1)
        w = u[block, None, :]
        if not feasible.all():
            pts, w = pts[feasible], w[feasible]
        points = pts.reshape(-1, dist.dim)
        phi = dist._cgf(points).reshape(len(pts), 2 * n + 2)
        base = phi[:, 2 * n] - np.matmul(w, phi[:, :n, None])[:, 0, 0]
        shifted = phi[:, 2 * n + 1] - np.matmul(w, phi[:, n : 2 * n, None])[:, 0, 0]
        size = np.abs(phi) + dist.term_scale(points).reshape(phi.shape)
        scale = size[:, 2 * n] + size[:, 2 * n + 1] + (w[:, 0] * (size[:, :n] + size[:, n : 2 * n])).sum(axis=1)
        blocks.append((feasible, base, shifted, scale))
    return tuple(np.concatenate(column) for column in zip(*blocks))


def defect(dist: SpectralDistribution, cfg: CriterionConfig) -> float:
    """Difference of the two sides of the shift-invariance criterion;
    zero for all configs iff the construction is stationary."""
    ts, u, h = cfg.ts[None], cfg.weights.u[None], cfg.h[None]
    pts, last = _criterion_points(ts, u, h)
    dist.check_domain(np.vstack([pts[0], last]))
    _, base, shifted, _ = _centred_cgfs(dist, ts, u, h)
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
        dist.gradient(mid)
        - (1.0 - delta) * dist.gradient(t1)
        - delta * dist.gradient(t2)
    )
    return float(gap @ h_dir)


class DefectReport(Frozen):
    """Outcome of a violation search over many criterion configs."""

    _fields = ("defects", "max_abs_defect", "argmax_config", "verdict", "roundoff_ratio",
               "n_evaluated", "n_skipped")

    def __init__(self, defects: np.ndarray, max_abs_defect: float, argmax_config: CriterionConfig | None,
                 verdict: str, roundoff_ratio: float, n_evaluated: int, n_skipped: int):
        self._set_fields(defects, max_abs_defect, argmax_config, verdict, roundoff_ratio, n_evaluated, n_skipped)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_abs_defect": self.max_abs_defect,
            "argmax_config": self.argmax_config.to_dict() if self.argmax_config else None,
            "roundoff_ratio": self.roundoff_ratio,
            "n_evaluated": self.n_evaluated,
            "n_skipped": self.n_skipped,
        }


def _simplex_grid(n: int, ranks) -> np.ndarray:
    """Rows ``ranks`` of the coarse simplex grid, shape (len(ranks), n): the
    C(n + 3, 4) weights with entries in multiples of 1/4, in ascending
    lexicographic (itertools.product) order.  Each rank is unranked on its
    own, so the grid is never built whole."""
    steps = _GRID_VALUES_PER_SCALAR - 1
    ranks = np.array(ranks, dtype=np.int64)
    left = np.full(len(ranks), steps)
    parts = np.empty((len(ranks), n), dtype=np.int64)
    for i in range(n - 1):
        # the compositions of k into the n - i - 1 entries after entry i
        count = np.array([math.comb(k + n - i - 2, k) for k in range(steps + 1)], dtype=np.int64)
        first = np.zeros(len(ranks), dtype=np.int64)
        for _ in range(steps):
            # entry i = first leaves count[left - first] rows; skip them if the rank lies beyond
            skip = (first < left) & (ranks >= count[left - first])
            ranks -= np.where(skip, count[left - first], 0)
            first += skip
        parts[:, i] = first
        left -= first
    parts[:, n - 1] = left
    return parts / steps


def _coarse_grid(n: int, box: np.ndarray):
    """Deterministic coarse grid: 5 values per free scalar of (ts, h),
    crossed with the coarse simplex grid, keeping every stride-th entry of
    the itertools.product walk, the stride rounded up so that at most
    _GRID_CAP remain.

    The kept entries are found by index arithmetic, without the walk.
    Returns ts (K, n, d), u (K, n) and h (K, d).
    """
    d = box.shape[0]
    axis = np.array([np.linspace(lo, hi, _GRID_VALUES_PER_SCALAR) for lo, hi in box])
    n_scalars = n * d + d
    steps = _GRID_VALUES_PER_SCALAR - 1
    shape = (_GRID_VALUES_PER_SCALAR,) * n_scalars + (math.comb(n + steps - 1, steps),)
    total = math.prod(shape)
    stride = -(-total // _GRID_CAP)
    # mixed-radix digits of 0, stride, 2 stride, ... (last digit fastest);
    # Python integers once the walk's length leaves int64
    flat = np.arange(-(-total // stride), dtype=np.int64 if total < 2**63 else object) * stride
    digits = np.empty((len(flat), len(shape)), dtype=np.intp)
    for j in reversed(range(len(shape))):
        digits[:, j] = flat % shape[j]
        flat //= shape[j]
    values = axis[np.arange(n_scalars) % d, digits[:, :-1]]
    return values[:, : n * d].reshape(-1, n, d), _simplex_grid(n, digits[:, -1]), values[:, n * d :]


def search_violation(
    dist: SpectralDistribution,
    n: int,
    budget: int,
    box,
    rng,
) -> DefectReport:
    """Probe the criterion on a deterministic coarse grid plus ``budget``
    random configs (ts, h uniform in the box, u uniform on the simplex),
    drawn from rng in three array calls: every ts, then every h, then
    every u.

    The verdict is "violated" iff some config's |defect| exceeds
    ROUNDOFF_FACTOR * eps * S, S being its round-off scale; the report
    carries the largest |defect| / (eps S) as ``roundoff_ratio``.  Configs
    whose shifted points leave the CGF domain are skipped; a defect that is
    not finite (the CGF overflows) raises ValueError, so no verdict is given.
    """
    if n < 2:
        raise ValueError("criterion tuple size n must be >= 2: with one point both "
                         "sides of the criterion are 0 for every law")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(box)):
        raise ValueError("box must be finite")
    if box.shape[0] != dist.dim:
        raise ValueError("box dimension must match the distribution")
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must have positive widths")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(box[:, 1] - box[:, 0])):
            raise ValueError("search box widths must be finite: hi - lo overflows")
    # the box itself must be feasible for the CGF
    dist.check_domain(box.T)

    grid_ts, grid_u, grid_h = _coarse_grid(n, box)
    g = len(grid_ts)
    ts, h, raw_u = (np.empty((g + budget, *a.shape[1:])) for a in (grid_ts, grid_h, grid_u))
    ts[:g], h[:g], raw_u[:g] = grid_ts, grid_h, grid_u
    # lo + (hi - lo) U is rng.uniform(lo, hi) bit for bit, without its broadcast loop
    for drawn in (ts[g:], h[g:]):
        np.add(box[:, 0], np.multiply(box[:, 1] - box[:, 0], rng.random(out=drawn), out=drawn), out=drawn)
    raw_u[g:] = rng.dirichlet(np.ones(n), size=budget)
    # SimplexWeights' normalisation, row by row (its clip to [0, 1] is a
    # no-op on grid and Dirichlet weights)
    u = raw_u / raw_u.sum(axis=1, keepdims=True)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        feasible, base, shifted, scale = _centred_cgfs(dist, ts, u, h)
        defects = base - shifted
    kept = np.flatnonzero(feasible)
    if not len(kept):
        raise DomainError("no feasible criterion configs inside the box")
    if not np.all(np.isfinite(defects)):
        raise ValueError(f"{np.count_nonzero(~np.isfinite(defects))} of {len(kept)} criterion "
                         "defects are not finite (the CGF overflows)")
    # lowest index wins ties: np.argmax keeps the first maximum
    arg = int(np.argmax(np.abs(defects)))
    max_abs = float(abs(defects[arg]))
    # S = 0 only where every phi is 0, and then the defect is 0 too; S >= |defect|,
    # so dividing by S before eps cannot overflow
    in_s = np.divide(np.abs(defects), scale, out=np.zeros_like(scale), where=scale > 0)
    ratio = float(in_s.max()) / np.finfo(float).eps
    verdict = "violated" if ratio > ROUNDOFF_FACTOR else "stationary-consistent"
    best = kept[arg]
    # built from the raw weights, so that SimplexWeights normalises them once
    argmax_config = CriterionConfig(ts[best].copy(), raw_u[best], h[best].copy())
    return DefectReport(
        defects, max_abs, argmax_config, verdict, ratio, len(kept), len(ts) - len(kept)
    )


# ---------------------------------------------------------------------------
# characterization experiment


class CharacterizationReport(Frozen):
    """Outcome of ``verify_characterization``: the verdict of the defect
    search, the marginal KS table and the shift distance."""

    _fields = ("dist_spec", "verdict", "marginal_ks", "marginals_pass", "defect_report",
               "shift_distance", "replicates")

    def __init__(self, dist_spec: str, verdict: str, marginal_ks: list, marginals_pass: bool,
                 defect_report: DefectReport, shift_distance: float, replicates: int):
        self._set_fields(dist_spec, verdict, marginal_ks, marginals_pass, defect_report, shift_distance,
                         replicates)

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


def default_shift(dist: SpectralDistribution, grid: Grid) -> np.ndarray:
    """A shift keeping the grid inside the CGF domain: half the headroom
    to a bounded boundary, 0.7 per coordinate otherwise."""
    upper = dist.domain_upper()
    t_max = grid.locations.max(axis=0)
    h = np.where(np.isinf(upper), 0.7, 0.5 * (upper - t_max))
    if np.any(h <= 0):
        raise DomainError("grid leaves no headroom for a domain-respecting shift")
    return h


def _simulate_at(dist, grid: Grid, extra, replicates: int, seed: int, n_points: int) -> np.ndarray:
    """Replicates 0 .. replicates - 1 of seed, with kappa the CGF of the
    spectral law, at the grid's points followed by the ``extra`` points,
    shape (replicates, grid.size + len(extra)).  Each extra point joins the
    first earlier point within Grid's duplicate tolerance (e.g. t2 = t1 + h),
    so one law is prepared on the distinct points and read back at all."""
    kept = grid.locations
    index = list(range(grid.size))
    for p in extra:
        with np.errstate(over="ignore"):  # a norm past the double range is inf: distinct
            near = np.flatnonzero(np.linalg.norm(kept - p, axis=1) <= _DUPLICATE_TOL)
        index.append(int(near[0]) if near.size else len(kept))
        if not near.size:
            kept = np.vstack([kept, p])
    law = prepare_general(dist, ShapeFunction(dist), Grid(kept), n_points)
    values, _ = law.simulate_many(seed, range(replicates))
    return values[:, index]


def _ks_table(grid: Grid, values: np.ndarray) -> list:
    """KS distance against unit Frechet of the first grid.size columns of
    ``values`` (one per grid point), against the 1%-level threshold."""
    threshold = fdd.ks_threshold(len(values))
    ks = [fdd.ks_distance(values[:, j], fdd.frechet_cdf) for j in range(grid.size)]
    return [
        {"t": t.tolist(), "ks": k, "threshold": threshold, "pass": bool(k < threshold)}
        for t, k in zip(grid.locations, ks)
    ]


def _shift_distance(values: np.ndarray) -> float:
    """Sup distance between the bivariate empirical CDFs of columns (0, 1)
    and (2, 3), the fields at (t1, t2) and at (t1 + h, t2 + h)."""
    return fdd.bivariate_ecdf_distance(values[:, :2], values[:, 2:], fdd.frechet_threshold_grid())


def marginal_frechet_ks(
    dist: SpectralDistribution,
    grid: Grid,
    replicates: int,
    seed: int,
    n_points: int = DEFAULT_N_POINTS,
) -> list:
    """KS distance of simulated marginals against unit Frechet at each grid
    point, with kappa equal to the CGF of the spectral law, against the
    1%-level threshold; replicates 0 .. replicates - 1 of seed."""
    return _ks_table(grid, _simulate_at(dist, grid, [], replicates, seed, n_points))


def empirical_shift_distance(
    dist: SpectralDistribution,
    t1,
    t2,
    h,
    replicates: int,
    seed: int,
    n_points: int = DEFAULT_N_POINTS,
) -> float:
    """Two-sample sup distance between the bivariate empirical CDFs at
    (t1, t2) and (t1 + h, t2 + h), over the Frechet-quantile threshold grid;
    both pairs come from replicates 0 .. replicates - 1 of seed."""
    t1 = np.atleast_1d(np.asarray(t1, dtype=float))
    t2 = np.atleast_1d(np.asarray(t2, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    # the four points may coincide: t2, t1 + h and t2 + h are merged after t1
    extra = np.vstack([t2, t1 + h, t2 + h])
    return _shift_distance(_simulate_at(dist, Grid(t1[None]), extra, replicates, seed, n_points))


def verify_characterization(
    dist: SpectralDistribution,
    grid: Grid,
    replicates: int,
    seed: int,
    *,
    n_points: int = DEFAULT_N_POINTS,
    budget: int = 1000,
) -> CharacterizationReport:
    """End-to-end experiment with kappa set to the CGF of the spectral law:
    (a) the analytic defect search on derive_rng(seed), then from one
    ensemble, replicates 0 .. replicates - 1 of seed on the grid and
    t1 + h, t2 + h (t1, t2 the grid's first two points, h the default
    shift), (b) simulated marginals vs unit Frechet at every grid point and
    (c) the empirical bivariate shift comparison.

    Concludes "Gaussian-consistent" when the defect search finds nothing,
    "non-stationary in dimension 2" otherwise (marginals are Frechet
    either way).
    """
    if replicates < fdd.MIN_SAMPLES:
        raise ValueError(f"replicates must be >= {fdd.MIN_SAMPLES}, the fewest a KS distance takes")
    if grid.size < 2:
        raise ValueError("characterization needs at least two grid points")
    dist.check_domain(grid.locations)
    lo = grid.locations.min(axis=0)
    hi = grid.locations.max(axis=0)
    box = np.column_stack([lo, np.where(hi > lo, hi, lo + 0.5)])
    shift = default_shift(dist, grid)

    # the search checks its budget, so it runs before anything is simulated
    report = search_violation(dist, 2, budget, box, derive_rng(seed))
    # one ensemble on the grid and t1 + h, t2 + h serves both checks: the
    # simulation is exact, so each subset of its points has the field's law
    values = _simulate_at(dist, grid, grid.locations[:2] + shift, replicates, seed, n_points)
    marg = _ks_table(grid, values)
    shift_dist = _shift_distance(values[:, [0, 1, -2, -1]])
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
