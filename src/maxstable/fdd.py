"""Finite-dimensional distributions of the max-stable constructions.

P(eta(t_1) <= x_1, ..., eta(t_n) <= x_n) = exp(-V) where the exponent
V = E max_j exp(<X, t_j> - kappa(t_j)) / x_j is estimated by Monte Carlo
(``exponent_mc``) for general queries, and available in closed form
(``closed_bivariate``) for the bivariate Husler-Reiss case of Gaussian
spectral vectors.  kappa only rescales the kappa = phi process (phi the
CGF of X), so a query under kappa is the kappa = phi query at the
thresholds x'_j = x_j e^{kappa(t_j) - phi(t_j)}: ``_weights`` is the one
reader of kappa, and gives both methods log x'_j and the one weight
w_j = 1 / x'_j.  A query's points are validated as a ``Grid``.
Empirical-CDF utilities for comparing simulations against these
references live here as well.
"""
from __future__ import annotations

import functools
import math
import os
import threading
import time
from collections import deque

import numpy as np

from .frozen import Frozen
from .simulator import Grid
from .spectral import ShapeFunction, SpectralDistribution, ordered_dot

_MC_CHUNK = 1 << 14
_DRAW_AHEAD = 2  # chunks the draw thread of exponent_mc may be ahead of its caller
_CELL_BAND = 32  # a cell end's band in units of u = 2^-53 (see exponent_mc)
_SEPARATION = 2.0 ** -30  # closest 1-D points counted by their cells, relative to |t_j| + |t_l|
_PROBE_FILLS = 4  # fills of a 2^12 buffer per round of the thread probe
_PROBE_ROUNDS = 3
_PROBE_LOCK = threading.Lock()
MIN_SAMPLES = 100  # fewest samples of an empirical CDF or KS distance

# lambda below this routes to the complete-dependence branch; the
# log-ratio term is numerically explosive there.
_HR_LAMBDA_FLOOR = 1e-8


class FddQuery(Frozen):
    """Evaluation points (a ``Grid``) and their thresholds for one fdd probability."""

    _fields = ("ts", "xs")

    def __init__(self, ts, xs):
        ts = Grid(ts).locations
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if xs.shape != ts.shape[:1]:
            raise ValueError("need one threshold per query point")
        if not np.all(np.isfinite(xs) & (xs > 0)):
            raise ValueError("thresholds must be finite and positive")
        self._set_fields(ts, xs)

    @property
    def n(self) -> int:
        return self.xs.shape[0]


class ExponentValue(Frozen):
    """An exponent V, its standard error (0 in closed form) and the method."""

    _fields = ("value", "se", "method")

    def __init__(self, value: float, se: float, method: str):
        self._set_fields(value, se, method)


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function
    (|error| < 1e-15, accurate far into the tails)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def exponent_mc(
    dist: SpectralDistribution,
    kappa: ShapeFunction,
    query: FddQuery,
    mc_n: int,
    rng,
) -> ExponentValue:
    """Monte Carlo estimate of V = E max_j exp(<X, t_j> - kappa(t_j)) / x_j.

    Uses the exact tilted decomposition

        V = sum_j  w_j * P(argmax is j under the t_j-tilted law of X),
        w_j = e^{phi(t_j) - kappa(t_j)} / x_j = 1 / x'_j,

    obtained by splitting the max over the (first-wins) argmax partition
    and absorbing each factor e^{<X, t_j>} into a change of measure.  Each
    summand is a bounded indicator probability, so both the estimate and
    its standard error stay reliable even when the naive summand
    e^{<X, t_j>} is catastrophically heavy-tailed (large ||t_j|| Sigma).

    The query points share their base rows (common random numbers): m =
    mc_n // n rows of the family's ``tilted_sampler`` are read from rng in
    chunks of at most _MC_CHUNK, and every row is tilted to every t_j.  A
    tilted sampler draws n rows at once as it draws them one at a time, so
    the estimate does not depend on the chunk size.  The chunk is sized for
    the cache, not for the number of numpy calls: at 2^14 rows one tilt's
    rows, its n log-term columns and its hit masks (about 0.5 MiB at n = 3)
    stay in a core's L2 cache while they are reused, where 2^16-row chunks
    (about 2 MiB) spilled it and took 15-30% longer on the Gaussian and
    gamma queries of the benchmark (Xeon, 2 MiB of L2 per core).

    With more than one chunk, and where two threads here run numpy work at
    once (``_threads_overlap``, a probe made once per process), a helper
    thread draws the chunks (``_drawn_ahead``), at most two ahead of the
    chunk being tilted and counted here: it reads the same stream in the
    same order as an in-line loop and no row past the last chunk, so
    neither the estimate nor rng's state afterwards moves.  Elsewhere (one
    usable CPU, or a second one busy with other work) the draws are made
    in line, where a second thread would only take turns with this one.

    Per chunk and point j, each point l has the log terms
    c_l = (<x, t_l> - phi(t_l)) - log x'_l of the t_j-tilted rows x (kappa
    enters through log x'_l and w_j, both from ``_weights``), with
    <x, t_l> summed in coordinate order (``ordered_dot``) and no BLAS
    product, so the estimate does not depend on the BLAS thread count
    either.  A row is a hit for j under the first-wins rule: c_j > c_l for
    every l < j and c_j >= c_l for every l > j, so a tie goes to the first
    tied point.  A tilted value that is not finite raises ValueError
    naming its point.

    In d = 1 each c_l is a line in x, so in exact arithmetic the rows that
    hit j are those whose x lies strictly inside j's cell (lower, upper):
    with the crossings x = ((phi_j - phi_l) + (log x'_j - log x'_l)) /
    (t_j - t_l) of c_j with the other lines, lower is the largest crossing
    with a point t_l < t_j and upper the least with a point t_l > t_j
    (``_cells``, once per call).  The computed c_l is within 3u (|x t_l| + |phi_l| + |log x'_l|)
    of the line (u = 2^-53, three roundings), and a computed crossing
    within 5u S_l / |t_j - t_l|, S_l = |phi_j| + |phi_l| + |log x'_j| +
    |log x'_l|.  So where |x - crossing| exceeds 8u (|x| (|t_j| + |t_l|) +
    S_l) / |t_j - t_l|, plus a term of the order of the least normal
    double for underflow, the computed comparison of c_j with c_l has the
    sign of the exact one.  The band of a cell end is _CELL_BAND = 32 u
    times that bound's factors, maximised over l, at the largest |x| that
    can lie within it: four times the bound, which leaves room for the
    rounding of the band and of the end +- band themselves.  A chunk whose
    tilted values all lie outside the bands of their points' cell ends is
    counted from the cells (``_count_by_cells``: at most four comparisons
    a point), and it counts what the log terms would; a chunk with a value
    inside a band, such as an exact tie, is counted by the log terms
    themselves (``_count_by_terms``).  The count is therefore the same bit
    for bit; no property of the family's tilt is used, since both read
    the same tilted values.  Queries in d >= 2, and those with two points
    closer than 2^-30 (|t_j| + |t_l|), where the band would cover the
    draws, are counted by their terms throughout.

    With N_jk the number of rows that hit both j and k (N_jj the hits of
    j) and p_j = N_jj / m, V = sum_j w_j p_j is the mean over the rows of
    Y = sum_j w_j hit_j, and se^2 = sum_jk w_j w_k (N_jk / m - p_j p_k) / m,
    which is (sum_jk w_j w_k N_jk / m - V^2) / m, is the sample variance of
    Y over m, the cross terms included (exactly 0 when every row hits the
    same points).  The counts are integers, so chunking cannot move either
    number.
    """
    if mc_n < 1000:
        raise ValueError("mc_n must be >= 1000")
    n = query.n
    m = mc_n // n
    if m < MIN_SAMPLES:
        raise ValueError(f"mc_n must give each of the {n} query points at least {MIN_SAMPLES} draws")
    phi, log_x, weights = _weights(dist, kappa, query)
    draw, tilt = dist.tilted_sampler(query.ts)
    cells = _cells(query.ts, phi, log_x)
    chunk = _MC_CHUNK
    sizes = (min(chunk, m - done) for done in range(0, m, chunk))
    if m > chunk and _threads_overlap():
        chunks = _drawn_ahead(draw, sizes, rng)
    else:
        chunks = (draw(size, rng) for size in sizes)
    pairs = np.zeros((n, n), dtype=np.int64)
    try:
        for rows in chunks:
            hits = None if cells is None else _count_by_cells(rows, tilt, cells)
            if hits is None:
                hits = _count_by_terms(rows, tilt, query.ts, phi, log_x)
            for j in range(n):
                pairs[j, j] += np.count_nonzero(hits[j])
                for k in range(j + 1, n):
                    pairs[j, k] += np.count_nonzero(hits[j] & hits[k])
    finally:
        chunks.close()
    pairs += np.triu(pairs, 1).T  # N_kj = N_jk
    p = np.diag(pairs) / m
    cov = pairs / m - p[:, None] * p
    value = float(ordered_dot(weights, p))
    # a Y constant over rows that hit different points (exact ties) has
    # variance 0, which round-off can leave a few ulps below 0
    var = float(ordered_dot(ordered_dot(cov, weights), weights)) / m
    return ExponentValue(value, math.sqrt(max(var, 0.0)), "mc")


def _tilted(rows, tilt, j):
    """tilt(rows, j).  ValueError names the point j if a tilted value is
    not finite (the tilt overflowed): its log terms would be nan or tie at
    infinity, and count as no row of the law does."""
    with np.errstate(all="ignore"):  # a value that is not finite is reported below
        x = tilt(rows, j)
    if not np.isfinite(x).all():
        raise ValueError(f"a draw tilted to query point {j} is not finite")
    return x


def _count_by_terms(rows, tilt, ts, phi, log_x):
    """Each point j's hit mask over the rows tilted to t_j, from the n
    columns of log terms c_l of those rows under the first-wins rule."""
    hits = []
    for j in range(len(ts)):
        x = _tilted(rows, tilt, j)
        cols = [ordered_dot(x, t) for t in ts]
        for c, f, lx in zip(cols, phi, log_x):
            c -= f
            c -= lx
        hit = np.ones(len(rows), dtype=bool)
        for c in cols[:j]:
            hit &= cols[j] > c
        for c in cols[j + 1:]:
            hit &= cols[j] >= c
        hits.append(hit)
    return hits


def _cells(ts, phi, log_x):
    """The argmax cell (lower, upper) of each point of a 1-D query, less
    and more its band at each end (``exponent_mc``): for point j the
    thresholds (lower - band, lower + band, upper - band, upper + band),
    infinite at a missing end.  None, so that every chunk is counted by
    its terms, for a query in d >= 2 or of one point, one with two points
    closer than _SEPARATION (|t_j| + |t_l|), or one whose ends or bands
    are not finite."""
    if ts.shape[1] != 1 or len(ts) < 2 or not (np.all(np.isfinite(phi)) and np.all(np.isfinite(log_x))):
        return None
    t = ts[:, 0]
    other = ~np.eye(len(t), dtype=bool)
    tiny = np.finfo(float).tiny
    unit = _CELL_BAND * np.finfo(float).epsneg  # _CELL_BAND u, u = 2^-53
    with np.errstate(all="ignore"):  # 0 / 0 on the diagonal, masked; an overflow is checked below
        gap = t[:, None] - t  # t_j - t_l
        size = np.abs(t[:, None]) + np.abs(t)
        # c_j = c_l at x = ((phi_j - phi_l) + (log x'_j - log x'_l)) / (t_j - t_l)
        crossings = ((phi[:, None] - phi) + (log_x[:, None] - log_x)) / gap
        scale = np.abs(phi[:, None]) + np.abs(phi) + np.abs(log_x[:, None]) + np.abs(log_x)
        slope = np.where(other, unit * size / np.abs(gap), 0.0).max(axis=1)
        offset = np.where(other, unit * (scale + tiny) / np.abs(gap), 0.0).max(axis=1) + tiny
        ends = np.array([np.where(gap > 0, crossings, -np.inf).max(axis=1),
                         np.where(gap < 0, crossings, np.inf).min(axis=1)])
        # a tilted value x near an end has |x| <= (|end| + offset) / (1 - slope);
        # at slope >= 1 (only for a _CELL_BAND far above its value) any x may be
        band = np.where(slope < 1.0, slope * (np.abs(ends) + offset) / (1.0 - slope) + offset, np.inf)
        (below_lower, below_upper), (above_lower, above_upper) = np.where(
            np.isinf(ends), ends, [ends - band, ends + band]).tolist()
    if np.any(np.abs(gap[other]) < _SEPARATION * size[other]):
        return None
    if not all(np.all(np.isfinite(v)) for v in (crossings[other], slope, offset)):
        return None
    return list(zip(below_lower, above_lower, below_upper, above_upper))


def _count_by_cells(rows, tilt, cells):
    """Each point j's hit mask over the rows tilted to t_j, from the
    point's cell alone: x above its lower end and below its upper end.
    None if a tilted value lies within the band of an end, where only the
    log terms themselves tell (``_count_by_terms``)."""
    hits = []
    for j, (below_lower, above_lower, below_upper, above_upper) in enumerate(cells):
        x = _tilted(rows, tilt, j).reshape(-1)
        hit = wide = None  # x in the cell narrowed, and widened, by the bands of its ends
        if above_lower > -math.inf:
            hit, wide = x > above_lower, x >= below_lower
        if below_upper < math.inf:
            under, over = x < below_upper, x <= above_upper
            hit = under if hit is None else hit & under
            wide = over if wide is None else wide & over
        if np.count_nonzero(wide) != np.count_nonzero(hit):  # a value within a band
            return None
        hits.append(hit)
    return hits


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads_overlap() -> bool:
    """Whether two threads here run numpy work at once, so that a draw
    thread can gain (``_probe_overlap``, made once per process)."""
    with _PROBE_LOCK:
        return _probe_overlap()


@functools.cache
def _probe_overlap() -> bool:
    """False on one usable CPU, starting no thread.  Else _PROBE_FILLS
    fills of a 2^12 buffer with normals are timed alone, then beside a
    second thread that makes the same fills from the same barrier, best
    of _PROBE_ROUNDS each: the threads overlap if the pair took less than
    1.5 times the fills alone, and take turns if about twice (as where
    the other CPU is busy with other work).  About 2-3 ms; reads no
    caller's stream."""
    if _usable_cpus() < 2:
        return False
    buffers = [np.empty(1 << 12) for _ in range(2)]
    rngs = [np.random.Generator(np.random.SFC64(k)) for k in range(2)]

    def fill(k):
        for _ in range(_PROBE_FILLS):
            rngs[k].standard_normal(out=buffers[k])

    barrier = threading.Barrier(2)

    def timed(paired):
        start = time.perf_counter()
        fill(0)
        if paired:
            barrier.wait()  # until the helper's fills are done too
        return time.perf_counter() - start

    def beside():
        try:
            for _ in range(_PROBE_ROUNDS):
                barrier.wait()
                fill(1)
                barrier.wait()
        except threading.BrokenBarrierError:  # the caller was interrupted
            pass

    fill(0)  # first touch
    alone = min(timed(False) for _ in range(_PROBE_ROUNDS))
    helper = threading.Thread(target=beside, name="exponent_mc probe", daemon=True)
    helper.start()
    try:
        paired = []
        for _ in range(_PROBE_ROUNDS):
            barrier.wait()
            paired.append(timed(True))
    finally:
        barrier.abort()  # frees a helper still waiting
        helper.join()
    return min(paired) < 1.5 * alone


def _drawn_ahead(draw, sizes, rng):
    """draw(size, rng) for each size in ``sizes``, in order, made on a
    helper thread at most _DRAW_AHEAD chunks ahead of the caller.

    numpy releases the GIL while it fills a chunk, so the draws overlap
    the caller's work on the chunks it already has.  Only the helper reads
    rng, in the order a loop would, and it stops at the last size.  An
    exception raised by draw is raised here, in turn.  The helper ends
    with the generator: when the sizes run out, or when the generator is
    closed, after the draw it is making."""
    free = threading.Semaphore(_DRAW_AHEAD)
    ready = threading.Semaphore(0)
    drawn = deque()  # chunks not yet taken, then None (all drawn) or the exception
    stop = threading.Event()

    def fill():
        end = None
        try:
            for size in sizes:
                free.acquire()
                if stop.is_set():
                    return
                drawn.append(draw(size, rng))
                ready.release()
        except BaseException as exc:  # raised again in the caller's thread
            end = exc
        finally:
            drawn.append(end)
            ready.release()

    # joined below; a daemon only so that a helper that failed to end could
    # not also keep the interpreter from exiting
    helper = threading.Thread(target=fill, name="exponent_mc draws", daemon=True)
    helper.start()
    try:
        while True:
            ready.acquire()
            rows = drawn.popleft()
            if rows is None:
                return
            if isinstance(rows, BaseException):
                raise rows
            free.release()
            yield rows
    finally:
        stop.set()
        free.release()  # wakes a helper that waits for a free slot
        helper.join()


def husler_reiss_V(gamma_h: float, x1: float, x2: float) -> ExponentValue:
    """Closed-form bivariate exponent for Gaussian spectral vectors.

    lambda = sqrt(gamma_h) / 2;
    V = Phi(lambda + log(x2/x1) / (2 lambda)) / x1
      + Phi(lambda + log(x1/x2) / (2 lambda)) / x2,
    with the complete-dependence limit max(1/x1, 1/x2) at lambda = 0.
    """
    if x1 <= 0 or x2 <= 0:
        raise ValueError("thresholds must be positive")
    return _husler_reiss(gamma_h, math.log(x2) - math.log(x1), 1.0 / x1, 1.0 / x2)


def _husler_reiss(gamma_h: float, log_ratio: float, w1: float, w2: float) -> ExponentValue:
    """``husler_reiss_V`` from log(x2/x1) and the weights w_j = 1 / x_j,
    which exist also where x2/x1 or x_j itself is not a double."""
    if gamma_h < 0:
        raise ValueError("variogram value must be nonnegative")
    lam = math.sqrt(gamma_h) / 2.0
    if lam < _HR_LAMBDA_FLOOR:
        value = max(w1, w2)
    else:
        value = float(
            std_normal_cdf(lam + log_ratio / (2.0 * lam)) * w1
            + std_normal_cdf(lam - log_ratio / (2.0 * lam)) * w2
        )
    return ExponentValue(value, 0.0, "closed-bivariate")


def _weights(dist, kappa, query):
    """phi(t_j), log x'_j and the weights w_j = 1 / x'_j at the query
    points, x'_j = x_j e^{kappa(t_j) - phi(t_j)} being the kappa = phi
    thresholds; at kappa = phi they are log x_j and 1 / x_j.  w_j is
    1 / x'_j wherever e^{kappa - phi} and x'_j are normal doubles, a few
    ulps from exact at any threshold, and e^{-log x'_j} elsewhere, which
    exists also where e^{kappa - phi} alone is not a double.  ValueError
    names the first point whose weight is not finite: the CGF overflows
    there, or the threshold is too small."""
    with np.errstate(all="ignore"):  # a weight that is not finite is reported below
        phi = dist.cgf(query.ts)
        shift = kappa.values(query.ts) - phi
        log_x = np.log(query.xs) + shift
        scale = np.exp(shift)
        xs = query.xs * scale
        normal = (np.minimum(scale, xs) >= np.finfo(float).tiny) & (xs < np.inf)
        weights = np.where(normal, 1.0 / xs, np.exp(-log_x))
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise ValueError(f"the exponent weight e^(phi - kappa) / x is not finite at query point {bad[0]}")
    return phi, log_x, weights


def closed_bivariate(dist, kappa, query) -> ExponentValue:
    """V of a two-point query of a Gaussian law in closed form: Husler-Reiss
    at the thresholds x'_j and the variogram value h' Sigma h, h = t_2 - t_1."""
    if query.n != 2:
        raise ValueError("closed bivariate applies to two-point queries only")
    if not hasattr(dist, "sigma") or dist.family != "gaussian":
        raise ValueError("closed bivariate exponent requires a gaussian spectral law")
    _, log_x, weights = _weights(dist, kappa, query)
    with np.errstate(over="ignore", invalid="ignore"):  # gamma(h) = inf is the independence limit V = 1/x1 + 1/x2
        h = query.ts[1] - query.ts[0]
        gamma_h = float(h @ dist.sigma @ h)
    if math.isnan(gamma_h):  # inf * 0 in the product
        raise ValueError(f"the variogram h' Sigma h overflows at lag h = {h.tolist()}")
    return _husler_reiss(gamma_h, float(log_x[1] - log_x[0]), float(weights[0]), float(weights[1]))


# ---------------------------------------------------------------------------
# empirical CDFs and distances


def frechet_cdf(x) -> np.ndarray:
    """Unit Frechet CDF exp(-1/x) on (0, inf)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def frechet_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    return -1.0 / math.log(p)


def ks_distance(samples, reference_cdf) -> float:
    """sup over sample points of |F_emp - F_ref| (both one-sided gaps)."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    ref = np.asarray(reference_cdf(samples), dtype=float)
    upper = np.arange(1, n + 1) / n - ref
    lower = ref - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def ks_threshold(n: int) -> float:
    """Asymptotic KS critical value at the 1% level, 1.628/sqrt(n)."""
    return 1.628 / math.sqrt(n)


def bivariate_ecdf_distance(pairs_a, pairs_b, thresholds) -> float:
    """sup over the threshold grid (x, y both in ``thresholds``) of
    |F_a(x, y) - F_b(x, y)| for two samples of bivariate observations (N, 2)."""
    ts = np.asarray(thresholds, dtype=float)

    def ecdf(pairs):
        # F(x, y) = #{first <= x and second <= y} / N: an indicator product
        below = (np.asarray(pairs, dtype=float)[:, :2, None] <= ts).astype(float)
        return below[:, 0].T @ below[:, 1] / len(below)

    return float(np.abs(ecdf(pairs_a) - ecdf(pairs_b)).max(initial=0.0))


def frechet_threshold_grid() -> np.ndarray:
    """Frechet quantiles at probability levels 0.1 .. 0.9."""
    return np.array([frechet_quantile(float(p)) for p in np.arange(0.1, 0.95, 0.1)])
