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

import math
import os
import threading
from collections import deque

import numpy as np

from .frozen import Frozen
from .simulator import Grid
from .spectral import ShapeFunction, SpectralDistribution, ordered_dot

_MC_CHUNK = 1 << 14
_DRAW_AHEAD = 2  # chunks the draw thread of exponent_mc may be ahead of its caller
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

    With two or more usable CPUs and more than one chunk, a helper thread
    draws the chunks (``_drawn_ahead``), at most two ahead of the chunk
    being tilted and counted here: it reads the same stream in the same
    order as an in-line loop and no row past the last chunk, so neither
    the estimate nor rng's state afterwards moves.  On one usable CPU the
    draws are made in line, where a second thread would only take turns
    with this one.

    Per chunk and point j, each point l gets one column of log terms
    c_l = (<x, t_l> - phi(t_l)) - log x'_l of the t_j-tilted rows (kappa
    enters through log x'_l and w_j, both from ``_weights``), with
    <x, t_l> summed in coordinate order (``ordered_dot``) and no BLAS
    product, so the estimate does not depend on the BLAS thread count
    either.  A row is a
    hit for j under the first-wins rule: c_j > c_l for every l < j and
    c_j >= c_l for every l > j, so a tie goes to the first tied point.

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
    chunk = _MC_CHUNK
    sizes = (min(chunk, m - done) for done in range(0, m, chunk))
    if m > chunk and _usable_cpus() > 1:
        chunks = _drawn_ahead(draw, sizes, rng)
    else:
        chunks = (draw(size, rng) for size in sizes)
    pairs = np.zeros((n, n), dtype=np.int64)
    try:
        for rows in chunks:
            hits = []
            for j in range(n):
                x = tilt(rows, j)
                cols = [ordered_dot(x, t) for t in query.ts]
                for c, f, lx in zip(cols, phi, log_x):
                    c -= f
                    c -= lx
                hit = np.ones(len(rows), dtype=bool)
                for c in cols[:j]:
                    hit &= cols[j] > c
                for c in cols[j + 1:]:
                    hit &= cols[j] >= c
                hits.append(hit)
            for j in range(n):
                for k in range(j, n):
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
