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
supplies log Y = log(W / W(t_j)) under the t_j-tilted law, on the whole
grid and at one location per row: the family's ``tilted_sampler`` for
general and Smith, Gaussian increments from one Cholesky factor of the
grid's covariance for Brown-Resnick (whose quadratic variograms give
Smith's field, simulated as one).  One field screens each candidate at
t_{j-1} first: on a dense grid nearly every rejected candidate already
reaches the field there, so only the few left are scored on all m
locations.  The screen's value at t_{j-1} must be the full row's entry bit
for bit, or the screen could reject a candidate the full row would keep;
the spectral laws sum <X, t> in coordinate order for that reason
(Brown-Resnick's full rows are one BLAS product, so its screen agrees with
them up to round-off).  The engine works in log space and exponentiates
once, so a single huge value cannot overflow intermediate arithmetic.
``n_points`` is a loop guard, not a truncation: the most spectral draws
at one grid location; a field that needs more raises ValueError.  The
moving-maxima construction uses an exact-on-grid stopping rule with an
explicit edge-error bound.

Each construction is prepared once per grid by its ``prepare_*``
function, into a ``PreparedLaw`` that holds what all its fields share (phi
on the grid, the tilted-sampler tables and the shift phi - kappa, the
Brown-Resnick factor, or moving maxima's checked Sigma, buffer and window).
Its ``simulate(rng)`` draws one field and its ``simulate_many(seed,
indices)`` a whole ensemble; ``simulate_*`` draw one field.

Randomness layout.  One field (``simulate``): the engine splits its
generator into two child streams, arrivals and spectral draws.  The
arrival stream starts with a location-major table of _ARRIVALS standard
exponentials per grid location: arrival c at t_j is entry (c, j) of a
(_ARRIVALS, m) block, and Gamma is its running sum over c.  A location
that needs more arrivals reads them from the stream after the table, in
the order the scan reaches such locations.  The spectral stream gives one
base row per candidate, in the algorithm's order.  Both are read ahead in
blocks of _BLOCK, and what a location does not consume goes to the next,
so the output does not depend on the block size.  A moving-maxima field
is replicate 0 of the block layout below, on a block whose one stream is
its generator.
An ensemble (``simulate_many``), of any construction: replicate k belongs
to block k // _REPLICATE_BLOCK, whose one stream is
``seeding.block_rng(seed, block)``, and the replicates run in lockstep
(``_BlockStreams``).  At each scan step every block still running draws,
in full, _REPLICATE_BLOCK slots of each of the step's draws, and
replicate k reads slot k mod _REPLICATE_BLOCK of each: for the engine one
standard exponential and then one base row per slot, one arrival per
step; for moving maxima _STORM_STEP standard exponentials and then
_STORM_STEP storm centres per slot.  So a replicate's field depends only
on (seed, k), not on which or how many replicates are asked for, nor
their order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the benchmark's tracer tests still look frechet_cascade up on this module
from .pointproc import frechet_cascade  # noqa: F401
from .seeding import block_rng, replicate_indices, spawn
from .spectral import (
    Gaussian,
    ShapeFunction,
    SpectralDistribution,
    clamp_psd,
    ordered_dot,
    parse_matrix,
    parse_numbers,
    parse_spec,
    psd_factor,
)

DEFAULT_N_POINTS = 10_000  # most spectral draws at one grid location unless a caller asks otherwise
_LOG_MAX = math.log(np.finfo(float).max)
_BLOCK = 64  # arrivals and spectral base rows read ahead at a time
_ARRIVALS = 8  # arrivals per grid location in the one-field arrival table
_REPLICATE_BLOCK = 64  # replicates that share one stream in an ensemble
_BATCH_CELLS = 1 << 15  # most candidate-by-location values scored at once
_STORM_STEP = 32  # storms each moving-maxima replicate (or one field) adds per lockstep step
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
        _check_values(vals)
        object.__setattr__(self, "values", vals)


def _check_values(values):
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise ValueError("field values must be strictly positive and finite")


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


def parse_variogram(spec: str) -> Variogram:
    """``fractional:scale=..;alpha=..`` (scale 1 unless given) or ``quadratic:sigma=..``."""
    return parse_spec(spec, {
        "fractional": (Variogram.fractional, lambda take: (
            parse_numbers(take("scale", "1"), 1)[0], parse_numbers(take("alpha"), 1)[0]
        )),
        "quadratic": (Variogram.quadratic, lambda take: (parse_matrix(take("sigma")),)),
    })


# ---------------------------------------------------------------------------
# exact simulation by extremal functions


def _extremal_log_field(m, draw, log_y, log_y_at, n_points, rng):
    """log Z on m grid locations, exactly, by extremal functions (Dombry,
    Engelke & Oesting, Biometrika 2016, Algorithm 2).

    Location t_j runs its own Poisson process of arrivals zeta = 1 / Gamma
    while zeta > Z(t_j).  Each arrival is a candidate zeta * Y, where
    Y = W / W(t_j) is drawn under the t_j-tilted law; it is kept iff it
    stays below Z at t_1 ... t_{j-1}, and then Z = max(Z, zeta * Y).  A kept
    candidate sets Z(t_j) = zeta, so it is the last candidate at t_j.

    draw(n, rng_x) gives n base rows of the spectral stream,
    log_y(rows, js) the (n, m) values log Y of the rows, row r tilted at
    location js[r], and log_y_at(rows, js, cols) entry cols[r] of row r
    alone.  The arrival stream first gives a location-major table: arrival
    c at t_j (c < _ARRIVALS) is entry (c, j) of a (_ARRIVALS, m) block of
    standard exponentials, and its Gamma the sum of entries 0..c of column
    j.  A location that needs more arrivals reads them from the same stream
    after the table, in the order the scan reaches them.  The spectral
    stream gives one base row per candidate, in scan order.  Both streams
    are read _BLOCK at a time, and what is read ahead and not consumed is
    consumed next, so the field is the one drawn one number at a time.

    Z changes only when a candidate is kept, which is rare on a dense grid.
    So a pass of the scan lists candidates across locations as if none
    were kept: at each location the table arrivals that beat Z there, a
    prefix since Gamma grows, counted for all locations at once, up to the
    first location all of whose table arrivals beat Z (it goes on after the
    table in the next pass) or to _BATCH_CELLS base-row entries.  Up to the
    first kept candidate every decision is the one the location-by-location
    loop makes; the scan restarts after it.  The listed candidates are
    screened at the previous location: a candidate at t_j (j >= 1) with
    zeta * Y(t_{j-1}) >= Z(t_{j-1}) reaches Z before t_j and is rejected.
    Only the others are scored on all m locations, in slices of 1, 2, 4, ...
    up to _BATCH_CELLS / m rows, and go through the keep rule.  On a dense
    grid most rejected candidates end at the screen, so only the few left
    cost m values each.  Any earlier location would be as exact a witness;
    t_{j-1} needs no table, and on an unsorted grid it only screens less.
    The screen decides what the full row would only if log_y_at gives the
    full row's entry bit for bit.  n_points is checked only for candidates
    the scan reaches: one past it that a kept candidate pre-empts does not
    raise.  Returns log Z and the spectral draws, the rejections and the
    rows scored in full.
    """
    rng_e, rng_x = spawn(rng, 2)
    # the arrival table: Gamma of arrival c at t_j, and log zeta = -log Gamma
    gammas = np.cumsum(rng_e.exponential(size=(_ARRIVALS, m)), axis=0)
    table = -np.log(gammas)
    more, k = [], 0  # arrivals after the table read ahead, and the next one
    rows = draw(_BLOCK, rng_x)  # spectral base rows not yet consumed
    list_cap = max(_ARRIVALS, _BATCH_CELLS // max(1, rows[0].size))
    score_cap = max(1, _BATCH_CELLS // m)
    log_z = np.full(m, -np.inf)
    draws = kept_total = full_scores = 0
    # the scan: location j and, once t_j is past its table, its Gamma and
    # candidates so far
    j, front = 0, None
    while j < m:
        log_zeta, resume, kk = [], [], k
        over_at = None  # the location of a candidate past n_points
        start = j  # the first location the table lists; None while t_j lists on
        if front is not None:
            # t_j's arrivals after the table, while they beat Z(t_j)
            gamma, at_j = front
            start = None
            while len(log_zeta) < list_cap:
                while kk >= len(more):
                    more += rng_e.exponential(size=_BLOCK).tolist()
                gamma += more[kk]
                kk += 1
                log_zeta_k = -np.log(gamma)
                if not log_zeta_k > log_z[j]:
                    start = j + 1
                    break
                if at_j == n_points:
                    over_at = j
                    break
                at_j += 1
                log_zeta.append(log_zeta_k)
                resume.append(kk)
        locs = np.full(len(log_zeta), j)
        zeta = np.array(log_zeta, dtype=float)
        counts = locs[:0]
        if start is not None and start < m:
            # a prefix of t_i's table arrivals beats Z(t_i), Z being fixed up
            # to the first kept candidate; the list takes whole locations, up
            # to the first all of whose table arrivals do, or to list_cap
            counts = np.count_nonzero(table[:, start:] > log_z[start:], axis=0)
            full = np.flatnonzero(counts == _ARRIVALS)
            stop = full[0] + 1 if full.size else counts.size
            fits = np.searchsorted(np.cumsum(counts[:stop]), list_cap - len(log_zeta), side="right")
            counts = counts[:max(1, min(stop, int(fits)))]
            past = np.flatnonzero(counts > n_points)
            if past.size:
                counts = counts[:past[0] + 1].copy()
                counts[-1] = n_points
                over_at = start + past[0]
            at = np.repeat(np.arange(start, start + counts.size), counts)
            c = np.arange(at.size) - np.repeat(np.cumsum(counts) - counts, counts)
            locs = np.concatenate([locs, at])
            zeta = np.concatenate([zeta, table[c, at]])
        n = locs.size
        if len(rows) < n:
            rows = np.concatenate([rows, draw(_BLOCK * math.ceil((n - len(rows)) / _BLOCK), rng_x)])
        # t_0 is its own witness, where every candidate reaches Z
        witness = np.maximum(locs - 1, 0)
        live = np.flatnonzero((locs == 0) | (zeta + log_y_at(rows[:n], locs, witness) < log_z[witness]))
        first, lo, width = None, 0, 1  # the first kept candidate
        while first is None and lo < live.size:
            part = live[lo:lo + width]
            cand = zeta[part, None] + log_y(rows[part], locs[part])
            full_scores += part.size
            kept = _kept(cand, log_z, locs[part])
            if kept.any():
                i = int(kept.argmax())
                np.maximum(log_z, cand[i], out=log_z)
                first = int(part[i])
            lo += width
            width = min(2 * width, score_cap)
        if first is not None:
            # a kept candidate sets Z(t_i) = zeta and so is t_i's last
            kept_total += 1
            draws += first + 1
            rows = rows[first + 1:]
            k = resume[first] if first < len(resume) else kk
            j, front = int(locs[first]) + 1, None
            continue
        if over_at is not None:
            raise _over_bound(over_at, n_points)
        draws += n
        rows = rows[n:]
        k = kk
        if start is None:  # list_cap ended the list inside t_j's arrivals
            front = (gamma, at_j)
        elif counts.size and counts[-1] == _ARRIVALS:
            j = start + counts.size - 1
            front = (float(gammas[-1, j]), _ARRIVALS)
        else:
            j, front = start + counts.size, None
    return log_z, {"spectral_draws": draws, "rejections": draws - kept_total,
                   "full_scores": full_scores}


class _BlockStreams:
    """The block layout of an ensemble (the module docstring's): replicate
    indices[r] belongs to block indices[r] // _REPLICATE_BLOCK, whose one
    stream is ``stream(block)`` (``block_rng(seed, block)`` for an
    ensemble), and reads slot indices[r] mod _REPLICATE_BLOCK of every
    draw of that stream."""

    def __init__(self, indices, stream):
        blocks, self.slot = np.divmod(indices, _REPLICATE_BLOCK)
        block_ids, self.owner = np.unique(blocks, return_inverse=True)
        self.streams = [stream(b) for b in block_ids]
        self._out = None

    def step(self, run, draw):
        """One scan step: each block with a replicate in ``run`` calls
        draw(stream), which draws for all _REPLICATE_BLOCK slots in full.
        Returns draw's arrays stacked by block (their leading axis is the
        slot), to be read at ``at(replicates)``; each step overwrites the
        last."""
        for b in np.flatnonzero(np.bincount(self.owner[run])):
            got = draw(self.streams[b])
            if self._out is None:
                self._out = tuple(np.empty((len(self.streams), *a.shape)) for a in got)
            for out, a in zip(self._out, got):
                out[b] = a
        return self._out

    def at(self, replicates):
        """The (block, slot) index of each of ``replicates`` (positions in indices)."""
        return self.owner[replicates], self.slot[replicates]


def _extremal_log_fields(m, draw, log_y, n_points, seed, indices):
    """log Z on m grid locations of replicates ``indices`` of seed, in
    lockstep: the scan of ``_extremal_log_field``, one arrival per
    replicate per step, with the same sampler, keep rule and n_points guard.

    At each step every block with a replicate still running draws
    _REPLICATE_BLOCK standard exponentials and then _REPLICATE_BLOCK base
    rows (``_BlockStreams``), and a replicate takes its slot of each.  The
    exponential adds to Gamma at the replicate's location t_j.  If
    zeta = 1 / Gamma > Z(t_j), the row makes a candidate; a kept one sets
    Z(t_j) = zeta, so the next arrival would fall below it and t_j ends at
    once.  Otherwise t_j ends and the row goes unused.  Returns log Z (R, m)
    and the per-replicate spectral draws and rejections.
    """
    layout = _BlockStreams(indices, lambda block: block_rng(seed, block))
    r = len(indices)
    log_z = np.full((r, m), -np.inf)
    loc = np.zeros(r, dtype=np.int64)  # each replicate's location t_j
    gamma = np.zeros(r)
    at_loc = np.zeros(r, dtype=np.int64)  # its candidates at t_j so far
    draws = np.zeros(r, dtype=np.int64)
    kept_total = np.zeros(r, dtype=np.int64)
    run = np.arange(r)  # the replicates still scanning

    def arrivals_and_rows(stream):
        return stream.exponential(size=_REPLICATE_BLOCK), draw(_REPLICATE_BLOCK, stream)

    while run.size:
        arrivals, rows = layout.step(run, arrivals_and_rows)
        g = gamma[run] + arrivals[layout.at(run)]
        log_zeta = -np.log(g)
        is_cand = log_zeta > log_z[run, loc[run]]
        cands = run[is_cand]
        kept = cands[:0]
        if cands.size:
            full = at_loc[cands] == n_points
            if full.any():
                raise _over_bound(int(loc[cands[full.argmax()]]), n_points)
            at_loc[cands] += 1
            draws[cands] += 1
            js = loc[cands]
            cand = log_zeta[is_cand][:, None] + log_y(rows[layout.at(cands)], js)
            keep = _kept(cand, log_z[cands], js)
            kept = cands[keep]
            log_z[kept] = np.maximum(log_z[kept], cand[keep])
            kept_total[kept] += 1
        gamma[run] = g
        ended = np.concatenate([run[~is_cand], kept])
        loc[ended] += 1
        gamma[ended] = 0.0
        at_loc[ended] = 0
        run = run[loc[run] < m]
    counts = {"replicate_block": _REPLICATE_BLOCK, "spectral_draws": draws,
              "rejections": draws - kept_total}
    return log_z, counts


def _kept(cand, log_z, js):
    """The keep rule for candidates (rows of cand) at locations js: a
    candidate reaches Z at its own location, so it is kept iff that is the
    first location where it does."""
    return (cand >= log_z).argmax(axis=1) == js


def _over_bound(j, n_points):
    return ValueError(f"grid location {j} needs more than n_points = {n_points} spectral draws")


@dataclass(frozen=True)
class PreparedLaw:
    """One construction's law on one grid, its grid invariants computed
    once.  ``log_field(rng)`` gives log Z on the grid and the field's own
    counts, ``log_fields(seed, indices)`` the (R, m) log Z of those
    replicates and their counts as arrays; ``provenance`` holds what every
    field records besides them."""

    grid: Grid
    provenance: dict
    log_field: object
    log_fields: object

    def simulate(self, rng, *, seed_record=None) -> Field:
        """One field, drawn from rng alone: k fields of one prepared law are
        those of k ``simulate_*`` calls with the same generators."""
        log_z, counts = self.log_field(rng)
        return Field(self.grid, self._exp(log_z), {**self.provenance, "seed": seed_record, **counts})

    def simulate_many(self, seed: int, indices):
        """Replicates ``indices`` (integers >= 0) of seed: an (R, m) array
        whose row r is replicate indices[r] on the grid, and one record of
        the law, the seed and the per-replicate counts.  A replicate's row
        depends only on (seed, index): see the module docstring's layout."""
        log_z, counts = self.log_fields(int(seed), replicate_indices(indices))
        values = self._exp(log_z)
        _check_values(values)
        return values, {**self.provenance, "seed": seed, **counts}

    def _exp(self, log_z):
        if np.any(log_z > _LOG_MAX):
            raise ValueError(f"{self.provenance['construction']} field overflows the double "
                             f"range (max log value {log_z.max():.3g})")
        return np.exp(log_z)


def _engine_law(grid, sampler, n_points, provenance, shift=0.0) -> PreparedLaw:
    """The engine's field exp(log Z + shift) for a (draw, log_y, log_y_at)
    sampler; the ensemble scan does not screen, so it takes no log_y_at."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    draw, log_y, log_y_at = sampler

    def log_field(rng):
        log_z, counts = _extremal_log_field(grid.size, draw, log_y, log_y_at, n_points, rng)
        return log_z + shift, counts

    def log_fields(seed, indices):
        log_z, counts = _extremal_log_fields(grid.size, draw, log_y, n_points, seed, indices)
        return log_z + shift, counts

    return PreparedLaw(grid, {**provenance, "n_points": n_points}, log_field, log_fields)


def _spectral_law(dist, kappa, grid, n_points, construction) -> PreparedLaw:
    """max_i U_i exp(<X_i, t> - kappa(t)): the engine simulates the
    unit-Frechet field with kappa = phi, the CGF of X, and shifts it by
    phi(t) - kappa(t).  Y = W / W(t_j) for W(t) = exp(<X, t> - phi(t)) and X
    under the t_j-tilted law has log Y = a(t) - a(t_j), a(t) = <X, t> - phi(t):
    one product and two passes over the candidates, and exactly 0 at t_j.
    <X, t> is summed in coordinate order, so log_y_at's entry is log_y's
    bit for bit and a row's values do not depend on its batch."""
    t_mat = grid.locations
    phi = np.asarray(dist.cgf(t_mat), dtype=float)  # checks the grid against the CGF domain
    draw, tilt = dist.tilted_sampler(t_mat)

    def log_y(rows, js):
        a = ordered_dot(tilt(rows, js)[:, None, :], t_mat) - phi
        return a - a[np.arange(len(js)), js][:, None]

    def log_y_at(rows, js, cols):
        x = tilt(rows, js)
        return (ordered_dot(x, t_mat[cols]) - phi[cols]) - (ordered_dot(x, t_mat[js]) - phi[js])

    # exactly 0.0 when kappa is the CGF of X itself
    shift = phi - kappa.values(t_mat)
    prov = {"construction": construction, "dist": dist.spec_string(),
            "kappa": kappa.law.spec_string(), "c0": kappa.c0}
    return _engine_law(grid, (draw, log_y, log_y_at), n_points, prov, shift)


def _smith_law(sigma):
    """Smith's law: gaussian(0, Sigma) X and, as kappa, its CGF 0.5 <t, Sigma t>."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    law = Gaussian(np.zeros(sigma.shape[0]), sigma)
    return law, ShapeFunction.from_cgf(law)


def prepare_general(
    dist: SpectralDistribution, kappa: ShapeFunction, grid: Grid, n_points: int
) -> PreparedLaw:
    """max_i U_i exp(<X_i, t> - kappa(t)) on the grid, exactly; n_points
    bounds the spectral draws at one grid location."""
    return _spectral_law(dist, kappa, grid, n_points, "general")


def prepare_smith(sigma, grid: Grid, n_points: int) -> PreparedLaw:
    """Smith construction: gaussian(0, Sigma) spectral law with quadratic
    normalizer 0.5 <t, Sigma t>."""
    return _spectral_law(*_smith_law(sigma), grid, n_points, "smith")


def _br_cov_factor(variogram: Variogram, grid: Grid):
    """Factor of the covariance C(s, t) = 0.5 (gamma(s) + gamma(t) - gamma(s - t))
    of G (G(0) = 0, fractional variogram gamma) on the grid, and the
    pairwise gamma(s - t).  A location with gamma(t) = 0 has G(t) = 0
    exactly and a zero factor row; the others are positive definite for
    0 < alpha < 2 and share one Cholesky factor.

    Both are built in place, from one m x m buffer per table: |s - t| sums
    the squared coordinate differences in coordinate order, as
    ``np.linalg.norm`` does, so the tables equal ``variogram(s - t)`` and
    the covariance from them bit for bit."""
    pts = grid.locations
    g = variogram(pts)
    pairwise = np.subtract.outer(pts[:, 0], pts[:, 0])
    pairwise *= pairwise
    for a in range(1, grid.dim):
        diff = np.subtract.outer(pts[:, a], pts[:, a])
        diff *= diff
        pairwise += diff
        del diff
    np.sqrt(pairwise, out=pairwise)
    pairwise **= variogram.alpha
    pairwise *= variogram.scale
    moving = np.flatnonzero(g > 0)
    cov = np.add.outer(g[moving], g[moving])
    cov -= pairwise[moving[:, None], moving]
    cov *= 0.5
    try:
        root = psd_factor(cov, rel_tol=1e-8)
    except ValueError as exc:
        raise ValueError(f"variogram is not valid on this grid: {exc}") from exc
    del cov
    factor = np.zeros((grid.size, moving.size))
    factor[moving] = root
    return factor, pairwise


def prepare_brown_resnick(variogram: Variogram, grid: Grid, n_points: int) -> PreparedLaw:
    """Brown-Resnick construction from grid-sampled Gaussian increments,
    exactly: log Y = G(t) - G(t_j) - gamma(t - t_j) / 2 is the t_j-tilted
    law of W / W(t_j) for W(t) = exp(G(t) - gamma(t) / 2).  n_points bounds
    the spectral draws at one grid location.  gamma(h) = <h, Sigma h>
    (quadratic, or alpha = 2 with Sigma = scale I) has G(t) = <X, t>,
    X ~ N(0, Sigma): Smith's field, simulated as such."""
    quadratic = variogram.kind == "quadratic"
    if quadratic or variogram.alpha == 2.0:
        sigma = variogram.sigma if quadratic else variogram.scale * np.eye(grid.dim)
        return _spectral_law(*_smith_law(sigma), grid, n_points, "brown_resnick")
    factor, pairwise = _br_cov_factor(variogram, grid)
    factor_t = factor.T
    half_pairwise = 0.5 * pairwise

    def draw(n, rng_z):
        return np.asarray(rng_z.standard_normal((int(n), factor.shape[1])))

    def log_y(rows, js):
        g = rows @ factor_t
        return g - g[np.arange(len(js)), js][:, None] - half_pairwise[js]

    def log_y_at(rows, js, cols):
        # one dot product per row: may differ from the GEMM entry in the last bits
        g_at = np.einsum("nk,nk->n", rows, factor[cols])
        return g_at - np.einsum("nk,nk->n", rows, factor[js]) - half_pairwise[js, cols]

    prov = {"construction": "brown_resnick", "variogram": variogram.kind}
    return _engine_law(grid, (draw, log_y, log_y_at), n_points, prov)


# ---------------------------------------------------------------------------
# moving maxima


def moving_maxima_buffer(c: float, lam_min: float, core):
    """Buffer radius r and edge-error bound for the moving-maxima window.

    c is the kernel constant and lam_min the smallest eigenvalue of Sigma.
    The bound c * exp(-0.5 lam_min r^2) * V_max on what a storm outside the
    buffer adds, with V_max = |buffered window| * 1e3 (the 1e-3 upper
    quantile of the largest storm strength), is brought to 1e-8 by
    fixed-point iteration; it holds with probability about 1 - 1e-3.
    Returns (r, the bound).
    """
    core = np.asarray(core, dtype=float).reshape(-1, 2)
    widths = core[:, 1] - core[:, 0]
    r = 0.0
    for _ in range(200):
        v_max = float(np.prod(widths + 2.0 * r)) * 1e3
        arg = c * v_max / 1e-8
        r_new = math.sqrt(2.0 * math.log(arg) / lam_min) if arg > 1.0 else 0.0
        if abs(r_new - r) < 1e-9:
            return r_new, c * math.exp(-0.5 * lam_min * r_new**2) * v_max
        r = r_new
    raise ValueError("buffer radius iteration did not converge")


def prepare_moving_maxima(sigma, grid: Grid) -> PreparedLaw:
    """Moving-maxima construction: max over storms of
    c * V_i * exp(-0.5 <(t - T_i), Sigma (t - T_i)>), c = det(Sigma)^1/2 / (2 pi)^{d/2}.

    Sigma is checked once per prepared law.  Storms are streamed in
    decreasing strength on the grid's bounding box (padded by 0.5 on flat
    axes) plus a buffer, and generation stops once c * V_i drops below the
    current field minimum on the grid, so each field is exact on the grid
    up to the recorded outside-buffer error bound.  One scan serves both
    calls: it runs its replicates in lockstep on block streams,
    _STORM_STEP storms each per step, and each stops by itself, after the
    first step whose weakest storm falls below its field's minimum; a step
    scores its replicates in slices of at most _BATCH_CELLS
    storm-by-location values.  An ensemble's block streams are
    ``block_rng(seed, block)``; one field is replicate 0 of a block whose
    stream is its own generator, so ``simulate(block_rng(seed, 0))`` is
    row 0 of ``simulate_many(seed, [0])``.  ``n_points`` records the
    storms drawn, per replicate in an ensemble.
    """
    sigma, eigs, _ = clamp_psd(sigma)
    lam_min = float(eigs.min())
    if lam_min <= 0:
        raise ValueError("moving-maxima representation requires nonsingular Sigma")
    c = math.sqrt(float(np.linalg.det(sigma))) / (2.0 * math.pi) ** (sigma.shape[0] / 2.0)
    log_c = math.log(c) if c > 0 else -math.inf
    grid_pts = grid.locations
    if len(sigma) != grid.dim:
        raise ValueError(f"expected points in R^{len(sigma)}, got shape {grid_pts.shape}")
    lo, hi = grid_pts.min(axis=0), grid_pts.max(axis=0)
    pad = np.where(hi - lo > 0, 0.0, 0.5)
    core = np.column_stack([lo - pad, hi + pad])
    r_buf, edge_bound = moving_maxima_buffer(c, lam_min, core)
    window = np.column_stack([core[:, 0] - r_buf, core[:, 1] + r_buf])
    widths = window[:, 1] - window[:, 0]
    vol = float(np.prod(widths))

    def storms(stream):
        # the centres are stream.uniform(window[:, 0], window[:, 1]) bit for
        # bit, without the cost of its broadcast bounds
        return (stream.exponential(size=(_REPLICATE_BLOCK, _STORM_STEP)),
                window[:, 0] + widths * stream.random((_REPLICATE_BLOCK, _STORM_STEP, grid.dim)))

    def scan(indices, stream):
        layout = _BlockStreams(indices, stream)
        best = np.full((len(indices), grid.size), -np.inf)
        gamma_total = np.zeros(len(indices))
        n_storms = np.zeros(len(indices), dtype=np.int64)
        run = np.arange(len(indices))  # the replicates still adding storms
        width = max(1, _BATCH_CELLS // (_STORM_STEP * grid.size))
        while run.size:
            arrivals, centers = layout.step(run, storms)
            stopped = np.zeros(run.size, dtype=bool)
            for lo in range(0, run.size, width):
                part = run[lo:lo + width]
                at = layout.at(part)
                gammas = np.cumsum(arrivals[at], axis=1) + gamma_total[part, None]
                gamma_total[part] = gammas[:, -1]
                log_strengths = log_c + np.log(vol / gammas)
                diff = grid_pts - centers[at][:, :, None, :]
                # summed in coordinate order, so a row does not depend on its slice
                quad = ordered_dot(ordered_dot(diff[..., None, :], sigma), diff)
                best[part] = np.maximum(best[part], (log_strengths[:, :, None] - 0.5 * quad).max(axis=1))
                stopped[lo:lo + width] = log_strengths[:, -1] < best[part].min(axis=1)
            n_storms[run] += _STORM_STEP
            if np.any(n_storms[run[~stopped]] >= _MAX_STORMS):
                raise ValueError(f"moving-maxima stopping rule not reached within {_MAX_STORMS} storms")
            run = run[~stopped]
        return best, n_storms

    def log_field(rng):
        best, n_storms = scan([0], lambda block: rng)
        return best[0], {"n_points": int(n_storms[0])}

    def log_fields(seed, indices):
        best, n_storms = scan(indices, lambda block: block_rng(seed, block))
        return best, {"replicate_block": _REPLICATE_BLOCK, "n_points": n_storms}

    prov = {
        "construction": "mmm",
        "window": window.tolist(),
        "buffer_radius": r_buf,
        "edge_error_bound": edge_bound,
        "truncation": {"exact_on_grid": True},
    }
    return PreparedLaw(grid, prov, log_field, log_fields)


# ---------------------------------------------------------------------------
# the public simulators: one field of a law prepared for it


def simulate_general(dist, kappa, grid: Grid, n_points: int, rng) -> Field:
    return prepare_general(dist, kappa, grid, n_points).simulate(rng)


def simulate_smith(sigma, grid: Grid, n_points: int, rng) -> Field:
    return prepare_smith(sigma, grid, n_points).simulate(rng)


def simulate_brown_resnick(variogram: Variogram, grid: Grid, n_points: int, rng) -> Field:
    return prepare_brown_resnick(variogram, grid, n_points).simulate(rng)


def simulate_moving_maxima(sigma, grid: Grid, rng) -> Field:
    return prepare_moving_maxima(sigma, grid).simulate(rng)


# ---------------------------------------------------------------------------
# output format


def field_csv_text(field: Field, extra_header: dict | None = None) -> str:
    """Field CSV: one comment header line, then ``t_1,...,t_d,value`` rows
    in grid order with 17 significant digits."""
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
    # "%.17g" % x is format(x, ".17g"): one format operation for the table
    row = ",".join(["%.17g"] * (field.grid.dim + 1)) + "\n"
    table = np.column_stack([field.grid.locations, field.values])
    return "\n".join(lines) + "\n" + (row * field.grid.size) % tuple(table.ravel().tolist())
