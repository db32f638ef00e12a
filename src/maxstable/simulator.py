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
grid and at one location per row (a ``_Sampler``): the family's
``tilted_sampler`` for general and Smith, Gaussian increments for
Brown-Resnick (whose quadratic variograms give Smith's field, simulated
as one).  The engine runs in passes of four stages (``_Scan``): it lists
candidates from a table of arrivals, screens each at t_{j-1}, where on a
dense grid nearly every rejected candidate already reaches the field (a
spectral law's on a product lattice also one step back along each slower
axis), scores the few left on all m locations, and advances past the
first one kept.  It works in log space and exponentiates once, so a
single huge value cannot overflow intermediate arithmetic.  ``n_points``
is a loop guard, not a truncation: the most spectral draws at one grid
location; a field that needs more raises ValueError.  The moving-maxima
construction uses an exact-on-grid stopping rule with an explicit
edge-error bound.

Each construction is prepared once per grid by its ``prepare_*``
function, into a ``PreparedLaw`` that holds what all its fields share (phi
on the grid, the tilted-sampler tables and the shift phi - kappa, the
Brown-Resnick embedding or factor, or moving maxima's checked Sigma,
buffer and window).  Its ``simulate(rng)`` draws one field and its
``simulate_many(seed, indices)`` a whole ensemble; ``simulate_*`` draw one
field.  Both run one scan per construction, over the replicates of a
block layout.

Randomness layout.  Replicates come in blocks of W slots that share one
stream (``_Blocks``): an ensemble's replicate k is slot k mod W of block
k // W, W = _REPLICATE_BLOCK, whose stream is ``seeding.block_rng(seed,
block)``; one field is the one replicate of a one-slot block on its own
generator.  A block draws for all its slots, and a slot reads only its
own share, so a replicate's field depends only on its stream and slot
(for an ensemble on (seed, k)), not on which or how many replicates are
asked for, nor their order.  The engine splits a block's stream into an
arrival and a spectral stream, ``spawn(stream, 2)``; Brown-Resnick takes a
third, a completion stream, from ``spawn(stream, 3)``, whose first two
children are the same two, so no other construction's streams move.  The
arrival stream is read in blocks of standard exponentials, each (W,
_ARRIVALS, m): arrival c at t_j of slot s is entry (s, c, j) of a table
that grows by _ARRIVALS arrivals at a time, and Gamma its running sum
over c.  The table starts _ARRIVALS deep and grows, for every slot and
location, when a replicate has listed every arrival of the table at its
location and kept none.  Each candidate reads one base row of the
spectral stream, dealt to the slots in turn: value i of slot s is value
i * W + s (``_Dealt``), in the order the slot's scan needs them; so are
Brown-Resnick's completion rows, one for each candidate that passes the
screen.  Moving maxima draws W x _STORM_STEP standard exponentials and then
W x _STORM_STEP storm centres per lockstep step, and slot s reads row s of
each.  Reading ahead, in any amount, does not change what a slot reads.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .frozen import Frozen

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
_VARIOGRAM_MAX = np.finfo(float).max / 2  # Brown-Resnick adds two variogram values
_ARRIVALS = 8  # arrivals per grid location the arrival table grows by
_REPLICATE_BLOCK = 64  # replicates that share one stream in an ensemble
_BATCH_CELLS = 1 << 15  # most candidate-by-location values scored at once
_STORM_STEP = 32  # storms each moving-maxima replicate adds per lockstep step
_MAX_STORMS = 2_000_000
_DUPLICATE_TOL = 1e-12
_LATTICE_TOL = 1e-9  # relative spread of the steps of a grid simulated as a 1-D lattice
_EMBED_TOL = 1e-10  # most negative circulant eigenvalue, relative to the largest, taken as round-off


def has_duplicate_points(points) -> bool:
    """True when two rows of an (m, d) array lie within _DUPLICATE_TOL.

    Exact: rows are sorted by their projection on a fixed unit vector v,
    and since |<v, p - q>| <= ||p - q||, only rows whose projections lie
    within the tolerance (plus a round-off margin) are compared in full.
    """
    m, d = points.shape
    # irrational coordinate ratios: lattice grids have no ties in projection
    v = np.sqrt(np.arange(2.0, d + 2.0))
    # past the double range a projection or a difference is infinite: two
    # infinite projections (their difference is nan) are compared in full
    with np.errstate(over="ignore", invalid="ignore"):
        proj = points @ (v / np.linalg.norm(v))
        order = np.argsort(proj)
        proj, pts = proj[order], points[order]
        window = _DUPLICATE_TOL + 8 * d * np.finfo(float).eps * float(np.abs(pts).max(initial=0.0))
        lo = np.arange(m)
        lag = 1
        while lo.size:
            lo = lo[lo + lag < m]
            lo = lo[~(proj[lo + lag] - proj[lo] > window)]
            if np.any(np.linalg.norm(pts[lo + lag] - pts[lo], axis=1) <= _DUPLICATE_TOL):
                return True
            lag += 1
    return False


def _product_lattice(points):
    """The axes of an (m, d) grid that is the full product of per-axis
    values, nested in any order (``parse_grid``'s, first axis slowest,
    numpy ``meshgrid``'s default 'xy', or another): per axis, its distinct
    values in grid order and its stride, the run of consecutive locations
    that share a value (m on an axis of one value).  Values are told apart
    by their bits, so -0.0 is not 0.0.  None for a 1-D grid and for any
    grid that is no such product."""
    m, d = points.shape
    if d < 2:
        return None
    bits = np.ascontiguousarray(points).view(np.int64)
    axes = []
    for a in range(d):
        col = bits[:, a]
        change = np.flatnonzero(col != col[0])
        stride = int(change[0]) if change.size else m
        runs = col[::stride]
        again = np.flatnonzero(runs[1:] == runs[0])
        n = int(again[0]) + 1 if again.size else runs.size
        ordered = np.sort(runs[:n])  # not np.unique, which imports numpy.ma (1.6 MB)
        if m % (n * stride) or np.any(ordered[1:] == ordered[:-1]) \
                or np.any(col.reshape(-1, n, stride) != runs[:n, None]):
            return None
        axes.append((points[:n * stride:stride, a], stride))
    # the strides nest: in stride order, each axis of more than one value
    # steps by the product of the counts of the faster ones, and all of
    # them together cover the grid once
    size = 1
    for values, stride in sorted((axis for axis in axes if axis[0].size > 1), key=lambda axis: axis[1]):
        if stride != size:
            return None
        size *= values.size
    return tuple(axes) if size == m else None


class Grid(Frozen):
    """Finite set of evaluation locations in R^d (no duplicates).
    ``lattice`` is the grid's ``_product_lattice`` record, or None."""

    _fields = ("locations",)

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
        self._set_fields(pts)
        object.__setattr__(self, "lattice", _product_lattice(pts))

    @property
    def size(self) -> int:
        return self.locations.shape[0]

    @property
    def dim(self) -> int:
        return self.locations.shape[1]


class Field(Frozen):
    """One simulated realization: positive values on Frechet scale."""

    _fields = ("grid", "values", "provenance")

    def __init__(self, grid: Grid, values, provenance: dict):
        self._set_fields(grid, values, provenance)
        self.__post_init__()

    def __post_init__(self):
        # a method of its own: the benchmark's tracer wraps it by name
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.size,):
            raise ValueError("field values must match the grid size")
        _check_values(vals)
        object.__setattr__(self, "values", vals)


def _check_values(values):
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise ValueError("field values must be strictly positive and finite")


class Variogram(Frozen):
    """Variogram gamma(h) >= 0 with gamma(0) = 0, gamma(h) = gamma(-h).

    Kinds: fractional  gamma(h) = scale * ||h||^alpha, alpha in (0, 2];
           quadratic   gamma(h) = <h, Sigma h> with Sigma PSD.
    The fields of the other kind are None.
    """

    _fields = ("kind", "scale", "alpha", "sigma")

    def __init__(self, kind: str, *, scale=None, alpha=None, sigma=None):
        if kind == "fractional":
            scale, alpha, sigma = float(scale), float(alpha), None
            if scale <= 0:
                raise ValueError("variogram scale must be positive")
            if not 0.0 < alpha <= 2.0:
                raise ValueError("variogram exponent must lie in (0, 2]")
        elif kind == "quadratic":
            scale = alpha = None
            sigma, _, _ = clamp_psd(sigma)
        else:
            raise ValueError(f"unknown variogram kind {kind!r}")
        self._set_fields(kind, scale, alpha, sigma)

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
# replicates on block streams


class _Blocks:
    """The block layout (the module docstring's): replicate indices[r] is
    slot indices[r] mod width of block indices[r] // width, whose stream is
    ``stream(block)``."""

    def __init__(self, indices, stream, width):
        blocks, self.slot = np.divmod(np.asarray(indices), width)
        block_ids = sorted(set(blocks.tolist()))
        self.owner = np.searchsorted(block_ids, blocks)
        self.streams = [stream(b) for b in block_ids]
        self.width = width

    def own(self, draws):
        """Each replicate's slot of per-block draws whose leading axis is the slot."""
        if len(draws) == 1:
            return draws[0][self.slot]  # one block: not stacked first
        return np.array(draws)[self.owner, self.slot]


def _block_share(width, blocks):
    """A block's share of _BATCH_CELLS in rows of ``width`` values; a row of
    none (a grid where nothing moves) counts as one value."""
    return _BATCH_CELLS // (max(1, width) * blocks.width)


class _Dealt:
    """One stream per block, dealt to the block's slots in turn: value (or
    row) i of a slot is value i * width + slot of its block's stream.
    take(n, stream) reads a stream's next n values.  They are read in whole
    rounds of width: one round first, and then what a replicate is short of,
    or more, up to as many rounds as the buffer holds or a block's share of
    _BATCH_CELLS.  That does not change what a slot reads.  The buffer keeps
    only what some replicate may still read."""

    def __init__(self, blocks, streams, take):
        self.blocks, self.streams, self.take = blocks, streams, take
        self.values = self._read(1)
        self.first, self.filled = 0, 1  # the slot index of values[:, 0], and columns read
        self.most = max(1, _block_share(self.values[0, 0].size, blocks))

    def _read(self, rounds):
        width, parts = self.blocks.width, []
        for stream in self.streams:
            a = self.take(rounds * width, stream)
            parts.append(a.reshape(rounds, width, *a.shape[1:]).swapaxes(0, 1))
        return self.blocks.own(parts)

    def at(self, replicates, index, low):
        """Value index[i] of replicate replicates[i]'s slot; no replicate
        reads below ``low`` any more."""
        short = int(index.flat[index.argmax()]) + 1 - self.first - self.filled if index.size else 0
        if short > 0:
            more = self._read(max(short, min(self.filled, self.most)))
            keep = self.filled - (low - self.first)
            if self.filled + len(more[0]) > self.values.shape[1]:
                # move what is kept to the front, into a larger buffer if need be
                size = max(self.values.shape[1], 2 * (keep + len(more[0])))
                kept = self.values[:, self.filled - keep:self.filled]
                if size > self.values.shape[1]:
                    self.values = np.empty((len(kept), size, *kept.shape[2:]))
                self.values[:, :keep] = kept
                self.first, self.filled = low, keep
            self.values[:, self.filled:self.filled + len(more[0])] = more
            self.filled += len(more[0])
        if index.ndim == 1 and index.size and replicates[0] == replicates[-1]:
            # one replicate's values are a run of its own: no copy
            return self.values[replicates[0], index[0] - self.first:index[-1] + 1 - self.first]
        return self.values[replicates, index - self.first]


# ---------------------------------------------------------------------------
# exact simulation by extremal functions


# A construction's candidates for the engine (see _extremal_log_fields):
# draw(n, rng) gives n base rows; log_y(rows, js[, paths]) the (n, m) log Y,
# row r tilted at t_{js[r]}; screen(rows, js[, cols]) row r's log Y at
# t_{js[r] - 1}, or at t_{cols[r]} if cols are given, log_y's entry bit for
# bit; complete(n, rng) n completion rows, or None; witnesses, the offsets
# s > 1 at which the engine also screens, cols = js - s (none unless given;
# a sampler with witnesses takes cols).
_Sampler = namedtuple("_Sampler", "draw log_y screen complete witnesses", defaults=(None, ()))

# A pass's candidate table, in list order (see _Scan.list): rep, the position
# of the candidate's replicate in the running record; loc, its location j;
# log_zeta; row, its base row's index in its slot's share of the spectral
# stream; path, a survivor's completion row index if the sampler has
# ``complete``.
_Candidates = namedtuple("_Candidates", "rep loc log_zeta row path", defaults=(None,))

# The running replicates' cursors, by position: ids, the replicate; loc, its
# location t_j; at_loc, t_j's next unlisted arrival (its candidates so far);
# next_row, its next base row; next_path, its next completion row.
_Running = namedtuple("_Running", "ids loc at_loc next_row next_path")


def _extremal_log_fields(m, sampler, n_points, blocks):
    """log Z on m grid locations of every replicate of ``blocks`` (the
    module docstring's layout), exactly, by extremal functions (Dombry,
    Engelke & Oesting, Biometrika 2016, Algorithm 2), the replicates in
    lockstep.

    Location t_j runs its own Poisson process of arrivals zeta = 1 / Gamma
    while zeta > Z(t_j).  Each arrival is a candidate zeta * Y, where
    Y = W / W(t_j) is drawn under the t_j-tilted law; it is kept iff it
    stays below Z at t_0 ... t_{j-1}, and then Z = max(Z, zeta * Y).  A kept
    candidate sets Z(t_j) = zeta, so it is the last candidate at t_j; t_0's
    first one is always kept.  A ``_Sampler`` with ``complete`` reads one
    more row, from a third stream dealt like the base rows, for each
    candidate it scores in full (t_0's first, and each that passes the
    screen), in candidate order.

    A pass runs the four stages of ``_Scan`` on every running replicate at
    once.  A replicate's passes depend on nothing but its own draws, so
    neither do its counts.  Returns log Z (R, m) and, per replicate, the
    spectral draws, the rejections and the rows scored in full.
    """
    scan = _Scan(m, sampler, n_points, blocks)
    while scan.run.ids.size:
        cand, ahead, over = scan.list()
        survivors, x = scan.screen(cand)
        scan.advance(ahead, over, survivors, scan.score(survivors, x))
    return scan.log_z, {"spectral_draws": scan.draws, "rejections": scan.rejections, "full_scores": scan.scored}


class _Scan:
    """The state a pass's stages share: the arrival table, the dealt streams,
    log Z, the per-replicate counts and the running record ``run``."""

    def __init__(self, m, sampler, n_points, blocks):
        self.m, self.sampler, self.n_points, self.blocks = m, sampler, n_points, blocks
        streams = [spawn(stream, 3 if sampler.complete else 2) for stream in blocks.streams]
        self.arrivals, spectral, *completion = zip(*streams)
        self.rows = _Dealt(blocks, spectral, sampler.draw)
        self.paths = _Dealt(blocks, completion[0], sampler.complete) if completion else None
        # a block's pass lists at most _BATCH_CELLS base-row entries and locations
        self.list_cap = max(_ARRIVALS, _block_share(self.rows.values[0, 0].size, blocks))
        self.span = max(_ARRIVALS, _block_share(1, blocks))
        self.score_cap = max(1, _block_share(m, blocks))
        n_rep = blocks.slot.size
        # the arrival table: entry (r, c, j) is log zeta = -log Gamma of arrival c at t_j
        self.table, self.gamma = np.empty((n_rep, 0, m)), np.zeros((n_rep, m))
        self.grow()
        # t_0's first candidate is kept: nothing comes before it
        ids, zero = np.arange(n_rep), np.zeros(n_rep, np.int64)
        first = (self.paths.at(ids, zero, 0),) if self.paths else ()
        self.log_z = self.table[:, 0, :1] + sampler.log_y(self.rows.at(ids, zero, 0), zero, *first)
        # table arrivals above Z at each location, and none past the grid
        self.above = np.zeros((n_rep, m + min(self.span, m)), np.int64)
        self.above[:, :m] = (self.table > self.log_z[:, None]).sum(axis=1)
        self.draws, self.rejections, self.scored = zero + 1, zero.copy(), zero + 1
        n = n_rep if m > 1 else 0
        self.run = _Running(ids[:n], np.ones(n, np.int64), *(np.zeros(n, np.int64) + k for k in (0, 1, 1)))

    def grow(self):
        """Append the arrival table's next _ARRIVALS arrivals at every
        location, read from every block's arrival stream, and return them;
        ``gamma`` is the Gamma of the last arrival at each location, which
        the next ones sum on from."""
        layer = self.blocks.own([e.exponential(size=(self.blocks.width, _ARRIVALS, self.m))
                                 for e in self.arrivals])
        layer[:, 0] += self.gamma
        np.cumsum(layer, axis=1, out=layer)
        self.gamma = layer[:, -1].copy()
        np.negative(np.log(layer, out=layer), out=layer)
        self.table = np.concatenate([self.table, layer], axis=1)
        return layer

    def list(self):
        """The pass's candidate table, the running record as the pass leaves
        each replicate that keeps none, and which ones reach past n_points.

        Z changes only when a candidate is kept, which is rare on a dense
        grid.  So a pass lists, for every running replicate, one window of
        candidates across locations, in location order, as if none were
        kept: at each location the table arrivals that beat Z there (a
        prefix, since Gamma grows; their count is kept per location and
        recounted only when a kept candidate raised Z), from the first one
        not listed yet, up to the first location all of whose arrivals beat
        Z, or to the pass's share of _BATCH_CELLS base-row entries or
        locations.  A replicate that lists every arrival of the table at a
        location, and keeps none, stays there, and the next pass first
        grows the table by _ARRIVALS arrivals.  So a replicate's list is one
        run in the loop's order.
        """
        run, m = self.run, self.m
        if run.at_loc[run.at_loc.argmax()] == self.table.shape[1]:
            self.above[:, :m] += (self.grow() > self.log_z[:, None]).sum(axis=1)
        depth = self.table.shape[1]
        # a replicate far ahead of the slowest waits, which bounds the rows kept: it lists nothing
        low = int(run.next_row[run.next_row.argmin()])
        listing = run.next_row < low + 4 * self.list_cap
        if self.paths:
            slowest = run.next_path.argmin()
            listing &= run.next_path < run.next_path[slowest] + 4 * self.paths.most
            listing[slowest] = True  # so that some replicate lists, whatever its row cursor
        first, at_loc = run.loc, run.at_loc
        cells = first[:, None] + np.arange(min(self.span, m - int(first[first.argmin()])))
        counts = self.above[run.ids[:, None], cells]
        full = counts == depth
        has_full = full.any(axis=1)
        stop = np.where(has_full, full.argmax(axis=1) + 1, cells.shape[1])
        end = np.where(listing, stop, 0)  # a waiting replicate lists nothing
        counts[:, 0] -= at_loc  # what is left to list at t_j
        if depth * cells.shape[1] > self.list_cap:  # else the window fits
            # t_j itself always fits, which a table deeper than list_cap needs
            end = np.minimum(end, np.maximum(1, (counts.cumsum(axis=1) <= self.list_cap).sum(axis=1)))
        over = False
        if self.n_points < depth:
            # a location lists up to n_points candidates, with those of past passes
            left = np.full(counts.shape, self.n_points)
            left[:, 0] -= at_loc
            beyond = (counts > left) & (np.arange(cells.shape[1]) < end[:, None])
            over = beyond.any(axis=1)
            end = np.where(over, beyond.argmax(axis=1) + 1, end)
            np.minimum(counts, left, out=counts)
        full = has_full & (end == stop)
        cols = end[end.argmax()]
        counts = counts[:, :cols]
        if end[end.argmin()] < cols:
            counts[np.arange(cols) >= end[:, None]] = 0
        listed = counts.sum(axis=1)
        flat = counts.ravel()
        start = flat.cumsum() - flat
        start[::cols] -= at_loc  # so t_j's first listed arrival is at_loc
        cell = np.repeat(np.arange(flat.size), flat)
        rep = cell // cols
        locs = cells[:, :cols].ravel()[cell]
        c = np.arange(cell.size) - start[cell]
        zeta = self.table.ravel()[(run.ids[rep] * depth + c) * m + locs]
        row = np.arange(rep.size) + (run.next_row - listed.cumsum() + listed)[rep]  # each candidate's base row
        # a replicate with a candidate past n_points stays at its location, as
        # does one that listed all its table arrivals there
        ahead = _Running(run.ids, first + end - (full | over), np.where(full, depth, np.where(listing, 0, at_loc)),
                         run.next_row + listed, run.next_path)
        return _Candidates(rep, locs, zeta, row), ahead, over

    def screen(self, cand):
        """The candidates that pass the screen, with their base rows.

        A candidate at t_j (j >= 1) with zeta * Y(t_{j-1}) >= Z(t_{j-1})
        reaches Z before t_j and is rejected at this screen; one that passes
        is then screened the same way at t_{j-s} (t_0 if j < s), for each of
        the sampler's witness offsets s.  Any earlier location is as exact a
        witness.  t_{j-1} needs no table, and on an unsorted grid it only
        screens less.  On a product lattice the offsets are the strides of
        its slower axes, so a candidate is also screened one row back: a
        row's first location, whose t_{j-1} is the far end of the row
        before, mostly finds its rejection there.  The screen decides what
        the full row would only if it gives the full row's entry bit for bit.
        """
        run, sampler = self.run, self.sampler
        reps = run.ids[cand.rep]
        x = self.rows.at(reps, cand.row, int(run.next_row[run.next_row.argmin()]))
        live = (cand.log_zeta + sampler.screen(x, cand.loc) < self.log_z[reps, cand.loc - 1]).nonzero()[0]
        for s in sampler.witnesses:
            j = cand.loc[live]
            back = np.maximum(j - s, 0)  # t_0 for j < s: any earlier location is exact
            live = live[cand.log_zeta[live] + sampler.screen(x[live], j, back) < self.log_z[reps[live], back]]
        rep, path = cand.rep[live], None
        if self.paths:
            # the completion rows, in candidate order per replicate
            path = run.next_path[rep] + np.arange(live.size) - rep.searchsorted(rep)
        return _Candidates(rep, cand.loc[live], cand.log_zeta[live], cand.row[live], path), x[live]

    def score(self, survivors, x):
        """Each running replicate's first kept candidate, an index into the
        survivors (-1 if none).  They are scored on all m locations, each
        replicate's in slices of 1, 2, 4, ... up to the block's share of
        _BATCH_CELLS / m rows; log Z and ``above`` follow each kept one."""
        run, s, m = self.run, survivors, self.m
        reps = run.ids[s.rep]
        # the k-th slices of all replicates at once, in order of rank
        rank = np.arange(reps.size) - s.rep.searchsorted(s.rep)
        order = rank.argsort(kind="stable")
        edges, size = [0], 1
        while edges[-1] < reps.size:
            edges.append(edges[-1] + size)
            size = min(2 * size, self.score_cap)
        edges = rank[order].searchsorted(edges).tolist()
        found, extra, n_found = np.zeros(run.ids.size, np.int64) - 1, (), 0
        for lo, hi in zip(edges, edges[1:]):
            part = order[lo:hi]
            if n_found:
                part = part[found[s.rep[part]] < 0]
            if not part.size:
                break
            if self.paths:
                part = np.sort(part)  # the completion rows are read per replicate, in order
                extra = (self.paths.at(reps[part], s.path[part], int(run.next_path[run.next_path.argmin()])),)
            rs, at = reps[part], s.loc[part]
            np.add.at(self.scored, rs, 1)
            cand = s.log_zeta[part, None] + self.sampler.log_y(x[part], at, *extra)
            # a candidate reaches Z at its own location: it is kept iff that is the first where it does
            kept = ((cand >= self.log_z[rs]).argmax(axis=1) == at).nonzero()[0]
            if kept.size:
                if kept.size > 1:
                    # each replicate's first kept candidate of the slice
                    kept = kept[np.unique(rs[kept], return_index=True)[1]]
                rk, pk = rs[kept], part[kept]
                self.log_z[rk] = np.maximum(self.log_z[rk], cand[kept])
                # Z changed only from the kept candidates' locations on
                j = at[kept][at[kept].argmin()]
                self.above[rk, j:m] = (self.table[rk, :, j:] > self.log_z[rk, None, j:]).sum(axis=1)
                found[s.rep[pk]] = pk
                n_found += kept.size
        return found

    def advance(self, ahead, over, survivors, found):
        """Each running replicate goes on after its first kept candidate, or
        where ``list`` left it if it keeps none; past t_{m-1} it leaves ``run``.

        Up to that candidate every decision is the one the location by
        location loop makes; it sets Z(t_i) = zeta and so is t_i's last, and
        the row and completion cursors move past it alone.
        n_points is checked only for candidates the scan reaches: one past it
        that a kept candidate pre-empts does not raise.
        """
        run, s = self.run, survivors
        over = (over & (found < 0)).nonzero()[0]
        if over.size:
            raise ValueError(f"grid location {ahead.loc[over[0]]} needs more than n_points = "
                             f"{self.n_points} spectral draws")
        kept = (found >= 0).nonzero()[0]
        f = found[kept]
        if self.paths:
            ahead = ahead._replace(next_path=run.next_path + np.bincount(s.rep, minlength=run.ids.size))
            ahead.next_path[kept] = s.path[f] + 1
        ahead.next_row[kept] = s.row[f] + 1
        ahead.loc[kept], ahead.at_loc[kept] = s.loc[f] + 1, 0
        used = ahead.next_row - run.next_row
        self.draws[run.ids] += used
        self.rejections[run.ids] += used - (found >= 0)
        go = ahead.loc < self.m
        self.run = ahead if go[go.argmin()] else _Running(*(a[go] for a in ahead))


class PreparedLaw(Frozen):
    """One construction's law on one grid, its grid invariants computed
    once.  ``scan(blocks)`` gives the (R, m) log Z of the replicates of a
    ``_Blocks`` layout and their per-replicate counts as arrays;
    ``provenance`` holds what every field records besides them."""

    _fields = ("grid", "provenance", "scan")

    def __init__(self, grid: Grid, provenance: dict, scan):
        self._set_fields(grid, provenance, scan)

    def simulate(self, rng, *, seed_record=None) -> Field:
        """One field, drawn from rng alone: the one replicate of a one-slot
        block whose stream is rng.  k fields of one prepared law are those
        of k ``simulate_*`` calls with the same generators."""
        log_z, counts = self.scan(_Blocks([0], lambda block: rng, 1))
        counts = {key: int(value[0]) for key, value in counts.items()}
        return Field(self.grid, self._exp(log_z[0]), {**self.provenance, "seed": seed_record, **counts})

    def simulate_many(self, seed: int, indices):
        """Replicates ``indices`` (integers >= 0) of seed: an (R, m) array
        whose row r is replicate indices[r] on the grid, and one record of
        the law, the seed and the per-replicate counts.  A replicate's row
        depends only on (seed, index): see the module docstring's layout."""
        blocks = _Blocks(replicate_indices(indices), lambda block: block_rng(int(seed), block), _REPLICATE_BLOCK)
        log_z, counts = self.scan(blocks)
        values = self._exp(log_z)
        _check_values(values)
        return values, {**self.provenance, "seed": seed, "replicate_block": _REPLICATE_BLOCK, **counts}

    def _exp(self, log_z):
        if np.any(log_z > _LOG_MAX):
            raise ValueError(f"{self.provenance['construction']} field overflows the double "
                             f"range (max log value {log_z.max():.3g})")
        values = np.exp(log_z)
        if np.any(values == 0.0):
            raise ValueError(f"{self.provenance['construction']} field underflows the double "
                             f"range (min log value {log_z.min():.3g})")
        return values


def _engine_law(grid, sampler, n_points, provenance, shift=0.0) -> PreparedLaw:
    """The engine's field exp(log Z + shift) for a ``_Sampler``."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")

    def scan(blocks):
        log_z, counts = _extremal_log_fields(grid.size, sampler, n_points, blocks)
        return log_z + shift, counts

    return PreparedLaw(grid, {**provenance, "n_points": n_points}, scan)


def _spectral_law(dist, kappa, grid, n_points, construction) -> PreparedLaw:
    """max_i U_i exp(<X_i, t> - kappa(t)): the engine simulates the
    unit-Frechet field with kappa = phi, the CGF of X, and shifts it by
    phi(t) - kappa(t).  Y = W / W(t_j) for W(t) = exp(<X, t> - phi(t)) and X
    under the t_j-tilted law has log Y = a(t) - a(t_j), a(t) = <X, t> - phi(t):
    one product and two passes over the candidates, and exactly 0 at t_j.
    <X, t> is summed in coordinate order, so the screen's entry is log_y's
    bit for bit and a row's values do not depend on its batch."""
    t_mat = grid.locations
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        phi = np.asarray(dist.cgf(t_mat), dtype=float)  # checks the grid against the CGF domain
        # exactly 0.0 when kappa is the CGF of X itself
        shift = phi - kappa.values(t_mat)
    bad = np.flatnonzero(~np.isfinite(shift))  # so also wherever phi is not finite
    if bad.size:
        raise ValueError(f"phi - kappa is not finite at grid location {bad[0]} (the CGF overflows)")
    draw, tilt = dist.tilted_sampler(t_mat)

    def log_y(rows, js):
        a = ordered_dot(tilt(rows, js)[:, None, :], t_mat) - phi
        return a - a[np.arange(len(js)), js][:, None]

    def screen(rows, js, cols=None):
        x, cols = tilt(rows, js), (js - 1 if cols is None else cols)
        return (ordered_dot(x, t_mat[cols]) - phi[cols]) - (ordered_dot(x, t_mat[js]) - phi[js])

    prov = {"construction": construction, "dist": dist.spec_string(),
            "kappa": kappa.law.spec_string(), "c0": kappa.c0}
    return _engine_law(grid, _Sampler(draw, log_y, screen, witnesses=_witnesses(grid)), n_points, prov, shift)


def _witnesses(grid: Grid):
    """The spectral screen's witness offsets on a product lattice: the
    strides above 1 of its axes of more than one value, in increasing
    order; none on any other grid."""
    return tuple(sorted(stride for values, stride in grid.lattice or () if values.size > 1 and stride > 1))


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
    """Factor of the covariance C(s, t) = 0.5 (gamma(s - t_0) + gamma(t - t_0)
    - gamma(s - t)) of G - G(t_0) (fractional variogram gamma) on the grid,
    and the pairwise gamma(s - t).  Row 0 of the factor is zero: G - G(t_0)
    is 0 at t_0.  The other rows are positive definite for 0 < alpha < 2 and
    share one Cholesky factor.  Only differences of locations enter, so a
    grid and its translate give the same factor.

    Both are built in place, from one m x m buffer per table: |s - t| sums
    the squared coordinate differences in coordinate order, as
    ``np.linalg.norm`` does, so the tables equal ``variogram(s - t)`` and
    the covariance from them bit for bit."""
    pts = grid.locations
    with np.errstate(over="ignore"):  # checked below
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
    _check_variogram_size(pairwise, "this grid")
    g = pairwise[0, 1:]
    cov = np.add.outer(g, g)
    cov -= pairwise[1:, 1:]
    cov *= 0.5
    try:
        root = psd_factor(cov, rel_tol=1e-8)
    except ValueError as exc:
        raise ValueError(f"variogram is not valid on this grid: {exc}") from exc
    del cov
    factor = np.zeros((grid.size, grid.size - 1))
    factor[1:] = root
    return factor, pairwise


def _check_variogram_size(values, where):
    """A Brown-Resnick scan adds two variogram values, so the values it reads
    on ``where`` must stay within half the double range."""
    top = values.max()
    if not top <= _VARIOGRAM_MAX:
        raise ValueError(f"variogram is too large on {where}: it reaches {top:.3g}, past half "
                         "the double range, so sums of its values overflow")


# Unconditioned paths of G on a grid: paths(z) turns n rows of ``width``
# standard normals into n paths of G - G(t_0) on the m locations, each 0 at
# t_0; gamma[i, j] = gamma(t_i - t_j), one symmetric (m, m) table (or view)
# from which every variogram value is read; kind is "circulant" or "cholesky".
_Increments = namedtuple("_Increments", "kind width paths gamma")


def _lattice_step(grid: Grid):
    """|h| when the grid is a 1-D lattice t_k = t_0 + k h of m >= 3 points,
    its steps equal to within _LATTICE_TOL of |h|; else None."""
    if grid.dim != 1 or grid.size < 3:
        return None
    t = grid.locations[:, 0]
    with np.errstate(over="ignore"):  # a span or step past the double range is no lattice's
        h = (t[-1] - t[0]) / (grid.size - 1)
        if not np.isfinite(h) or np.abs(np.diff(t) - h).max() > _LATTICE_TOL * abs(h):
            return None
    return abs(h)


def _five_smooth(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, for n >= 1."""
    best = 1 << max(n - 1, 0).bit_length()  # the least power of 2 >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _circulant_increments(variogram: Variogram, m: int, h: float):
    """Paths on a 1-D lattice of step h by circulant embedding (Davies &
    Harte 1987; Wood & Chan 1994; Dietrich & Newsam 1997), or None when the
    embedding has a negative eigenvalue beyond round-off or a spectrum past
    the double range.

    The increments G(t_{k+1}) - G(t_k) are stationary with covariance
    r_k = (gamma((k + 1) h) + gamma(|k - 1| h) - 2 gamma(k h)) / 2.  The
    embedding is that of a lattice of m' >= m points, the least m' whose
    size M = 2(m' - 2) is 5-smooth (``_five_smooth``), so that its FFTs are
    fast: the circulant with first row r_0 .. r_{m'-2}, r_{m'-3} .. r_1,
    whose eigenvalues lambda are one real FFT.  A path puts M normals into
    a Hermitian spectrum, entry k scaled by sqrt(M lambda_k / 2)
    (sqrt(M lambda_k) at k = 0 and M / 2), whose inverse real FFT has the
    circulant as its covariance: its first m' - 1 entries are increments of
    the longer lattice, the first m - 1 of them those of this one, and the
    path is their running sum from 0.  gamma is read from the m-entry lag
    table gamma(k h) through a strided view, so nothing m x m is built."""
    half = _five_smooth(m - 2)  # m' - 2
    size = 2 * half
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        lag = variogram(h * np.arange(half + 2)[:, None])
        k = np.arange(half + 1)
        r = 0.5 * (lag[k + 1] + lag[np.abs(k - 1)] - 2.0 * lag[k])
        eig = np.fft.rfft(np.concatenate([r, r[-2:0:-1]])).real
        amp = np.sqrt(np.maximum(eig, 0.0) * (size / 2.0))
    _check_variogram_size(lag, "this grid's lattice embedding")
    if not np.all(np.isfinite(amp)) or eig.min() < -_EMBED_TOL * eig.max():
        return None
    lag = lag[:m]
    amp[[0, half]] *= math.sqrt(2.0)

    def paths(z):
        spectrum = np.zeros((len(z), half + 1), complex)
        spectrum.real = z[:, :half + 1] * amp
        spectrum.imag[:, 1:half] = z[:, half + 1:] * amp[1:half]
        steps = np.fft.irfft(spectrum, n=size, axis=1)
        g = np.zeros((len(z), m))
        np.cumsum(steps[:, :m - 1], axis=1, out=g[:, 1:])
        return g

    # row j of the view is lag[|i - j|] over i
    gamma = np.lib.stride_tricks.sliding_window_view(np.concatenate([lag[:0:-1], lag]), m)[::-1]
    return _Increments("circulant", size, paths, gamma)


def _br_increments(variogram: Variogram, grid: Grid) -> _Increments:
    """The circulant embedding on a 1-D lattice when it is nonnegative,
    else the Cholesky factor of the covariance of G - G(t_0) on the grid
    and its pairwise table (BLAS products, which round with the thread
    count and batch)."""
    h = _lattice_step(grid)
    inc = _circulant_increments(variogram, grid.size, h) if h else None
    if inc is None:
        factor, pairwise = _br_cov_factor(variogram, grid)
        factor_t = factor.T
        inc = _Increments("cholesky", factor.shape[1], lambda z: z @ factor_t, pairwise)
    return inc


def prepare_brown_resnick(variogram: Variogram, grid: Grid, n_points: int) -> PreparedLaw:
    """Brown-Resnick construction from grid-sampled Gaussian increments,
    exactly: log Y = D(t) - gamma(t - t_j) / 2 with D(t) = G(t) - G(t_j) is
    the t_j-tilted law of W / W(t_j) for W(t) = exp(G(t) - gamma(t) / 2).
    n_points bounds the spectral draws at one grid location.  gamma(h) =
    <h, Sigma h> (quadratic, or alpha = 2 with Sigma = scale I) has
    G(t) = <X, t>, X ~ N(0, Sigma): Smith's field, simulated as such.

    A candidate's base row is one standard normal N, and its screen value
    at t_{j-1} is log Y = S - gamma_1 / 2 with S = sqrt(gamma_1) N = D(t_{j-1}),
    gamma_1 = gamma(t_j - t_{j-1}).  Only a candidate that passes the screen
    reads a completion row: an unconditioned path D~ = G~ - G~(t_j) from
    ``_br_increments``, conditioned on D(t_{j-1}) = S by
    D = D~ + k_j (S - D~(t_{j-1})) / gamma_1, with k_j(t) the covariance
    (gamma(t - t_j) + gamma_1 - gamma(t - t_{j-1})) / 2 of D(t) and
    D(t_{j-1}), and D(t_{j-1}) set to S.  So the scored row's entry at
    t_{j-1} is the screen value bit for bit, and since every gamma is read
    from one symmetric table, k_j(t_j) = 0 and log Y(t_j) = 0 exactly.  t_0's
    first candidate has no screen: D = D~ there."""
    quadratic = variogram.kind == "quadratic"
    if quadratic or variogram.alpha == 2.0:
        sigma = variogram.sigma if quadratic else variogram.scale * np.eye(grid.dim)
        return _spectral_law(*_smith_law(sigma), grid, n_points, "brown_resnick")
    sampler, kind = _brown_resnick_sampler(variogram, grid)
    prov = {"construction": "brown_resnick", "variogram": variogram.kind, "increments": kind}
    return _engine_law(grid, sampler, n_points, prov)


def _brown_resnick_sampler(variogram: Variogram, grid: Grid):
    """prepare_brown_resnick's ``_Sampler`` for a fractional variogram, and
    the kind of its increments."""
    inc = _br_increments(variogram, grid)
    gamma = inc.gamma

    def draw(n, rng_z):
        return np.asarray(rng_z.standard_normal((int(n), 1)))

    def complete(n, rng_c):
        return np.asarray(rng_c.standard_normal((int(n), inc.width)))

    def screen(rows, js):
        g1 = gamma[js, js - 1]
        return np.sqrt(g1) * rows[:, 0] - 0.5 * g1

    def log_y(rows, js, z):
        g = inc.paths(z)
        d = g - g[np.arange(len(js)), js][:, None]  # D~, exactly 0 at t_j
        g_j = gamma[js]
        up = js.nonzero()[0]  # t_0's first candidate has no screen
        if up.size:
            j = js[up]
            g1 = g_j[up, j - 1]
            s = np.sqrt(g1) * rows[up, 0]
            k = 0.5 * (g_j[up] + g1[:, None] - gamma[j - 1])
            d[up] += k * ((s - d[up, j - 1]) / g1)[:, None]
            d[up, j - 1] = s
        return d - 0.5 * g_j

    return _Sampler(draw, log_y, screen, complete), inc.kind


# ---------------------------------------------------------------------------
# moving maxima


def moving_maxima_buffer(c: float, lam_min: float, core):
    """Buffer radius r and edge-error bound for the moving-maxima window.

    c is the kernel constant and lam_min the smallest eigenvalue of Sigma.
    The bound c * exp(-0.5 lam_min r^2) * V_max on what a storm outside the
    buffer adds, with V_max = |buffered window| * 1e3 (the 1e-3 upper
    quantile of the largest storm strength), is brought to 1e-8 by
    fixed-point iteration; it holds with probability about 1 - 1e-3.  The
    bound is absolute, so it presumes a field of order 1: a tiny c (a tiny
    or near-singular Sigma, whose kernel is very wide) can meet it at
    r = 0, where the window would miss every storm that reaches the grid
    from outside its box.  So the iteration goes on from
    sqrt(2 ln 1e8 / lam_min), where the kernel falls to 1e-8 of its peak,
    instead.  Returns (r, the bound).
    """
    core = np.asarray(core, dtype=float).reshape(-1, 2)
    widths = core[:, 1] - core[:, 0]
    r = 0.0
    for _ in range(200):
        v_max = float(np.prod(widths + 2.0 * r)) * 1e3
        arg = c * v_max / 1e-8
        r_new = math.sqrt(2.0 * math.log(arg if arg > 1.0 else 1e8) / lam_min)
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
    storm-by-location values.  ``n_points`` records the storms drawn, per
    replicate in an ensemble.
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
    # per axis, half the offset between the grid points of least and
    # greatest coordinate: by convexity every storm has <u, Sigma u> >= the
    # half offset's form at one of the two, u its offset from the storm, so
    # a form that overflows leaves every storm's kernel 0 at one end of the
    # grid, and the field's minimum and the stopping rule out of reach (an
    # inf span times a zero entry of Sigma is nan, also not finite)
    with np.errstate(over="ignore", invalid="ignore"):
        half = 0.5 * (grid_pts[grid_pts.argmax(axis=0)] - grid_pts[grid_pts.argmin(axis=0)])
        form = ordered_dot(ordered_dot(half[:, None, :], sigma), half)
    if not np.all(np.isfinite(form)):
        k = int(np.flatnonzero(~np.isfinite(form))[0])
        raise ValueError(f"moving-maxima grid too wide for its kernel: half its span along axis {k}, "
                         f"{half[k].tolist()}, has a Mahalanobis form that overflows, so no storm "
                         "reaches both ends of the grid")
    lo, hi = grid_pts.min(axis=0), grid_pts.max(axis=0)
    pad = np.where(hi - lo > 0, 0.0, 0.5)
    core = np.column_stack([lo - pad, hi + pad])
    r_buf, edge_bound = moving_maxima_buffer(c, lam_min, core)
    window = np.column_stack([core[:, 0] - r_buf, core[:, 1] + r_buf])
    widths = window[:, 1] - window[:, 0]
    # the rule needs c |W| / Gamma_K below the field's minimum, at most Z(t_0),
    # a Frechet variable of scale <= 1, so it holds within K storms with
    # probability at most e^{-0.3 K} + 2 K / (c |W|): below 1e-9 at the cap
    # once c |W| > 2 * 10^9 * _MAX_STORMS (in logs, which cannot overflow)
    log_cw = log_c + float(np.log(widths).sum())
    if log_cw > math.log(2e9 * _MAX_STORMS):
        raise ValueError(f"moving-maxima window too wide for the storm cap: c * |W| = "
                         f"10^{log_cw / math.log(10):.1f} (kernel peak times window volume), so the "
                         f"stopping rule holds within {_MAX_STORMS} storms with probability below 1e-9")
    vol = float(np.prod(widths))

    def scan(blocks):
        def storms(stream):
            # the centres are stream.uniform(window[:, 0], window[:, 1]) bit for
            # bit, without the cost of its broadcast bounds
            return (stream.exponential(size=(blocks.width, _STORM_STEP)),
                    window[:, 0] + widths * stream.random((blocks.width, _STORM_STEP, grid.dim)))

        n_rep = blocks.slot.size
        best = np.full((n_rep, grid.size), -np.inf)
        gamma_total = np.zeros(n_rep)
        n_storms = np.zeros(n_rep, dtype=np.int64)
        run = np.arange(n_rep)  # the replicates still adding storms
        width = max(1, _BATCH_CELLS // (_STORM_STEP * grid.size))
        while run.size:
            arrivals, centers = (blocks.own(list(a)) for a in zip(*map(storms, blocks.streams)))
            stopped = np.zeros(run.size, dtype=bool)
            for lo in range(0, run.size, width):
                part = run[lo:lo + width]
                gammas = np.cumsum(arrivals[part], axis=1) + gamma_total[part, None]
                gamma_total[part] = gammas[:, -1]
                log_strengths = log_c + np.log(vol / gammas)
                diff = grid_pts - centers[part][:, :, None, :]
                # summed in coordinate order, so a row does not depend on its slice;
                # a form that overflows is a kernel of 0 (log -inf)
                with np.errstate(over="ignore"):
                    quad = ordered_dot(ordered_dot(diff[..., None, :], sigma), diff)
                best[part] = np.maximum(best[part], (log_strengths[:, :, None] - 0.5 * quad).max(axis=1))
                stopped[lo:lo + width] = log_strengths[:, -1] < best[part].min(axis=1)
            n_storms[run] += _STORM_STEP
            if np.any(n_storms[run[~stopped]] >= _MAX_STORMS):
                raise ValueError(f"moving-maxima stopping rule not reached within {_MAX_STORMS} storms")
            run = run[~stopped]
        return best, {"n_points": n_storms}

    prov = {
        "construction": "mmm",
        "window": window.tolist(),
        "buffer_radius": r_buf,
        "edge_error_bound": edge_bound,
    }
    return PreparedLaw(grid, prov, scan)


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
    grid = field.grid
    if grid.lattice is None:
        # "%.17g" % x is format(x, ".17g"): one format operation for the table
        row = ",".join(["%.17g"] * (grid.dim + 1)) + "\n"
        table = np.column_stack([grid.locations, field.values])
    else:
        # a product lattice formats each axis's values once and repeats the
        # strings by stride; one format operation fills in the rows
        row = "%s," * grid.dim + "%.17g\n"
        table = np.empty((grid.size, grid.dim + 1), object)
        for a, (values, stride) in enumerate(grid.lattice):
            strings = np.array(["%.17g" % v for v in values.tolist()], object)
            table[:, a] = np.tile(np.repeat(strings, stride), grid.size // (values.size * stride))
        table[:, -1] = field.values
    return "\n".join(lines) + "\n" + (row * grid.size) % tuple(table.ravel().tolist())
