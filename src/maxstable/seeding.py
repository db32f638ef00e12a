"""Deterministic RNG derivation for reproducible replicates.

All randomness flows from one master seed, and replicate k's result
depends only on (seed, k): never on which other replicates run, how many,
or in which order.

Every field and every ensemble uses one layout: replicates come in
blocks of W slots that share one stream.  A block draws what its scan
needs for all W slots and a slot reads only its own share, so the W
replicates of a block run in lockstep from one generator.  An ensemble
(``PreparedLaw.simulate_many``) has W = 64: replicate k is slot k mod W
of block k // W, whose stream is ``block_rng(seed, block)``, so its
numbers depend only on (seed, k).  One field (``PreparedLaw.simulate``)
is the one replicate of a one-slot block on its own generator, which a
caller that makes one field at a time takes from ``derive_rng(seed,
...)``.

Every generator comes from ``derive_rng``: numpy's SFC64 bit generator,
seeded by a ``SeedSequence`` of the seed, one 64-bit word, and the indices,
and ``spawn`` gives children of the same kind.  SFC64 is one of numpy's
own bit generators; it fills standard normals and Gamma variates faster
than numpy's default PCG64 (on a 2-core Xeon about 9.9 against 12.3 ns a
normal, 17.4 against 20.6 ns a Gamma(2) value), and the Monte Carlo
exponent's critical path is those fills.
"""
from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0xC0FFEE
# a third entropy word keeps block streams apart from every derive_rng(seed, k)
_BLOCK_STREAM = 0xB10C


def derive_rng(seed: int, *indices: int) -> np.random.Generator:
    """Generator seeded from (seed, index, ...).  A seed is one 64-bit word:
    outside [0, 2^64) two seeds would make one stream, so it raises."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    entropy = [seed, *(int(i) for i in indices)]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


def block_rng(seed: int, block: int) -> np.random.Generator:
    """The one stream of replicate block ``block`` under seed."""
    return derive_rng(seed, _BLOCK_STREAM, block)


def spawn(rng, n: int):
    """n independent child generators (stub rngs may implement .spawn)."""
    return rng.spawn(n)


def replicate_indices(indices) -> np.ndarray:
    """The replicate indices as a non-empty int64 array of integers >= 0."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("replicates must be >= 1")
    if idx.dtype.kind not in "iu" or idx.min() < 0:
        raise ValueError("replicate indices must be integers >= 0")
    return idx.astype(np.int64)


def run_replicates(fn, indices, seed: int) -> list:
    """[fn(k, derive_rng(seed, k)) for k in indices], in the order given.

    Nothing in the package calls it: every ensemble runs on block streams.
    It stays while the benchmark's tracer wraps it and
    ``tests/test_bench_layers.py`` checks that the tracer's names exist; it
    goes together with that tracer layer."""
    return [fn(int(k), derive_rng(seed, k)) for k in replicate_indices(indices)]
