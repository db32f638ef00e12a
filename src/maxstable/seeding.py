"""Deterministic RNG derivation for reproducible replicates.

All randomness flows from one master seed, and replicate k's result
depends only on (seed, k): never on which other replicates run, how many,
or in which order.  Two stream layouts keep that promise.

* Block streams (the exact engine's ``simulate_many``).  Replicates are
  grouped in blocks of a fixed width B; replicate k belongs to block
  k // B, and each block has one stream, ``block_rng(seed, block)``.  At
  every scan step the block draws one number (or base row) for each of
  its B slots, in full, and replicate k reads slot k mod B.  So the B
  replicates of a block run in lockstep from one generator, and a
  replicate's numbers depend only on (seed, k).
* Replicate streams (moving maxima, and any one-at-a-time loop).
  Replicate k uses the generator ``derive_rng(seed, k)`` alone;
  ``run_replicates`` runs such a loop.
"""
from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0xC0FFEE
# a third entropy word keeps block streams apart from every derive_rng(seed, k)
_BLOCK_STREAM = 0xB10C


def derive_rng(seed: int, *indices: int) -> np.random.Generator:
    """Generator seeded from (seed, index, ...)."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, *(int(i) for i in indices)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


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
    """[fn(k, derive_rng(seed, k)) for k in indices], in the order given."""
    return [fn(int(k), derive_rng(seed, k)) for k in replicate_indices(indices)]
