"""Deterministic RNG derivation for reproducible replicates.

All randomness flows from one master seed.  Replicate k uses the
generator derived from the entropy pair (seed, k), so each replicate's
result depends only on (seed, k), never on which replicates ran before
it or how many there are; replicates run serially.
"""
from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0xC0FFEE


def derive_rng(seed: int, *indices: int) -> np.random.Generator:
    """Generator seeded from (seed, index, ...)."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, *(int(i) for i in indices)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def spawn(rng, n: int):
    """n independent child generators (stub rngs may implement .spawn)."""
    return rng.spawn(n)


def run_replicates(fn, replicates: int, seed: int) -> list:
    """[fn(k, derive_rng(seed, k)) for k < replicates], in replicate order."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    return [fn(rep, derive_rng(seed, rep)) for rep in range(replicates)]
