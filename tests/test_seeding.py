import numpy as np

from maxstable.seeding import block_rng, derive_rng, spawn


def test_every_stream_runs_on_sfc64():
    # one generator family: a child of a spawn, or a block stream, is no other kind
    for seed in (0, 7, 2**64 - 1):
        rngs = [derive_rng(seed), derive_rng(seed, 3), block_rng(seed, 2), *spawn(derive_rng(seed), 3),
                *spawn(spawn(block_rng(seed, 2), 2)[1], 2)]
        assert all(isinstance(r.bit_generator, np.random.SFC64) for r in rngs)
