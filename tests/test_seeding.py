import re

import numpy as np
import pytest

from maxstable.seeding import block_rng, derive_rng, spawn
from maxstable.simulator import Grid, prepare_smith


def test_every_stream_runs_on_sfc64():
    # one generator family: a child of a spawn, or a block stream, is no other kind
    for seed in (0, 7, 2**64 - 1):
        rngs = [derive_rng(seed), derive_rng(seed, 3), block_rng(seed, 2), *spawn(derive_rng(seed), 3),
                *spawn(spawn(block_rng(seed, 2), 2)[1], 2)]
        assert all(isinstance(r.bit_generator, np.random.SFC64) for r in rngs)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_one_64_bit_word_raises(seed):
    # else it would alias the seed 2^64 apart: -1 would draw seed 2^64 - 1's stream
    with pytest.raises(ValueError, match=re.escape(f"seed {seed} is outside [0, 2^64)")):
        derive_rng(seed)
    with pytest.raises(ValueError, match=re.escape(f"seed {seed} is outside [0, 2^64)")):
        block_rng(seed, 0)
    with pytest.raises(ValueError, match=re.escape(f"seed {seed} is outside [0, 2^64)")):
        prepare_smith([[1.0]], Grid([0.0, 1.0]), 10_000).simulate_many(seed, range(3))


@pytest.mark.parametrize("seed, indices", [(2.7, ()), (np.float64(3.9), ()), (2, (1.5,))])
def test_a_seed_or_index_that_is_no_integer_raises(seed, indices):
    # int() would truncate it onto an integer's streams: seed 2.7 would draw seed 2's
    with pytest.raises(TypeError):
        derive_rng(seed, *indices)
    with pytest.raises(TypeError):
        block_rng(seed, *(indices or (0,)))
    if not indices:
        with pytest.raises(TypeError):
            prepare_smith([[1.0]], Grid([0.0, 1.0]), 10_000).simulate_many(seed, range(3))


def test_a_numpy_integer_seed_is_its_integer():
    law = prepare_smith([[1.0]], Grid([0.0, 1.0]), 10_000)
    assert derive_rng(np.int64(7), np.int64(2)).random() == derive_rng(7, 2).random()
    assert np.array_equal(law.simulate_many(np.int64(7), range(3))[0], law.simulate_many(7, range(3))[0])
