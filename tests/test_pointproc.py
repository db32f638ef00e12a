import numpy as np
import pytest

from maxstable.pointproc import FrechetCascade, frechet_cascade
from maxstable.seeding import derive_rng


def test_cascade_from_unit_arrivals(stub_rng):
    cascade = frechet_cascade(4, stub_rng)
    assert np.allclose(cascade.points, [1.0, 0.5, 1.0 / 3.0, 0.25])
    assert cascade.count == 4


def test_cascade_points_decrease(rng):
    cascade = frechet_cascade(1000, rng)
    assert np.all(cascade.points > 0)
    assert np.all(np.diff(cascade.points) < 0)


def test_cascade_validation():
    with pytest.raises(ValueError):
        FrechetCascade(np.array([1.0, 2.0]))  # increasing
    with pytest.raises(ValueError):
        FrechetCascade(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        FrechetCascade(np.array([]))
    with pytest.raises(ValueError):
        frechet_cascade(0, derive_rng(0))


def test_cascade_prefix_stability():
    # drawing 2n arrivals extends the n-point cascade exactly
    short = frechet_cascade(100, derive_rng(3))
    long = frechet_cascade(200, derive_rng(3))
    assert np.array_equal(short.points, long.points[:100])


def test_cascade_seed_record_is_kept():
    cascade = frechet_cascade(3, derive_rng(1), seed_record=(1, 0))
    assert cascade.seed_record == (1, 0)

