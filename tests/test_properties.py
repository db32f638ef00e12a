"""Property tests of the stationarity criterion (hypothesis, derandomized so
that every run draws the same examples)."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxstable import stationarity
from maxstable.seeding import derive_rng
from maxstable.spectral import Exponential, Gamma, Gaussian, Uniform
from maxstable.stationarity import CriterionConfig, _centred_cgfs, defect, search_violation

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

COORD = st.floats(-2.0, 2.0, allow_nan=False)


def _law(family: str, d: int):
    return {
        "gaussian": Gaussian(0.1 * np.arange(d), np.eye(d) + 0.3 * np.ones((d, d))),
        "exp": Exponential(1.0 + np.arange(d)),
        "uniform": Uniform(-np.ones(d), 1.0 + np.arange(d)),
        "gamma": Gamma(0.5 + np.arange(d), 1.0 + 0.5 * np.arange(d)),
    }[family]


@st.composite
def config_batches(draw):
    """K configs of one (n, d): points and shifts in [-2, 2]^d, simplex weights."""
    k, n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    ts = draw(hnp.arrays(float, (k, n, d), elements=COORD))
    h = draw(hnp.arrays(float, (k, d), elements=COORD))
    w = draw(hnp.arrays(float, (k, n), elements=st.floats(0.0, 1.0)))
    w[:, 0] += 1e-3  # a positive sum
    return ts, w / w.sum(axis=1, keepdims=True), h


@PROPERTY
@given(st.sampled_from(["gaussian", "exp", "uniform", "gamma"]), config_batches())
def test_centred_cgf_is_nonpositive_by_jensen(family, batch):
    ts, u, h = batch
    feasible, base, shifted = _centred_cgfs(_law(family, ts.shape[2]), ts, u, h)
    assert len(base) == len(shifted) == feasible.sum()
    assert np.all(base <= 1e-12) and np.all(shifted <= 1e-12)


@st.composite
def gaussian_configs(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    mu = draw(hnp.arrays(float, d, elements=COORD))
    a = draw(hnp.arrays(float, (d, d), elements=st.floats(-1.0, 1.0)))
    ts = draw(hnp.arrays(float, (n, d), elements=COORD))
    h = draw(hnp.arrays(float, d, elements=COORD))
    w = draw(hnp.arrays(float, n, elements=st.floats(0.0, 1.0)))
    w[0] += 1e-3
    return Gaussian(mu, a @ a.T + 0.1 * np.eye(d)), CriterionConfig(ts, w / w.sum(), h)


@PROPERTY
@given(gaussian_configs())
def test_gaussian_defect_vanishes_for_any_config(case):
    dist, cfg = case
    assert abs(defect(dist, cfg)) < 1e-10


@PROPERTY
@given(
    st.sampled_from(["gaussian", "exp", "uniform", "gamma"]),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 20),
    st.floats(-1.0, 0.0),
    st.floats(0.05, 0.95),
    st.integers(0, 2**32 - 1),
)
def test_every_searched_config_is_evaluated_or_skipped(family, n, d, budget, lo, width, seed):
    dist = _law(family, d)
    # lo <= 0 and hi below every rate: the all-lo grid config is feasible
    box = [[lo, lo + width * (1.0 - lo)]] * d
    report = search_violation(dist, n, budget, box, derive_rng(seed))
    total = 5 ** (n * d + d) * math.comb(n + 3, 4)  # (ts, h) values x simplex grid
    stride = -(-total // stationarity._GRID_CAP)
    assert report.n_evaluated + report.n_skipped == -(-total // stride) + budget
    assert report.n_evaluated == len(report.defects) > 0
