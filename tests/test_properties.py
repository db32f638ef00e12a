"""Property tests of the stationarity criterion and the spec grammar
(hypothesis, derandomized so that every run draws the same examples)."""
import contextlib
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxstable import stationarity
from maxstable.seeding import derive_rng
from maxstable.simulator import parse_variogram
from maxstable.spectral import (
    Exponential,
    Gamma,
    Gaussian,
    Uniform,
    format_distribution,
    parse_distribution,
    parse_kappa,
)
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


# ---------------------------------------------------------------------------
# spec strings

FINITE = st.floats(-1e6, 1e6, allow_nan=False)
POSITIVE = st.floats(1e-6, 1e6)


@st.composite
def distributions(draw):
    d = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["gaussian", "exp", "uniform", "gamma"]))
    if family == "gaussian":
        a = draw(hnp.arrays(float, (d, d), elements=st.floats(-10.0, 10.0)))
        return Gaussian(draw(hnp.arrays(float, d, elements=FINITE)), a @ a.T + 0.1 * np.eye(d))
    if family == "exp":
        return Exponential(draw(hnp.arrays(float, d, elements=POSITIVE)), draw(st.booleans()))
    if family == "uniform":
        a = draw(hnp.arrays(float, d, elements=FINITE))
        return Uniform(a, a + draw(hnp.arrays(float, d, elements=st.floats(1.0, 1e6))))
    shape, rate = (draw(hnp.arrays(float, d, elements=POSITIVE)) for _ in range(2))
    return Gamma(shape, rate)


@PROPERTY
@given(distributions())
def test_format_then_parse_is_the_identity(dist):
    assert parse_distribution(format_distribution(dist)) == dist


KEYS = {
    "gaussian": ["mu", "sigma"], "exp": ["lambda", "centered"], "uniform": ["a", "b"],
    "gamma": ["k", "theta"], "cgf": [], "quadratic": ["mu", "sigma", "c0"],
    "fractional": ["scale", "alpha"],
}
JUNK = st.lists(
    st.one_of(st.sampled_from([*KEYS, "true", "inf", *":;=,. -+e"]), st.integers(-3, 3).map(str)),
    max_size=6,
).map("".join)
NUMBERS = st.lists(
    st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["0.5", "-0", "1e400", "inf", "nan", ""])),
    min_size=1, max_size=4,
).map(",".join)


def _spec_texts(kind):
    """Specs of one kind: every key given, or random keys, then maybe junk."""
    value = st.one_of(NUMBERS, st.sampled_from(["true", "False"]), JUNK)
    complete = st.tuples(*(st.builds(f"{key}={{}}".format, value) for key in KEYS[kind])).map(list)
    key = st.sampled_from([*KEYS[kind], "theta"])
    keyed = st.lists(st.builds("{}={}".format, key, value), max_size=4)
    return st.builds(
        lambda name, parts, junk: name + ":" + ";".join(parts + junk),
        st.sampled_from([kind, f" {kind.upper()} "]), st.one_of(complete, keyed), st.lists(JUNK, max_size=1),
    )


SPEC_TEXT = st.one_of(JUNK, st.sampled_from(list(KEYS)).flatmap(_spec_texts))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(SPEC_TEXT)
def test_spec_parsers_return_or_reject_cleanly(text):
    # any text over the grammar's alphabet builds an object or is rejected
    # with a SpecParseError or the built type's ValueError, never with a
    # lookup or type error
    for parse in (parse_distribution, parse_variogram, lambda s: parse_kappa(s, _law("exp", 1))):
        with contextlib.suppress(ValueError):
            parse(text)
