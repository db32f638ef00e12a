"""The benchmark's own CLI calls, at its smoke-test sizes, pass their own
output checks: a source change that drops a flag, a method or an output
key the benchmark uses must fail here, not only in ``bench/tests``.

``bench/workloads.py`` (standard library only) is loaded read-only from
its file, without putting ``bench/`` on the import path.
"""
import contextlib
import io

import pytest
from conftest import load_bench_module

from maxstable.cli import main

WORKLOADS = load_bench_module("workloads")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


CALLS = [
    pytest.param(call, argv, id=f"{w.name}/{call.name}")
    for w in WORKLOADS.TINY.values()
    for call, argv in zip(w.calls, WORKLOADS.round_argvs(w, 1, 0))
]
REFERENCES = [
    pytest.param(argv, id=f"{w.name}/{name}")
    for w in WORKLOADS.TINY.values()
    for name, argv in w.references
]


@pytest.mark.parametrize("call, argv", CALLS)
def test_a_benchmark_call_passes_its_check(call, argv):
    outcome = call.check(*run(argv))
    assert outcome.verdict_errors == ()


@pytest.mark.parametrize("argv", REFERENCES)
def test_a_benchmark_reference_gives_its_value(argv):
    WORKLOADS.reference_value(*run(argv))
