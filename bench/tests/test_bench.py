"""Tests of the benchmark itself: metric names and units, traced-run
identity, restoration of wrapped attributes, pooled verdicts and the
refusal to run without sources.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench_run(*args):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_emitted_metrics():
    data = spec()
    assert {w["name"] for w in data["workloads"]} == set(wl.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in data["end_to_end"]} == set(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in data["per_layer"]] == tracer.metric_specs()


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench_run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_run_prints_identical_output_and_restores():
    result = worker.run(wl.TINY["criterion"], seed=5, rounds=2, trace=True)
    assert result["correct"], result["verdict_errors"]
    assert result["trace"]["identical_outputs"] and result["trace"]["restored"]
    assert result["trace"]["layers"]["fdd.exponent_mc.calls"] == 4


def _package_attributes():
    import maxstable

    modules = [m for name, m in sys.modules.items() if name.startswith("maxstable")]
    classes = [getattr(maxstable.spectral, c) for c in ("Gaussian", "Exponential", "Uniform", "Gamma")]
    classes += [maxstable.simulator.Grid, maxstable.simulator.Field]
    return {(id(owner), name): value for owner in modules + classes for name, value in vars(owner).items()}


def test_tracer_wraps_names_where_looked_up_and_restores_them():
    import maxstable.cli  # noqa: F401  (loads every module of the package)
    import maxstable.pointproc
    import maxstable.simulator

    before = _package_attributes()
    original = maxstable.pointproc.frechet_cascade
    trace = tracer.Tracer()
    trace.install()
    try:
        assert maxstable.simulator.frechet_cascade is not original
        assert maxstable.simulator.frechet_cascade is maxstable.pointproc.frechet_cascade
        maxstable.simulator.Grid([[0.0], [1.0]])
        assert trace.stats["simulator.Grid"].calls == 1
    finally:
        trace.restore()
    assert trace.restored()
    after = _package_attributes()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_self_time_excludes_child_spans_and_takes_the_round_scale():
    trace = tracer.Tracer()
    layers = {layer.name: layer for layer in tracer.LAYERS}
    child = trace._wrap(layers["spectral.cgf_multi"], lambda: sum(range(20000)))
    parent = trace._wrap(layers["cli.main"], lambda: child())
    parent()
    trace.close_round(2.0)
    child_span, parent_span = trace.spans
    assert child_span[4] == parent_span[0]
    parent_total = parent_span[3] - parent_span[2]
    child_total = child_span[3] - child_span[2]
    assert trace.stats["cli.main"].self_s == pytest.approx(2.0 * (parent_total - child_total))
    assert trace.stats["spectral.cgf_multi"].self_s == pytest.approx(2.0 * child_total)


def test_pooled_verdicts():
    ok = wl.pooled_verdicts({"compare_reps_equivalent": [True] * 35 + [False]}, {})
    assert ok["compare_reps_equivalent"]["pass"]
    bad = wl.pooled_verdicts({"compare_reps_equivalent": [True] * 30 + [False] * 6}, {})
    assert not bad["compare_reps_equivalent"]["pass"]
    biased = wl.pooled_verdicts({"fdd": [(1.001, 0.001)] * 36}, {"fdd": 1.0})
    assert not biased["fdd"]["pass"] and biased["fdd"]["statistic"] == pytest.approx(6.0)
    assert wl.binom_sf(0, 10, 0.3) == pytest.approx(1.0)
    assert wl.binom_sf(10, 10, 0.5) == pytest.approx(0.5**10)


def test_tail_percentile_has_ten_rounds_beyond():
    value, percentile = run.tail(list(range(40)))
    assert value == 29 and percentile == 75.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ensemble", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
