"""Benchmark worker: runs one workload in this process, prints one JSON line.

Usage: python3 bench/worker.py --workload NAME --seed N --rounds R --trace 0|1

One client, closed loop: each CLI call goes to ``maxstable.cli.main(argv)``
in-process and the next starts only when it returns.  Set-up is the import
of ``maxstable`` plus one warm-up round (the seeds of round 0).  With
``--rounds 0`` the worker only measures set-up.  With ``--trace 1`` the
timed rounds run untraced first and then again, same seeds, under the
tracer; the difference in wall time is the tracing overhead, and the two
phases must print byte-identical CLI output.

Times are reported at a reference machine speed.  The speed of the shared
host drifts by up to 2x over seconds, for interpreter and BLAS work alike,
so a fixed probe of both runs between rounds, and each round's times are
scaled by ``PROBE_REF_S`` over the mean probe time on either side of it.
Set-up is scaled the same way by an interpreter-only probe taken before
the import and after the warm-up round.  Raw times are kept in the result.

BLAS threads are pinned by the parent through the environment before this
interpreter starts; this worker only reports what the BLAS library uses.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
# probe times on the reference machine (2-core Xeon, BLAS on one thread)
PROBE_PY_REF_S = 0.005
PROBE_REF_S = 0.018


def python_probe() -> float:
    """Seconds for a fixed piece of interpreter work."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Interpreter work, many calls on tiny arrays, cache-resident and
    L2-exceeding matrix products, a vectorized exp and a streaming pass over
    16 MB of buffers (about the size of one contribution chunk); each part
    tracks one kind of work in the workloads."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.pair = rng.random(2)
        self.small = rng.random((120, 120))
        self.wide = rng.random((256, 512))
        self.vector = rng.random(200_000)
        self.big = rng.random(1_000_000)
        self.out = np.empty_like(self.big)

    def seconds(self) -> float:
        """Seconds the whole probe takes now."""
        np = self.np
        seconds = python_probe()
        start = time.perf_counter()
        total = 0.0
        for _ in range(3000):
            u = np.asarray(self.pair, dtype=float)
            total += float(u @ self.pair) - float(np.log(np.exp(u)).sum())
        for _ in range(10):
            self.small @ self.small
        np.exp(self.vector).sum()
        for _ in range(2):
            np.multiply(self.big, 1.5, out=self.out)
            np.maximum(self.out, self.big, out=self.out)
        self.wide @ self.wide.T
        return seconds + time.perf_counter() - start


def call_cli(main, argv):
    """(exit code or None, stdout text, error text or None, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc, error = main(argv), None
        except SystemExit as exc:  # argparse usage errors exit 2
            rc, error = exc.code, None
        except Exception as exc:  # a raising call is a failed call, not a crash
            rc, error = None, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), error, time.perf_counter() - start


class Runner:
    """Runs rounds of one workload and keeps what the checks need."""

    def __init__(self, workload, seed, cli):
        self.probe = SpeedProbe()
        self.workload = workload
        self.seed = seed
        self.cli = cli
        self.attempted = 0
        self.failures = []
        self.verdict_errors = []
        self.observations = {}
        self.per_call = {c.name: {"calls": 0, "time_s": 0.0, "measures": c.measures, "work": 0}
                         for c in workload.calls}

    def run_round(self, index):
        """(raw round seconds, [(rc, stdout, error, seconds)])."""
        results = []
        start = time.perf_counter()
        for argv in wl.round_argvs(self.workload, self.seed, index):
            results.append(call_cli(self.cli.main, argv))
        return time.perf_counter() - start, results

    def timed_rounds(self, rounds, tracer=None):
        """Yield (index, raw seconds, speed scale, results) per round.

        The probe runs before the first round and after every round; a
        round's scale is PROBE_REF_S over the mean of the probes on either
        side of it."""
        before = self.probe.seconds()
        for index in range(rounds):
            if tracer is not None:
                tracer.round = index
            seconds, results = self.run_round(index)
            after = self.probe.seconds()
            scale = PROBE_REF_S / ((before + after) / 2)
            if tracer is not None:
                tracer.close_round(scale)
            yield index, seconds, scale, results
            before = after

    def check_round(self, results, scale):
        for call, (rc, text, error, seconds) in zip(self.workload.calls, results):
            self.attempted += 1
            totals = self.per_call[call.name]
            totals["calls"] += 1
            totals["time_s"] += seconds * scale
            if error is not None or rc not in (0, 1):
                self.failures.append(f"{call.name}: exit {rc}, {error}")
                continue
            try:
                outcome = call.check(rc, text)
            except (wl.OutputError, KeyError, TypeError, ValueError) as exc:
                self.failures.append(f"{call.name}: {exc}")
                continue
            totals["work"] += outcome.work.get(call.measures, 0)
            self.verdict_errors.extend(outcome.verdict_errors)
            for key, value in outcome.observations.items():
                self.observations.setdefault(key, []).append(value)

    def references(self):
        refs = {}
        for key, argv in self.workload.references:
            rc, text, error, _ = call_cli(self.cli.main, [*argv, "--seed", str(self.seed)])
            if error is not None:
                raise RuntimeError(f"reference {key}: {error}")
            refs[key] = wl.reference_value(rc, text)
        return refs


def digests(results):
    return [hashlib.sha256(text.encode()).hexdigest() + f":{rc}" for rc, text, _, _ in results]


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[os.path.basename(path)] = fn()
                break
    return found


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def run(workload, seed: int, rounds: int, trace: bool) -> dict:
    probe_before = python_probe()
    start = time.perf_counter()
    import maxstable.cli as cli

    import_s = time.perf_counter() - start
    runner = Runner(workload, seed, cli)
    warmup_s, warm = runner.run_round(0)
    setup_scale = PROBE_PY_REF_S / ((probe_before + python_probe()) / 2)
    result = {"setup_s": (import_s + warmup_s) * setup_scale, "setup_raw_s": import_s + warmup_s}
    if rounds == 0:
        return result

    round_s, raw_round_s, outputs = [], [], []
    for _, seconds, scale, results in runner.timed_rounds(rounds):
        round_s.append(seconds * scale)
        raw_round_s.append(seconds)
        outputs.append(digests(results))
        runner.check_round(results, scale)
    if digests(warm) != outputs[0]:
        runner.verdict_errors.append("round 0 output differs from the warm-up round with the same seeds")
    pooled = wl.pooled_verdicts(runner.observations, runner.references())
    runner.verdict_errors.extend(f"pooled verdict {k} failed (p = {v['p_value']:.3g})"
                                 for k, v in pooled.items() if not v["pass"])
    wall_s = sum(round_s)
    if trace:
        result["trace"] = traced_phase(runner, rounds, outputs, wall_s)
        if not (result["trace"]["identical_outputs"] and result["trace"]["restored"]):
            runner.verdict_errors.append("traced run changed CLI output or left attributes wrapped")
    result.update(
        correct=not runner.failures and not runner.verdict_errors,
        rounds=rounds,
        round_s=round_s,
        raw_round_s=raw_round_s,
        wall_s=wall_s,
        per_call=runner.per_call,
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures[:10],
        verdict_errors=runner.verdict_errors[:10],
        pooled=pooled,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine(),
    )
    return result


def traced_phase(runner, rounds, outputs, untraced_wall_s) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        wall_s, identical = 0.0, True
        for index, seconds, scale, results in runner.timed_rounds(rounds, tracer):
            wall_s += seconds * scale
            identical &= digests(results) == outputs[index]
    finally:
        tracer.restore()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_file = os.path.join(OUT_DIR, f"spans-{runner.workload.name}-seed{runner.seed}.jsonl")
    tracer.write_spans(spans_file)
    return {
        "wall_s": wall_s,
        "identical_outputs": identical,
        "restored": tracer.restored(),
        "spans_file": os.path.relpath(spans_file, ROOT),
        "layers": tracer.metrics(wall_s - untraced_wall_s, untraced_wall_s),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    table = wl.WORKLOADS if args.size == "full" else wl.TINY
    result = run(table[args.workload], args.seed, args.rounds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
