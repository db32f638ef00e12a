"""Benchmark of the ``maxstable`` command line: one workload per run.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload {ensemble,wide-grid,criterion} \
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is the run record (machine, versions, BLAS threads, commit,
seed, rounds, pooled verdicts); the record is also written under
``.bench_out/``.  Workloads, metrics and the layer table are described in
``bench/README.md``.

The run uses fresh worker processes (``bench/worker.py``) with BLAS pinned
to one thread: ``SETUP_PROBES`` processes that only import and run the
warm-up round, then one process that runs the timed rounds.  ``setup_s`` is
the median set-up over all of them.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from tracer import metric_specs  # noqa: E402

SETUP_PROBES = 2
BLAS_THREADS = 1
DEADLINE_S = 170.0
OUT_DIR = os.path.join(ROOT, ".bench_out")

# end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "round_p50_ms": "ms",
    "round_tail_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("MAXSTABLE_SEED", None)
    return env


def run_worker(args, rounds: int, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rounds", str(rounds), "--trace", str(trace), "--size", args.size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:g} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with >= 10 values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def rates(per_call: dict) -> dict:
    """Work per second inside the calls that do each kind of work."""
    work, seconds = {}, {}
    for totals in per_call.values():
        kind = totals["measures"]
        work[kind] = work.get(kind, 0) + totals["work"]
        seconds[kind] = seconds.get(kind, 0.0) + totals["time_s"]
    return {f"{kind}_per_s": work[kind] / seconds[kind] for kind in work}


def end_to_end(workload, setups: list, main: dict) -> tuple:
    """End-to-end metrics and the record entries that qualify them; setups
    are the results of every process that measured set-up."""
    round_tail, percentile = tail(main["round_s"])
    rate = rates(main["per_call"])
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": main["wall_s"],
        "round_p50_ms": 1000.0 * statistics.median(main["round_s"]),
        "round_tail_ms": 1000.0 * round_tail,
        "work_per_s": rate[f"{workload.throughput}_per_s"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    extra = {"tail_percentile": percentile, "round_samples": len(main["round_s"]),
             "setup_samples_s": [s["setup_s"] for s in setups],
             "raw_setup_samples_s": [s["setup_raw_s"] for s in setups],
             "raw_round_s": main["raw_round_s"], **rate}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the maxstable CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same workload shapes at smoke-test sizes")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "maxstable", "__init__.py")):
        print("error: no maxstable sources under src/; run from the root of a source checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    table = wl.WORKLOADS if args.size == "full" else wl.TINY
    workload = table[args.workload]
    rounds = wl.round_count(args.seconds)

    try:
        probes = [] if args.trace else [run_worker(args, 0, 0, deadline) for _ in range(SETUP_PROBES)]
        result = run_worker(args, rounds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = probes + [result]

    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "blas_threads_pinned": BLAS_THREADS,
        "closed_loop_clients": 1,
        **{k: result[k] for k in ("rounds", "wall_s", "attempted", "failed", "failures",
                                   "verdict_errors", "pooled", "per_call", "machine")},
        "failed_frac": result["failed"] / result["attempted"],
    }
    if args.trace:
        trace = result["trace"]
        metrics = {name: {"value": trace["layers"][name], "unit": unit} for name, unit, _ in metric_specs()}
        record["tracing"] = {k: v for k, v in trace.items() if k != "layers"}
        record["tracing"]["untraced_wall_s"] = result["wall_s"]
    else:
        values, extra = end_to_end(workload, setups, result)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        record.update(extra)
    record["metrics"] = metrics

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": bool(result["correct"]), "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
