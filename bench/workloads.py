"""Benchmark workloads: fixed lists of ``maxstable`` CLI calls ("rounds").

A round is replayed with fresh seeds; each call's seed is derived from
(workload, workload seed, round index, call index), so the program only
ever sees argv.  Every call carries its own output check.  Checks that
depend on a random verdict only record an observation; those are tested
pooled over all rounds of a run (see ``pooled_verdicts``), never per call.

This module imports neither numpy nor maxstable, so the parent process of
the benchmark can read round counts without paying for those imports.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

# lower bound on the criterion-2 defect of the exponential law on box [0, 0.6]
EXP_DEFECT_FLOOR = 0.084950
# every pooled verdict is a 1%-level test.  Comparing a change with its parent
# takes ten pairs of runs (20 runs per workload), so each pooled test is held
# to 0.01 / (20 * tests in the workload): the chance that a correct program
# fails any pooled verdict somewhere in that comparison stays below 1%.
FAMILY_LEVEL = 0.01
RUNS_PER_COMPARISON = 20
# round time of every workload at the baseline on the reference machine
# (2-core Xeon, BLAS pinned to one thread); it only fixes the round count
NOMINAL_ROUND_S = 0.70


class OutputError(Exception):
    """A call's output does not have the structure the CLI promises."""


@dataclass(frozen=True)
class Outcome:
    """What one checked call produced.

    ``verdict_errors`` lists deterministic verdicts that came out wrong;
    ``observations`` feed the pooled random verdicts; ``work`` counts the
    fields, criterion configs or Monte Carlo draws the call computed.
    """

    verdict_errors: tuple = ()
    observations: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a round; ``--seed`` is appended per round."""

    name: str
    argv: tuple
    check: object  # (exit code, stdout text) -> Outcome, raises OutputError
    # the work ("fields", "configs" or "mc_draws") this call's time is charged to
    measures: str


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    # "fields" or "configs": the work counted by the work_per_s metric
    throughput: str
    # reference values computed outside the timed section, as CLI calls
    references: tuple = ()


def call_seed(workload: str, seed: int, round_index: int, call_index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{round_index}/{call_index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def round_argvs(workload: Workload, seed: int, round_index: int) -> list:
    return [
        [*call.argv, "--seed", str(call_seed(workload.name, seed, round_index, i))]
        for i, call in enumerate(workload.calls)
    ]


def round_count(seconds: float) -> int:
    """Rounds that take about ``seconds`` at the baseline; at least 11, so
    that a percentile with ten rounds beyond it exists."""
    return max(11, math.ceil(seconds / NOMINAL_ROUND_S))


# ---------------------------------------------------------------------------
# output checks


def _json(rc: int, text: str, allowed=(0, 1)) -> dict:
    if rc not in allowed:
        raise OutputError(f"exit code {rc}, expected one of {allowed}")
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OutputError(f"output is not JSON: {exc}") from exc
    if not isinstance(out, dict) or "config" not in out:
        raise OutputError("output lacks the embedded run configuration")
    return out


def _number(out: dict, key: str) -> float:
    value = out.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise OutputError(f"{key!r} is not a finite number: {value!r}")
    return float(value)


def check_compare_reps(replicates: int):
    def check(rc, text):
        out = _json(rc, text)
        sup = _number(out, "sup_cdf_difference")
        if not 0.0 <= sup <= 1.0 or out.get("equivalent") is not (rc == 0):
            raise OutputError("sup distance or equivalence flag inconsistent with exit code")
        return Outcome(
            observations={"compare_reps_equivalent": bool(out["equivalent"])},
            work={"fields": 2 * replicates},
        )

    return check


def check_verify(replicates: int, points: int):
    def check(rc, text):
        out = _json(rc, text)
        table = out.get("marginal_ks")
        if not isinstance(table, list) or len(table) != points:
            raise OutputError("marginal KS table does not cover the grid")
        for row in table:
            _number(row, "ks")
        errors = []
        if rc != 1 or out.get("verdict") != "non-stationary in dimension 2":
            errors.append(f"verify uniform: exit {rc}, verdict {out.get('verdict')!r}; expected exit 1")
        return Outcome(
            tuple(errors),
            {"verify_marginals_pass": bool(out.get("marginals_pass"))},
            {"fields": 2 * replicates},
        )

    return check


def check_defect(expect_violation: bool):
    def check(rc, text):
        out = _json(rc, text)
        worst = _number(out, "max_abs_defect")
        errors = []
        if expect_violation and not (rc == 1 and worst >= EXP_DEFECT_FLOOR):
            errors.append(f"defect: exit {rc}, max_abs_defect {worst!r}; expected exit 1 and >= {EXP_DEFECT_FLOOR}")
        if not expect_violation and not (rc == 0 and worst < 1e-10):
            errors.append(f"defect: exit {rc}, max_abs_defect {worst!r}; expected exit 0 and < 1e-10")
        return Outcome(tuple(errors), work={"configs": int(out["n_evaluated"])})

    return check


def check_fdd(xs, mc_n: int, reference: str | None = None):
    def check(rc, text):
        out = _json(rc, text, allowed=(0,))
        value, se = _number(out, "V"), _number(out, "se")
        # exponent bounds max_j 1/x_j <= V <= sum_j 1/x_j, with MC slack below
        if se < 0 or not (max(1 / x for x in xs) - 6 * se <= value <= sum(1 / x for x in xs)):
            raise OutputError(f"exponent {value!r} +- {se!r} outside its bounds")
        obs = {}
        if reference is not None:
            obs[reference] = (value, se)
        return Outcome(observations=obs, work={"mc_draws": mc_n})

    return check


def check_field(points: int, dim: int):
    def check(rc, text):
        if rc != 0:
            raise OutputError(f"exit code {rc}, expected 0")
        rows = [line for line in text.splitlines() if not line.startswith("#")]
        if len(rows) != points:
            raise OutputError(f"{len(rows)} rows, expected {points}")
        for line in rows:
            cells = line.split(",")
            if len(cells) != dim + 1:
                raise OutputError(f"row {line!r} does not have {dim + 1} columns")
            value = float(cells[-1])
            if not (math.isfinite(value) and value > 0):
                raise OutputError(f"field value {value!r} is not finite and positive")
        return Outcome(work={"fields": 1})

    return check


def reference_value(rc: int, text: str) -> float:
    return _number(_json(rc, text, allowed=(0,)), "V")


# ---------------------------------------------------------------------------
# pooled random verdicts


def binom_sf(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(max(k, 0), n + 1))


def pooled_verdicts(observations: dict, references: dict) -> dict:
    """Pool the random verdicts of all rounds into one test each.

    * ``compare_reps_equivalent``: each call is a 1%-level test, so the
      count of non-equivalent calls is at most Binomial(n, 0.01).
    * ``verify_marginals_pass``: three 1%-level KS tests per call, so the
      count of failing calls is at most Binomial(n, 0.03).
    * Monte Carlo exponents: Stouffer's z of (V - V_closed) / se.

    Returns name -> {statistic, p_value, pass_1pct, level, pass}.
    """
    tests = {}
    for key, p0 in (("compare_reps_equivalent", 0.01), ("verify_marginals_pass", 0.03)):
        flags = observations.get(key)
        if flags:
            misses = sum(not f for f in flags)
            tests[key] = {"statistic": misses, "n": len(flags), "p_value": binom_sf(misses, len(flags), p0)}
    for key, ref in references.items():
        pairs = observations.get(key)
        if pairs:
            z = sum((v - ref) / se for v, se in pairs) / math.sqrt(len(pairs))
            tests[key] = {"statistic": z, "n": len(pairs), "p_value": math.erfc(abs(z) / math.sqrt(2))}
    level = FAMILY_LEVEL / (RUNS_PER_COMPARISON * max(len(tests), 1))
    for test in tests.values():
        test["pass_1pct"] = test["p_value"] >= 0.01
        test["level"] = level
        test["pass"] = test["p_value"] >= level
    return tests


# ---------------------------------------------------------------------------
# workloads


def ks_two_sample_1pct(replicates: int) -> float:
    """Asymptotic two-sample KS critical value at 1% for equal sizes."""
    return 1.628 * math.sqrt(2.0 / replicates)


def ensemble(replicates: int = 100, budget: int = 100, n_points: int | None = None) -> Workload:
    extra = () if n_points is None else ("--n-points", str(n_points))
    threshold = f"{ks_two_sample_1pct(replicates):.4f}"
    return Workload(
        "ensemble",
        (
            Call(
                "compare-reps",
                ("compare-reps", "--sigma", "1", "--grid", "0,1", "--replicates", str(replicates),
                 "--threshold", threshold, *extra),
                check_compare_reps(replicates),
                "fields",
            ),
            Call(
                "verify",
                ("verify", "--dist", "uniform:a=0;b=1", "--replicates", str(replicates),
                 "--budget", str(budget), *extra),
                check_verify(replicates, 3),
                "fields",
            ),
        ),
        throughput="fields",
    )


def wide_grid(count: int = 1001, br_count: int = 501, side: int = 40, n_points: int | None = None) -> Workload:
    extra = () if n_points is None else ("--n-points", str(n_points))
    line = f"-5:{10 / (count - 1):g}:{count}"
    br_line = f"-5:{10 / (br_count - 1):g}:{br_count}"
    square = f"0:0.1:{side}x0:0.1:{side}"
    return Workload(
        "wide-grid",
        (
            Call("simulate-smith", ("simulate", "--construction", "smith", "--sigma", "1", "--grid", line, *extra),
                 check_field(count, 1), "fields"),
            Call("simulate-br", ("simulate", "--construction", "br", "--variogram", "fractional:scale=1;alpha=1",
                                 "--grid", br_line, *extra), check_field(br_count, 1), "fields"),
            Call("simulate-smith-2d", ("simulate", "--construction", "smith", "--sigma", "1,0,0,1",
                                       "--grid", square, *extra), check_field(side * side, 2), "fields"),
            Call("simulate-mmm", ("simulate", "--construction", "mmm", "--sigma", "1", "--grid", line),
                 check_field(count, 1), "fields"),
        ),
        throughput="fields",
    )


def criterion(budget: int = 1000, mc_n: int = 1_000_000) -> Workload:
    gauss = ("--dist", "gaussian:mu=0;sigma=4", "--ts", "0;1", "--xs", "1,1")
    return Workload(
        "criterion",
        (
            Call("defect-gaussian", ("defect", "--dist", "gaussian:mu=0;sigma=1", "--n", "2",
                                     "--budget", str(budget)), check_defect(False), "configs"),
            Call("defect-exp", ("defect", "--dist", "exp:lambda=1", "--n", "2", "--budget", str(budget),
                                "--box", "0,0.6"), check_defect(True), "configs"),
            Call("fdd-gaussian", ("fdd", *gauss, "--method", "mc", "--mc-n", str(mc_n)),
                 check_fdd((1.0, 1.0), mc_n, reference="fdd_gaussian_vs_closed"), "mc_draws"),
            Call("fdd-gamma", ("fdd", "--dist", "gamma:k=2;theta=1", "--ts", "0;0.3;0.6", "--xs", "1,1,1",
                               "--method", "mc", "--mc-n", str(mc_n)), check_fdd((1.0, 1.0, 1.0), mc_n), "mc_draws"),
        ),
        throughput="configs",
        references=(("fdd_gaussian_vs_closed", ("fdd", *gauss, "--method", "closed-bivariate")),),
    )


WORKLOADS = {w.name: w for w in (ensemble(), wide_grid(), criterion())}

# the same shapes at sizes small enough for a smoke test
TINY = {
    w.name: w
    for w in (
        ensemble(replicates=100, budget=1, n_points=200),
        wide_grid(count=41, br_count=21, side=5, n_points=200),
        criterion(budget=1, mc_n=2000),
    )
}
