"""Command-line front end.

Subcommands: ``simulate`` (field CSV), ``defect`` (criterion search
JSON), ``verify`` (characterization experiment JSON), ``fdd`` (exponent /
probability JSON lines), ``compare-reps`` (Smith vs moving-maxima
equivalence report).

Exit codes are a stable scripting contract: 0 success / consistent,
1 violation verdict, 2 usage or config parse error, 3 domain or numeric
error.  All randomness flows from one seed (flag, else MAXSTABLE_SEED,
else the fixed constant 0xC0FFEE -- never wall clock), and every output
file embeds the run configuration that produced it.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import fdd as fddmod
from . import stationarity
from .seeding import DEFAULT_SEED, derive_rng, run_replicates
from .simulator import (
    DEFAULT_N_POINTS,
    Grid,
    Variogram,
    _f17,
    _smith_law,
    field_csv_rows,
    field_csv_text,
    simulate_brown_resnick,
    simulate_general,
    simulate_moving_maxima,
    simulate_smith,
)
from .spectral import (
    DomainError,
    ShapeFunction,
    SpecParseError,
    parse_distribution,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


N_POINTS_HELP = "most spectral draws at one grid location; a field that needs more exits 3"


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# value parsing


def parse_grid(spec: str) -> np.ndarray:
    """Grid spec: ``start:step:count`` per axis (axes joined by 'x'), an
    explicit scalar list ``0,1,2.5`` (dimension 1), or points separated by
    ';' with comma-separated coordinates (higher dimensions)."""
    spec = spec.strip()
    try:
        if ":" in spec:
            axes = []
            for part in spec.split("x"):
                start, step, count = part.split(":")
                axes.append(float(start) + float(step) * np.arange(int(count)))
            mesh = np.meshgrid(*axes, indexing="ij")
            return np.column_stack([m.ravel() for m in mesh])
        if ";" in spec:
            points = [
                [float(x) for x in pt.split(",")] for pt in spec.split(";") if pt.strip()
            ]
            return np.array(points, dtype=float)
        return np.array([[float(x)] for x in spec.split(",")])
    except (ValueError, IndexError) as exc:
        raise UsageError(f"bad grid spec {spec!r}: {exc}") from exc


def parse_floats(spec: str, what: str) -> np.ndarray:
    """Comma-separated numbers; a token that is not a number is a usage error."""
    try:
        return np.array([float(x) for x in spec.split(",")])
    except ValueError as exc:
        raise UsageError(f"bad {what} {spec!r}: {exc}") from exc


def parse_matrix(spec: str):
    vals = parse_floats(spec, "matrix spec")
    d = int(round(np.sqrt(vals.size)))
    if d * d != vals.size:
        raise UsageError(f"matrix spec {spec!r} must have a square number of entries")
    return vals.reshape(d, d)


def parse_box(spec: str) -> np.ndarray:
    """Box spec ``lo,hi`` per axis, axes joined by ';'."""
    try:
        rows = [[float(x) for x in part.split(",")] for part in spec.split(";")]
        box = np.array(rows, dtype=float)
        if box.shape[1] != 2:
            raise ValueError("each axis needs exactly lo,hi")
        return box
    except ValueError as exc:
        raise UsageError(f"bad box spec {spec!r}: {exc}") from exc


def parse_variogram(spec: str) -> Variogram:
    kind, _, body = spec.partition(":")
    try:
        params = dict(part.split("=", 1) for part in body.split(";") if part)
        if kind == "fractional":
            return Variogram.fractional(
                float(params.get("scale", 1.0)), float(params["alpha"])
            )
        if kind == "quadratic":
            return Variogram.quadratic(parse_matrix(params["sigma"]))
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad variogram spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown variogram kind {kind!r}")


def parse_kappa(spec: str, dist) -> ShapeFunction:
    if spec == "cgf":
        if dist is None:
            raise UsageError("--kappa cgf requires --dist")
        return ShapeFunction.from_cgf(dist)
    kind, _, body = spec.partition(":")
    if kind != "quadratic":
        raise UsageError(f"unknown kappa spec {spec!r} (use 'cgf' or 'quadratic:...')")
    try:
        params = dict(part.split("=", 1) for part in body.split(";") if part)
        mu = parse_floats(params["mu"], "kappa mu")
        sigma = parse_matrix(params["sigma"])
        c0 = float(params.get("c0", 0.0))
        return ShapeFunction.quadratic(mu, sigma, c0)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad kappa spec {spec!r}: {exc}") from exc


def parse_dist(spec: str):
    try:
        return parse_distribution(spec)
    except SpecParseError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# output helpers


def dump_json(obj) -> str:
    """JSON with every number printed at 17 significant digits; a number
    that is not finite has no JSON form and raises ValueError."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {dump_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dump_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError(f"non-finite number {float(obj)!r} in the output")
        return _f17(obj)
    return json.dumps(obj)


def write_output(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def run_config_dict(args, keys) -> dict:
    cfg = {"subcommand": args.command, "seed": args.seed}
    for key in keys:
        cfg[key] = getattr(args, key.replace("-", "_"))
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def _window_core(spec, grid: Grid) -> np.ndarray:
    """Moving-maxima core window: the --window box, else the grid's bounding
    box, padded by 0.5 along axes where the grid has no extent."""
    if spec:
        return parse_box(spec)
    lo, hi = grid.locations.min(axis=0), grid.locations.max(axis=0)
    pad = np.where(hi - lo > 0, 0.0, 0.5)
    return np.column_stack([lo - pad, hi + pad])


def cmd_simulate(args) -> int:
    grid = Grid(parse_grid(args.grid))
    rng = derive_rng(args.seed)
    if args.construction == "smith":
        if args.sigma is None:
            raise UsageError("smith construction requires --sigma")
        field = simulate_smith(
            parse_matrix(args.sigma), grid, args.n_points, rng, seed_record=args.seed
        )
    elif args.construction == "br":
        if args.variogram is None:
            raise UsageError("brown-resnick construction requires --variogram")
        field = simulate_brown_resnick(
            parse_variogram(args.variogram), grid, args.n_points, rng, seed_record=args.seed
        )
    elif args.construction == "mmm":
        if args.sigma is None:
            raise UsageError("moving-maxima construction requires --sigma")
        field = simulate_moving_maxima(
            parse_matrix(args.sigma), grid, _window_core(args.window, grid), rng,
            seed_record=args.seed,
        )
    elif args.construction == "general":
        if args.dist is None:
            raise UsageError("general construction requires --dist")
        dist = parse_dist(args.dist)
        kappa = parse_kappa(args.kappa, dist)
        field = simulate_general(
            dist, kappa, grid, args.n_points, rng, seed_record=args.seed
        )
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown construction {args.construction!r}")

    cfg = run_config_dict(
        args, ["construction", "sigma", "variogram", "dist", "kappa", "grid", "n_points"]
    )
    header = {k: v for k, v in cfg.items() if v is not None}
    write_output(field_csv_text(field, extra_header=header), args.output)
    if args.plot_data:
        write_output("\n".join(field_csv_rows(field)), args.plot_data)
    return EXIT_OK


def _default_box(dist) -> np.ndarray:
    upper = dist.domain_upper()
    rows = []
    for j in range(dist.dim):
        if np.isinf(upper[j]):
            rows.append([-1.0, 1.0])
        else:
            rows.append([0.0, 0.6 * upper[j]])
    return np.array(rows)


def cmd_defect(args) -> int:
    dist = parse_dist(args.dist)
    box = parse_box(args.box) if args.box else _default_box(dist)
    rng = derive_rng(args.seed)
    report = stationarity.search_violation(
        dist, args.n, args.budget, box, rng, tol_defect=args.tol
    )
    out = report.to_dict()
    out["config"] = run_config_dict(args, ["dist", "n", "budget", "box", "tol"])
    write_output(dump_json(out), args.output)
    return EXIT_VIOLATED if report.verdict == "violated" else EXIT_OK


def _default_verify_grid(dist) -> Grid:
    upper = dist.domain_upper()
    scales = np.where(np.isinf(upper), 1.0, upper)
    fractions = [0.0, 0.3, 0.6] if np.any(np.isfinite(upper)) else [0.0, 0.5, 1.0]
    pts = np.array([f * scales for f in fractions])
    return Grid(pts)


def cmd_verify(args) -> int:
    dist = parse_dist(args.dist)
    grid = Grid(parse_grid(args.grid)) if args.grid else _default_verify_grid(dist)
    rng = derive_rng(args.seed)
    report = stationarity.verify_characterization(
        dist,
        grid,
        args.replicates,
        rng,
        n_points=args.n_points,
        budget=args.budget,
    )
    out = report.to_dict()
    out["config"] = run_config_dict(args, ["dist", "grid", "replicates", "n_points", "budget"])
    write_output(dump_json(out), args.output)
    return EXIT_OK if report.verdict == "Gaussian-consistent" else EXIT_VIOLATED


def cmd_fdd(args) -> int:
    dist = parse_dist(args.dist)
    kappa = parse_kappa(args.kappa, dist)
    ts = parse_grid(args.ts)
    xs = parse_floats(args.xs, "threshold list")
    query = fddmod.FddQuery(ts, xs)
    rng = derive_rng(args.seed)
    ev = fddmod.fdd_exponent(dist, kappa, query, args.method, rng, args.mc_n)
    line = {
        "ts": query.ts.tolist(),
        "xs": query.xs.tolist(),
        "method": ev.method,
        "V": ev.value,
        "se": ev.se,
        "cdf": float(np.exp(-ev.value)),
        "config": run_config_dict(args, ["dist", "kappa", "ts", "xs", "method", "mc_n"]),
    }
    write_output(dump_json(line), args.output)
    return EXIT_OK


def cmd_compare_reps(args) -> int:
    if not np.isfinite(args.threshold):
        raise ValueError("compare-reps threshold must be finite")
    sigma = parse_matrix(args.sigma)
    grid = Grid(parse_grid(args.grid))
    if grid.size < 2:
        raise UsageError("compare-reps needs at least two grid points")
    core = _window_core(args.window, grid)

    smith_dist, smith_kappa = _smith_law(sigma)

    def smith_job(rep, rng):
        return simulate_general(
            smith_dist, smith_kappa, grid, args.n_points, rng, construction="smith"
        ).values[:2]

    def mmm_job(rep, rng):
        return simulate_moving_maxima(sigma, grid, core, rng).values[:2]

    smith_pairs = np.array(run_replicates(smith_job, args.replicates, args.seed))
    mmm_pairs = np.array(run_replicates(mmm_job, args.replicates, args.seed + 1))
    thresholds = fddmod.frechet_threshold_grid()
    sup = fddmod.bivariate_ecdf_distance(smith_pairs, mmm_pairs, thresholds)
    out = {
        "sup_cdf_difference": sup,
        "threshold": args.threshold,
        "equivalent": bool(sup < args.threshold),
        "config": run_config_dict(
            args, ["sigma", "grid", "replicates", "n_points", "threshold"]
        ),
    }
    write_output(dump_json(out), args.output)
    return EXIT_OK if sup < args.threshold else EXIT_VIOLATED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxstable",
        description="Simulate de Haan-type max-stable fields and verify the "
        "Gaussian stationarity characterization.",
    )
    # let values like "-5:0.01:1001" or "-1,1" pass as flag arguments
    numberish = re.compile(r"^-\d[\d.,:;x+-]*$")
    parser._negative_number_matcher = numberish
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed (default: MAXSTABLE_SEED or 0xC0FFEE)")
        p.add_argument("--output", default=None, help="output file (default stdout)")
        p.add_argument("--config", default=None, help="flat 'key = value' config file mirroring flags")

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p._negative_number_matcher = numberish
        return p

    p = add_parser("simulate", help="simulate one field realization to CSV")
    p.add_argument("--construction", choices=["smith", "br", "mmm", "general"])
    p.add_argument("--sigma", default=None, help="row-major covariance entries")
    p.add_argument("--variogram", default=None, help="fractional:scale=..;alpha=.. or quadratic:sigma=..")
    p.add_argument("--dist", default=None, help="spectral law spec string")
    p.add_argument("--kappa", default="cgf", help="'cgf' or quadratic:mu=..;sigma=..;c0=..")
    p.add_argument("--grid", help="start:step:count per axis, or explicit points")
    p.add_argument("--n-points", type=int, default=DEFAULT_N_POINTS, help=N_POINTS_HELP)
    p.add_argument("--window", default=None, help="moving-maxima core window, lo,hi per axis")
    p.add_argument("--plot-data", default=None, help="also write bare (t, value) pairs here")
    common(p)
    p.set_defaults(func=cmd_simulate, needs=("construction", "grid"))

    p = add_parser("defect", help="search for stationarity-criterion violations")
    p.add_argument("--dist")
    p.add_argument("--n", type=int, default=2, help="tuple size of the criterion")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--box", default=None, help="search box, lo,hi per axis")
    p.add_argument("--tol", type=float, default=stationarity.TOL_DEFECT)
    common(p)
    p.set_defaults(func=cmd_defect, needs=("dist",))

    p = add_parser("verify", help="full characterization experiment")
    p.add_argument("--dist")
    p.add_argument("--grid", default=None)
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--n-points", type=int, default=DEFAULT_N_POINTS, help=N_POINTS_HELP)
    p.add_argument("--budget", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_verify, needs=("dist",))

    p = add_parser("fdd", help="finite-dimensional distribution queries")
    p.add_argument("--dist")
    p.add_argument("--kappa", default="cgf")
    p.add_argument("--ts", help="query points, ';'-separated")
    p.add_argument("--xs", help="thresholds, comma-separated")
    p.add_argument("--method", choices=["mc", "closed-marginal", "closed-bivariate"], default="mc")
    p.add_argument("--mc-n", type=int, default=100_000)
    common(p)
    p.set_defaults(func=cmd_fdd, needs=("dist", "ts", "xs"))

    p = add_parser("compare-reps", help="Smith vs moving-maxima equivalence")
    p.add_argument("--sigma")
    p.add_argument("--grid")
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--n-points", type=int, default=DEFAULT_N_POINTS, help=N_POINTS_HELP)
    p.add_argument("--window", default=None, help="moving-maxima core window, lo,hi per axis")
    p.add_argument("--threshold", type=float, default=0.02)
    common(p)
    p.set_defaults(func=cmd_compare_reps, needs=("sigma", "grid"))

    return parser


def load_config_file(path: str) -> dict:
    """Flat ``key = value`` file; keys mirror long flag names."""
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return out


def resolve_seed(seed) -> int:
    if seed is not None:
        return int(seed)
    env = os.environ.get("MAXSTABLE_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError as exc:
            raise UsageError(f"bad MAXSTABLE_SEED value {env!r}") from exc
    return DEFAULT_SEED


def _subparser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    return next(a for a in parser._actions if a.dest == "command").choices[command]


def check_needed_flags(parser: argparse.ArgumentParser, args) -> None:
    """Each flag in the subcommand's ``needs`` must have come from the
    command line or the config file; argparse's own error (exit 2) if not."""
    missing = ["--" + dest.replace("_", "-") for dest in args.needs if getattr(args, dest) is None]
    if missing:
        _subparser(parser, args.command).error(
            "the following arguments are required: " + ", ".join(missing)
        )


def apply_config_file(parser: argparse.ArgumentParser, args) -> None:
    """Make the ``--config`` file's values the defaults of the subcommand's
    flags, so that a flag on the command line still wins.  A key must name
    a long flag of the subcommand, and its value passes that flag's own
    ``type`` and ``choices``, as on the command line."""
    sub = _subparser(parser, args.command)
    for key, raw in load_config_file(args.config).items():
        action = sub._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None or action.dest in ("help", "config"):
            raise UsageError(f"config file {args.config}: {key!r} is not a flag of {args.command}")
        try:
            value = raw if action.type is None else action.type(raw)
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{value!r} is not one of {', '.join(action.choices)}")
        except ValueError as exc:
            raise UsageError(f"config file {args.config}: bad {key}: {exc}") from exc
        sub.set_defaults(**{action.dest: value})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            apply_config_file(parser, args)
            args = parser.parse_args(argv)
        check_needed_flags(parser, args)
        args.seed = resolve_seed(args.seed)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
