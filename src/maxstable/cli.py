"""Command-line front end.

Subcommands: ``simulate`` (field CSV), ``defect`` (criterion search
JSON), ``verify`` (characterization experiment JSON), ``fdd`` (exponent /
probability JSON lines), ``compare-reps`` (Smith vs moving-maxima
equivalence report).

Exit codes are a stable scripting contract: 0 success / consistent,
1 violation verdict, 2 usage or config parse error, 3 domain, numeric
or out-of-memory error; a spec string (--dist, --kappa, --variogram,
--sigma) that breaks the grammar of ``spectral.parse_spec`` is a usage
error.  All randomness flows from one seed (flag, else MAXSTABLE_SEED,
else the fixed constant 0xC0FFEE -- never wall clock), and every output
file embeds the run configuration that produced it.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import fdd as fddmod
from . import stationarity
from .seeding import DEFAULT_SEED, derive_rng
from .simulator import (
    DEFAULT_N_POINTS,
    Field,
    Grid,
    field_csv_text,
    parse_variogram,
    prepare_brown_resnick,
    prepare_general,
    prepare_moving_maxima,
    prepare_smith,
)
from .spectral import (
    DomainError,
    SpecParseError,
    parse_distribution,
    parse_kappa,
    parse_matrix,
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
                if int(count) < 1:
                    raise ValueError(f"axis {part!r} has count {int(count)}, below 1")
                with np.errstate(over="ignore", invalid="ignore"):  # Grid rejects what is not finite
                    axes.append(float(start) + float(step) * np.arange(int(count)))
            mesh = np.meshgrid(*axes, indexing="ij")
            return np.column_stack([m.ravel() for m in mesh])
        if ";" in spec:
            points = [
                [float(x) for x in pt.split(",")] for pt in spec.split(";") if pt.strip()
            ]
            if not points:
                raise ValueError("the list holds no point")
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


def check_space(flag, spec, dim, law, law_dim):
    """Points in R^dim, given as ``flag spec``, for a law in R^law_dim
    named ``law``: points in another space than the law's are a usage
    error, as a kappa is (``parse_kappa``)."""
    if dim != law_dim:
        raise UsageError(f"{flag} {spec!r} is in R^{dim}, but {law} is in R^{law_dim}")


def check_dist_space(flag, spec, dim, dist):
    check_space(flag, spec, dim, f"the law {dist.spec_string()!r}", dist.dim)


# ---------------------------------------------------------------------------
# output helpers


def dump_json(obj) -> str:
    """JSON with every number printed at 17 significant digits; a number
    that is not finite has no JSON form and raises ValueError."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{encode_basestring_ascii(str(k))}: {dump_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dump_json(v) for v in obj) + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)  # json.dumps' own string encoder
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite number {float(obj)!r} in the output")
        return format(float(obj), ".17g")
    return json.dumps(obj)


def write_output(text: str, path):
    """text, ended by a newline, to the file at path, else to stdout; a file
    that cannot be written is a usage error."""
    text = text if text.endswith("\n") else text + "\n"
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {exc}") from exc


def run_config_dict(parser: argparse.ArgumentParser, args) -> dict:
    """The run configuration an output embeds: the subcommand, the seed, and
    every long flag of the subcommand's parser but help, seed, output and
    config, in parser order."""
    cfg = {"subcommand": args.command, "seed": args.seed}
    for action in _subparser(parser, args.command)._actions:
        if action.dest not in ("help", "seed", "output", "config"):
            cfg[action.dest] = getattr(args, action.dest)
    return cfg


# ---------------------------------------------------------------------------
# subcommands: each returns its result (a JSON dict, or simulate's Field) and
# its exit code, and ``main`` writes the result with the run configuration


def _sigma(grid, args):
    """--sigma's matrix, in the grid's space."""
    sigma = parse_matrix(args.sigma)
    check_space("--grid", args.grid, grid.dim, f"--sigma {args.sigma!r}", len(sigma))
    return sigma


def _prepare_general(grid, args):
    dist = parse_distribution(args.dist)
    check_dist_space("--grid", args.grid, grid.dim, dist)
    return prepare_general(dist, parse_kappa(args.kappa, dist), grid, args.n_points)


def _prepare_brown_resnick(grid, args):
    variogram = parse_variogram(args.variogram)
    if variogram.kind == "quadratic":  # a fractional variogram is one in every dimension
        check_space("--grid", args.grid, grid.dim, f"--variogram {args.variogram!r}", len(variogram.sigma))
    return prepare_brown_resnick(variogram, grid, args.n_points)


# construction -> the flags it reads, and its law on a grid from their values.
# SIMULATE_FLAGS: each flag's default (None: required); one not read exits 2.
CONSTRUCTIONS = {
    "smith": (("sigma", "n_points"), lambda grid, a: prepare_smith(_sigma(grid, a), grid, a.n_points)),
    "br": (("variogram", "n_points"), _prepare_brown_resnick),
    "mmm": (("sigma",), lambda grid, a: prepare_moving_maxima(_sigma(grid, a), grid)),
    "general": (("dist", "kappa", "n_points"), _prepare_general),
}
SIMULATE_FLAGS = {"sigma": None, "variogram": None, "dist": None, "kappa": "cgf",
                  "n_points": DEFAULT_N_POINTS}


def cmd_simulate(args):
    reads, prepare = CONSTRUCTIONS[args.construction]
    for flag, default in SIMULATE_FLAGS.items():
        option = "--" + flag.replace("_", "-")
        if getattr(args, flag) is not None and flag not in reads:
            raise UsageError(f"--construction {args.construction} does not read {option}")
        if getattr(args, flag) is None and flag in reads:
            if default is None:
                raise UsageError(f"--construction {args.construction} requires {option}")
            setattr(args, flag, default)
    grid = Grid(parse_grid(args.grid))
    return prepare(grid, args).simulate(derive_rng(args.seed), seed_record=args.seed), EXIT_OK


def _default_box(dist) -> np.ndarray:
    """[-1, 1] on an axis where the CGF domain is unbounded, else [0, 0.6 upper]."""
    return np.array([[-1.0, 1.0] if np.isinf(u) else [0.0, 0.6 * u] for u in dist.domain_upper()])


def cmd_defect(args):
    dist = parse_distribution(args.dist)
    box = parse_box(args.box) if args.box is not None else _default_box(dist)
    check_dist_space("--box", args.box, len(box), dist)  # a row per axis
    rng = derive_rng(args.seed)
    report = stationarity.search_violation(dist, args.n, args.budget, box, rng)
    return report.to_dict(), EXIT_VIOLATED if report.verdict == "violated" else EXIT_OK


def _default_verify_grid(dist) -> Grid:
    upper = dist.domain_upper()
    scales = np.where(np.isinf(upper), 1.0, upper)
    fractions = [0.0, 0.3, 0.6] if np.any(np.isfinite(upper)) else [0.0, 0.5, 1.0]
    pts = np.array([f * scales for f in fractions])
    return Grid(pts)


def cmd_verify(args):
    dist = parse_distribution(args.dist)
    grid = Grid(parse_grid(args.grid)) if args.grid is not None else _default_verify_grid(dist)
    check_dist_space("--grid", args.grid, grid.dim, dist)
    if grid.size < 2:
        raise UsageError("verify needs at least two grid points")
    report = stationarity.verify_characterization(
        dist,
        grid,
        args.replicates,
        args.seed,
        n_points=args.n_points,
        budget=args.budget,
    )
    return report.to_dict(), EXIT_OK if report.verdict == "Gaussian-consistent" else EXIT_VIOLATED


def cmd_fdd(args):
    dist = parse_distribution(args.dist)
    kappa = parse_kappa(args.kappa, dist)
    ts = parse_grid(args.ts)
    xs = parse_floats(args.xs, "threshold list")
    query = fddmod.FddQuery(ts, xs)
    check_dist_space("--ts", args.ts, query.ts.shape[1], dist)
    if args.method == "mc":
        ev = fddmod.exponent_mc(dist, kappa, query, args.mc_n, derive_rng(args.seed))
    elif query.n != 2:
        raise UsageError("--method closed-bivariate needs exactly two query points")
    else:
        ev = fddmod.closed_bivariate(dist, kappa, query)
    line = {"ts": query.ts.tolist(), "xs": query.xs.tolist(), "method": ev.method, "V": ev.value,
            "se": ev.se, "cdf": float(np.exp(-ev.value))}
    return line, EXIT_OK


def cmd_compare_reps(args):
    # the verdict is sup < threshold with sup >= 0: a threshold <= 0 could never pass
    if not 0.0 < args.threshold < np.inf:
        raise ValueError(f"compare-reps threshold must be finite and positive, got {args.threshold!r}")
    grid = Grid(parse_grid(args.grid))
    sigma = _sigma(grid, args)
    if grid.size < 2:
        raise UsageError("compare-reps needs at least two grid points")
    if args.replicates < fddmod.MIN_SAMPLES:
        raise ValueError(f"replicates must be >= {fddmod.MIN_SAMPLES}, the fewest an empirical CDF takes")

    # the first two grid points are compared, so only they are simulated
    pair = Grid(grid.locations[:2])
    smith = prepare_smith(sigma, pair, args.n_points)
    mmm = prepare_moving_maxima(sigma, pair)
    smith_pairs = smith.simulate_many(args.seed, range(args.replicates))[0]
    # the next seed, wrapping past the last 64-bit word: a seed is one word
    mmm_pairs = mmm.simulate_many((args.seed + 1) % 2**64, range(args.replicates))[0]
    thresholds = fddmod.frechet_threshold_grid()
    sup = fddmod.bivariate_ecdf_distance(smith_pairs, mmm_pairs, thresholds)
    out = {"sup_cdf_difference": sup, "threshold": args.threshold, "equivalent": bool(sup < args.threshold)}
    return out, EXIT_OK if sup < args.threshold else EXIT_VIOLATED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxstable",
        description="Simulate de Haan-type max-stable fields and verify the "
        "Gaussian stationarity characterization.",
    )
    # let values like "-5:0.01:1001", "-1,1", "-.5,0.5" or "-1e-3,0.5" pass
    # as flag arguments
    numberish = re.compile(r"^-\.?\d[\deE.,:;x+-]*$")
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
    p.add_argument("--kappa", default=None, help="'cgf' (the default) or quadratic:mu=..;sigma=..;c0=..")
    p.add_argument("--grid", help="start:step:count per axis, or explicit points")
    p.add_argument("--n-points", type=int, default=None, help=N_POINTS_HELP)
    common(p)
    p.set_defaults(func=cmd_simulate, needs=("construction", "grid"))

    p = add_parser("defect", help="search for stationarity-criterion violations")
    p.add_argument("--dist")
    p.add_argument("--n", type=int, default=2, help="tuple size of the criterion, at least 2")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--box", default=None, help="search box, lo,hi per axis")
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
    p.add_argument("--method", choices=["mc", "closed-bivariate"], default="mc")
    p.add_argument("--mc-n", type=int, default=100_000)
    common(p)
    p.set_defaults(func=cmd_fdd, needs=("dist", "ts", "xs"))

    p = add_parser("compare-reps", help="Smith vs moving-maxima equivalence")
    p.add_argument("--sigma")
    p.add_argument("--grid")
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--n-points", type=int, default=DEFAULT_N_POINTS, help=N_POINTS_HELP)
    p.add_argument("--threshold", type=float, default=0.02)
    common(p)
    p.set_defaults(func=cmd_compare_reps, needs=("sigma", "grid"))

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every call without ``--config`` parses with, built once
    per process; ``apply_config_file`` changes the defaults of the parser
    it is given, so a ``--config`` call builds a parser of its own."""
    return build_parser()


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
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return out


def resolve_seed(seed) -> int:
    """The flag's seed, else MAXSTABLE_SEED's, else DEFAULT_SEED.  A seed is
    one 64-bit word: outside [0, 2^64) two seeds would make one stream."""
    source = "--seed"
    if seed is None:
        env = os.environ.get("MAXSTABLE_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            seed = int(env, 0)
        except ValueError as exc:
            raise UsageError(f"bad MAXSTABLE_SEED value {env!r}") from exc
        source = "MAXSTABLE_SEED"
    if not 0 <= seed < 2**64:
        raise UsageError(f"{source} {seed} is outside [0, 2^64)")
    return int(seed)


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


def check_flag_values(args) -> None:
    """argparse reads ``--flag=--`` as an empty list, not as a missing value."""
    for dest, value in vars(args).items():
        if isinstance(value, list):
            raise UsageError(f"--{dest.replace('_', '-')} needs a value")


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
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            parser = build_parser()
            apply_config_file(parser, args)
            args = parser.parse_args(argv)
        check_flag_values(args)
        check_needed_flags(parser, args)
        args.seed = resolve_seed(args.seed)
        result, code = args.func(args)
        config = run_config_dict(parser, args)
        if isinstance(result, Field):
            # simulate set every flag its construction reads, and left the others None
            text = field_csv_text(result, extra_header={k: v for k, v in config.items() if v is not None})
        else:
            text = dump_json({**result, "config": config})
        write_output(text, args.output)
        return code
    except (UsageError, SpecParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"memory error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
