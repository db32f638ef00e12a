import json
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import moving_maxima_block_reference, seed_rejecting_once_at_location_1

import maxstable
import maxstable.cli
from maxstable.cli import (
    UsageError,
    dump_json,
    main,
    parse_box,
    parse_grid,
    resolve_seed,
)
from maxstable.fdd import MIN_SAMPLES, bivariate_ecdf_distance, frechet_threshold_grid, husler_reiss_V
from maxstable.seeding import DEFAULT_SEED
from maxstable.simulator import (
    Grid,
    PreparedLaw,
    parse_variogram,
    prepare_moving_maxima,
    prepare_smith,
)
from maxstable.spectral import (
    Gaussian,
    ShapeFunction,
    SpecParseError,
    parse_distribution,
    parse_kappa,
    parse_matrix,
)


# ---------------------------------------------------------------------------
# value parsers


def test_parse_grid_range_syntax():
    grid = parse_grid("-5:0.5:21")
    assert grid.shape == (21, 1)
    assert grid[0, 0] == -5.0 and grid[-1, 0] == 5.0


def test_parse_grid_two_axes():
    grid = parse_grid("0:1:3x0:1:2")
    assert grid.shape == (6, 2)
    assert grid[-1].tolist() == [2.0, 1.0]


def test_parse_grid_point_lists():
    assert parse_grid("0,1,2.5").shape == (3, 1)
    pts = parse_grid("0,0;1,1;2,0")
    assert pts.shape == (3, 2)
    with pytest.raises(UsageError):
        parse_grid("0:1")
    with pytest.raises(UsageError):
        parse_grid("a,b")


@pytest.mark.parametrize("spec", ["0:1:0", "0:1:-2", "0:1:3x0:1:0", "0:1:2.5"])
def test_parse_grid_rejects_an_axis_count_below_one(spec):
    with pytest.raises(UsageError):
        parse_grid(spec)


def test_parse_matrix_and_box():
    assert parse_matrix("1,0.5,0.5,1").shape == (2, 2)
    with pytest.raises(SpecParseError):
        parse_matrix("1,2,3")
    box = parse_box("0,1;-1,1")
    assert box.shape == (2, 2)
    with pytest.raises(UsageError):
        parse_box("0,1,2")


def test_parse_variogram():
    v = parse_variogram("fractional:scale=2;alpha=1.5")
    assert v.kind == "fractional" and v.alpha == 1.5
    assert parse_variogram("quadratic:sigma=1").kind == "quadratic"
    with pytest.raises(SpecParseError):
        parse_variogram("spherical:range=1")
    with pytest.raises(SpecParseError):
        parse_variogram("fractional:scale=2")


SPEC_PARSERS = {
    "sigma": parse_matrix,
    "variogram": parse_variogram,
    "grid": parse_grid,
    "ts": parse_grid,
    "box": parse_box,
}


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_lines():
    """The ``maxstable`` commands of the README's CLI example block."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("maxstable ")]
    assert lines
    return lines


def test_readme_cli_examples_parse():
    # every documented command passes the argument parser and every spec
    # flag its parser, without running the command
    readme = README.read_text()
    lines = readme_cli_lines()
    parser = maxstable.cli.build_parser()
    # every --flag the README names, in prose or in a maxstable command (not
    # in the commands of other programs), is a long flag of some subcommand
    chunks = readme.split("```")
    text = "\n".join(chunks[::2] + [line for code in chunks[1::2] for line in code.splitlines()
                                    if line.startswith("maxstable ")])
    subparsers = next(a for a in parser._actions if a.dest == "command").choices.values()
    flags = {option for sub in subparsers for option in sub._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))
    assert named and named <= flags, sorted(named - flags)
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        dist = parse_distribution(args.dist) if getattr(args, "dist", None) else None
        if dist is not None and hasattr(args, "kappa"):
            parse_kappa(args.kappa, dist)
        for key, parse in SPEC_PARSERS.items():
            if getattr(args, key, None) is not None:
                parse(getattr(args, key))
    # each backticked spec in the --dist, --kappa and --variogram bullets
    # parses with its flag's reader
    readers = {
        "--dist": parse_distribution,
        "--kappa": lambda spec: parse_kappa(spec, parse_distribution("gaussian:mu=0;sigma=1")),
        "--variogram": parse_variogram,
    }
    bullets = dict(re.findall(r"^- `(--[a-z]+)`:(.*\n(?:  .*\n)*)", readme, re.M))
    assert bullets.keys() == readers.keys()
    for flag, text in bullets.items():
        specs = re.findall(r"`([^`]+)`", text)
        assert specs, flag
        for spec in specs:
            readers[flag](spec)


def test_readme_cli_examples_run(capsys):
    # as the README's comments say: defect exits 0 for the gaussian law and 1
    # for the exponential one, and verify 1 for the uniform law
    for line in readme_cli_lines():
        argv = shlex.split(line)[1:]
        want = 1 if "exp:lambda=1" in line or argv[0] == "verify" else 0
        assert main(argv) == want, line
        out, err = capsys.readouterr()
        assert out and err == "", line


@pytest.mark.parametrize("argv, keys", [
    (["simulate"], ["construction", "sigma", "variogram", "dist", "kappa", "grid", "n_points"]),
    (["defect"], ["dist", "n", "budget", "box"]),
    (["verify"], ["dist", "grid", "replicates", "n_points", "budget"]),
    (["fdd"], ["dist", "kappa", "ts", "xs", "method", "mc_n"]),
    (["compare-reps"], ["sigma", "grid", "replicates", "n_points", "threshold"]),
])
def test_run_config_records_every_flag_of_the_subcommand_in_parser_order(argv, keys):
    parser = maxstable.cli.build_parser()
    args = parser.parse_args([*argv, "--seed", "5", "--output", "x", "--config", "y"])
    config = maxstable.cli.run_config_dict(parser, args)
    assert list(config) == ["subcommand", "seed", *keys]
    assert config["subcommand"] == argv[0] and config["seed"] == 5


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.delenv("MAXSTABLE_SEED", raising=False)
    assert resolve_seed(None) == DEFAULT_SEED
    monkeypatch.setenv("MAXSTABLE_SEED", "0x10")
    assert resolve_seed(None) == 16
    assert resolve_seed(7) == 7
    monkeypatch.setenv("MAXSTABLE_SEED", "not-a-seed")
    with pytest.raises(UsageError):
        resolve_seed(None)
    # derive_rng reads a seed's low 64 bits: seed and seed mod 2^64 would print one field
    for seed in (-1, 2**64):
        with pytest.raises(UsageError, match=re.escape(f"--seed {seed} is outside [0, 2^64)")):
            resolve_seed(seed)
        monkeypatch.setenv("MAXSTABLE_SEED", str(seed))
        with pytest.raises(UsageError, match=re.escape(f"MAXSTABLE_SEED {seed} is outside [0, 2^64)")):
            resolve_seed(None)
    assert resolve_seed(2**64 - 1) == 2**64 - 1


def test_compare_reps_runs_at_the_last_seed(capsys):
    # it seeds its moving-maxima ensemble with seed + 1, here 2^64
    seed = 2**64 - 1
    assert main(["compare-reps", "--sigma", "1", "--grid", "0,1", "--replicates", "100", "--seed", str(seed)]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == seed


# ---------------------------------------------------------------------------
# simulate


def test_simulate_smith_csv(tmp_path):
    out = tmp_path / "field.csv"
    code = main([
        "simulate", "--construction", "smith", "--sigma", "1",
        "--grid", "-1:0.5:5", "--n-points", "2000", "--seed", "7",
        "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "# construction=smith seed=7 n_points=2000"
    header_lines = [ln for ln in lines if ln.startswith("#")]
    assert any("subcommand=simulate" in ln for ln in header_lines)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) == 5
    t, v = (float(x) for x in data[0].split(","))
    assert t == -1.0 and v > 0


def test_simulate_is_reproducible(tmp_path):
    args = [
        "simulate", "--construction", "smith", "--sigma", "1",
        "--grid", "0:0.5:3", "--n-points", "1000", "--seed", "3",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_other_constructions(tmp_path):
    assert main([
        "simulate", "--construction", "br",
        "--variogram", "fractional:scale=1;alpha=1",
        "--grid", "0:0.5:3", "--n-points", "1000",
        "--output", str(tmp_path / "br.csv"),
    ]) == 0
    assert main([
        "simulate", "--construction", "mmm", "--sigma", "1",
        "--grid", "0:0.5:3", "--output", str(tmp_path / "mmm.csv"),
    ]) == 0
    assert main([
        "simulate", "--construction", "general",
        "--dist", "uniform:a=0;b=1", "--kappa", "cgf",
        "--grid", "0:0.5:3", "--n-points", "1000",
        "--output", str(tmp_path / "gen.csv"),
    ]) == 0


@pytest.mark.parametrize("grid", ["0", "0,0;"])
def test_simulate_brown_resnick_on_the_origin_alone(grid, capsys):
    # no location moves: the completion rows have no entries
    assert main([
        "simulate", "--construction", "br", "--variogram", "fractional:alpha=1",
        "--grid", grid, "--seed", "1",
    ]) == 0
    out, err = capsys.readouterr()
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == 1 and float(rows[0].split(",")[-1]) > 0
    assert err == ""


def test_simulate_missing_required_parameter():
    assert main(["simulate", "--construction", "smith", "--grid", "0,1"]) == 2


def test_verify_n_points_error_names_the_point_of_its_own_grid(capsys):
    # verify adds the shifted points t_1 + h and t_2 + h (h = 0.25) to the
    # grid 0, 0.5: location 2 is no point the user gave, so it is named
    args = ["verify", "--dist", "exp:lambda=1", "--grid", "0,0.5", "--replicates", "100", "--budget", "5",
            "--n-points", "5"]
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == "numeric error: grid location 2 needs more than n_points = 5 spectral draws (t = [0.25])\n"


def test_simulate_n_points_bounds_the_draws_at_one_location(capsys):
    # with this seed the second grid location needs two spectral draws
    seed = seed_rejecting_once_at_location_1()
    args = ["simulate", "--construction", "smith", "--sigma", "1", "--grid", "0,1", "--seed", str(seed)]
    assert main(args + ["--n-points", "1"]) == 3
    assert "n_points = 1" in capsys.readouterr().err
    assert main(args + ["--n-points", "2"]) == 0


def test_simulate_numeric_error_exit_code(tmp_path, capsys):
    # singular sigma makes the moving-maxima representation ill-posed
    assert main([
        "simulate", "--construction", "mmm", "--sigma", "0",
        "--grid", "0,1", "--output", str(tmp_path / "x.csv"),
    ]) == 3
    # Sigma is checked before anything is computed from it
    assert main(["simulate", "--construction", "mmm", "--sigma", "-1", "--grid", "0,1"]) == 3
    assert "not positive semidefinite" in capsys.readouterr().err
    # Sigma must have the grid's dimension, as for Smith: the library raises
    # ValueError, and the command line reports a usage error
    for sigma, grid in [("1,0,0,1", "0,1"), ("1", "0,0;1,1")]:
        with pytest.raises(ValueError, match=re.escape("expected points in R^")):
            prepare_moving_maxima(parse_matrix(sigma), Grid(parse_grid(grid)))
        assert main(["simulate", "--construction", "mmm", "--sigma", sigma, "--grid", grid]) == 2
        assert f"error: --grid '{grid}' is in R^" in capsys.readouterr().err


@pytest.mark.parametrize("sigma, grid, axis", [
    ("1", "0,1e200", "axis 0, [5e+199]"),
    ("1,-0.5,-0.5,1", "-1,0;1,0;0,1e170;0,-1e170", "axis 1, [0.0, 1e+170]"),
])
def test_moving_maxima_on_a_grid_its_kernel_cannot_span_is_rejected_before_any_storm(sigma, grid, axis, capsys):
    # every storm's kernel is 0 at one end of the grid, so no number of
    # storms could reach the stopping rule; none is drawn
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--construction", "mmm", "--sigma", sigma, "--grid", grid, "--seed", "1"]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == (f"numeric error: moving-maxima grid too wide for its kernel: half its span along {axis}, "
                   "has a Mahalanobis form that overflows, so no storm reaches both ends of the grid\n")


def test_moving_maxima_whose_kernel_constant_underflows_is_rejected_before_any_storm(capsys):
    # det Sigma = 1e-400 is 0 in double precision though Sigma is
    # nonsingular: c = 0 would make every storm 0, so no number of storms
    # could reach the stopping rule; none is drawn
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--construction", "mmm", "--sigma", "1e-200,0,0,1e-200", "--grid", "0,0;1,1",
                     "--seed", "1"]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == ("numeric error: moving-maxima kernel constant c = det(Sigma)^1/2 / (2 pi)^{d/2} underflows "
                   "to 0 though Sigma is nonsingular, so every storm is 0 and the stopping rule is out of reach\n")


@pytest.mark.parametrize("scale", ["1e200", "1e160"])
def test_moving_maxima_whose_kernel_constant_overflows_is_rejected_before_any_storm(scale, capsys):
    # every entry of Sigma is finite, but det Sigma = scale^2 is past the
    # double range: c = inf would make every storm infinite; no determinant
    # warning is printed and no storm is drawn
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--construction", "mmm", "--sigma", f"{scale},0,0,{scale}", "--grid", "0,0;1,1",
                     "--seed", "1"]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("numeric error: moving-maxima kernel constant c = det(Sigma)^1/2 / (2 pi)^{d/2} overflows")
    assert "every storm is 0" not in err


@pytest.mark.parametrize("sigma, grid, log10_cw", [("1", "0,1e154", "153.6"), ("1e300", "0,1", "149.6")])
def test_moving_maxima_window_the_storm_cap_cannot_cover_is_rejected_before_any_storm(sigma, grid, log10_cw,
                                                                                       capsys):
    # the half-span forms are finite, but the stopping rule holds within the
    # storm cap with probability below 1e-9; no storm is drawn
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--construction", "mmm", "--sigma", sigma, "--grid", grid, "--seed", "1"]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == (f"numeric error: moving-maxima window too wide for the storm cap: c * |W| = 10^{log10_cw} "
                   "(kernel peak times window volume), so the stopping rule holds within 2000000 storms "
                   "with probability below 1e-9\n")


def test_brown_resnick_runs_where_only_the_variogram_from_the_origin_overflows(capsys):
    # |t| ~ 1e155 squares past the double range, but every pairwise variogram
    # value is finite, and the table of those is all the paths read
    grid = "1e155,1.00000000000001e155,1.00000000000003e155"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--construction", "br", "--variogram", "fractional:alpha=1",
                     "--grid", grid, "--seed", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[-3:]
    assert all(np.isfinite(float(row.split(",")[1])) for row in rows)


@pytest.mark.parametrize("law", [
    ["--construction", "smith", "--sigma", "1"],
    ["--construction", "general", "--dist", "gaussian:mu=0;sigma=1"],
    ["--construction", "br", "--variogram", "fractional:alpha=2"],
])
def test_simulate_reports_a_cgf_that_overflows_on_the_grid(law, capsys):
    # phi(1e160) = 5e319 is inf: no draw is made and no n_points bound is blamed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", *law, "--grid", "0,1e160", "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numeric error: phi - kappa is not finite at grid location 1 (the CGF overflows)\n"


@pytest.mark.parametrize("argv, cause", [
    (["simulate", "--construction", "br", "--variogram", "fractional:alpha=0.5;scale=1e308",
      "--grid", "0:1:5"], "variogram is too large on this grid: it reaches inf"),
    (["simulate", "--construction", "br", "--variogram", "fractional:alpha=1;scale=1e308",
      "--grid", "0,0;1,0;0,1"], "variogram is too large on this grid: it reaches 1.41e+308"),
    (["defect", "--dist", "uniform:a=0;b=1", "--box", "-1e308,1e308"], "search box widths must be finite"),
    (["verify", "--dist", "gaussian:mu=0;sigma=1", "--grid", "-1e308,1e308", "--replicates", "100"],
     "search box widths must be finite"),
    (["simulate", "--construction", "smith", "--sigma", "1e308", "--grid", "0,1"],
     "covariance matrix entries are too large"),
    (["simulate", "--construction", "smith", "--sigma", "1", "--grid", "0:inf:3"], "grid locations must be finite"),
])
def test_a_value_past_the_double_range_is_reported_where_it_starts(argv, cause, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric error: " + cause)


# ---------------------------------------------------------------------------
# defect / verify


def test_defect_gaussian_exit_zero(tmp_path, capsys):
    code = main(["defect", "--dist", "gaussian:mu=0;sigma=1", "--budget", "100"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "stationary-consistent"
    assert report["config"]["seed"] == DEFAULT_SEED


def test_defect_exponential_exit_one(capsys):
    code = main([
        "defect", "--dist", "exp:lambda=1", "--budget", "100", "--box", "0,0.6",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "violated"
    assert report["max_abs_defect"] > 0.084950 - 1e-9


def test_defect_on_a_huge_box_is_violated_not_an_overflow(capsys):
    # |defect| / eps overflows past about 4e292; |defect| / S <= 1 does not
    code = main(["defect", "--dist", "uniform:a=0;b=1", "--box=-1e300,1e300"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["verdict"] == "violated"
    assert 0.0 < report["roundoff_ratio"] <= 1.0 / np.finfo(float).eps


def test_defect_box_outside_domain_exit_three(capsys):
    assert main(["defect", "--dist", "exp:lambda=1", "--box", "0,2"]) == 3


def test_defect_bad_dist_spec_exit_two(capsys):
    assert main(["defect", "--dist", "cauchy:x0=0"]) == 2


def test_verify_small_runs(capsys):
    code = main([
        "verify", "--dist", "gaussian:mu=0;sigma=1",
        "--replicates", "150", "--n-points", "1000", "--budget", "30",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "Gaussian-consistent"

    code = main([
        "verify", "--dist", "exp:lambda=1",
        "--replicates", "150", "--n-points", "1000", "--budget", "30",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "non-stationary in dimension 2"
    assert report["marginals_pass"] is True


# ---------------------------------------------------------------------------
# fdd / compare-reps


def test_fdd_closed_bivariate(capsys):
    code = main([
        "fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0;2", "--xs", "1,1",
        "--method", "closed-bivariate",
    ])
    line = json.loads(capsys.readouterr().out)
    assert code == 0
    assert line["V"] == pytest.approx(husler_reiss_V(4.0, 1.0, 1.0).value, abs=1e-15)
    assert line["cdf"] == pytest.approx(np.exp(-line["V"]), abs=1e-15)


@pytest.mark.parametrize("dist, xs, kappa", [
    ("gaussian:mu=0;sigma=4", "1e300,1e-300", "cgf"),  # x2 / x1 is not a double
    ("gaussian:mu=0;sigma=1", "1,1", "quadratic:mu=0;sigma=1;c0=800"),  # x' = e^800 is not a double
], ids=["threshold-ratio-underflows", "kappa-threshold-overflows"])
def test_fdd_closed_bivariate_exits_0_wherever_the_exponent_exists(dist, xs, kappa, capsys):
    code = main(["fdd", "--dist", dist, "--ts", "0;1", "--xs", xs, "--kappa", kappa, "--method", "closed-bivariate"])
    assert code == 0
    assert np.isfinite(json.loads(capsys.readouterr().out)["V"])


def test_fdd_mc_reports_se(capsys):
    code = main([
        "fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0;1", "--xs", "1,1",
        "--method", "mc", "--mc-n", "20000", "--seed", "11",
    ])
    line = json.loads(capsys.readouterr().out)
    assert code == 0
    assert line["method"] == "mc" and line["se"] > 0


def test_fdd_mc_exits_3_where_a_tilted_draw_overflows(capsys):
    # the law tilted to t = 0 has scale 1 / theta = 1e308: its draws above
    # 1.8 overflow, and their log terms would be nan (RuntimeWarnings are
    # errors in this suite, so none may be printed either)
    code = main(["fdd", "--dist", "gamma:k=2;theta=1e-308", "--ts", "0;-1", "--xs", "1,1",
                 "--method", "mc", "--mc-n", "100000", "--seed", "1"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "numeric error: a draw tilted to query point 0 is not finite\n"


def test_fdd_closed_bivariate_needs_gaussian(capsys):
    assert main([
        "fdd", "--dist", "exp:lambda=1", "--ts", "0;0.5", "--xs", "1,1",
        "--method", "closed-bivariate",
    ]) == 3


def test_compare_reps_small(capsys):
    code = main([
        "compare-reps", "--sigma", "1", "--grid", "0,1",
        "--replicates", "400", "--n-points", "1000", "--threshold", "0.2",
        "--seed", "13",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["equivalent"] is True
    assert report["sup_cdf_difference"] < 0.2


def test_compare_reps_and_verify_prepare_each_law_once(monkeypatch, capsys):
    prepared = []

    def counted(module, name):
        prepare = getattr(module, name)

        def wrapper(*args):
            prepared.append(name)
            return prepare(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(maxstable.cli, "prepare_smith")
    counted(maxstable.cli, "prepare_moving_maxima")
    counted(maxstable.stationarity, "prepare_general")
    assert main([
        "compare-reps", "--sigma", "1", "--grid", "0,1", "--replicates", "100",
        "--n-points", "1000", "--threshold", "0.3", "--seed", "17",
    ]) == 0
    assert sorted(prepared) == ["prepare_moving_maxima", "prepare_smith"]
    # the same report as one Smith ensemble and, on seed + 1, each
    # moving-maxima replicate replayed alone from its block stream
    grid = Grid([0.0, 1.0])
    smith, _ = prepare_smith([[1.0]], grid, 1000).simulate_many(17, range(100))
    mmm = np.exp([moving_maxima_block_reference([[1.0]], grid, 18, k)[0] for k in range(100)])
    sup = bivariate_ecdf_distance(smith, mmm, frechet_threshold_grid())
    assert json.loads(capsys.readouterr().out)["sup_cdf_difference"] == sup
    # verify: one law, on the grid and its two shifted points, serves the
    # marginal check and the shift check
    prepared.clear()
    assert main([
        "verify", "--dist", "gaussian:mu=0;sigma=1", "--replicates", "100",
        "--n-points", "1000", "--budget", "5",
    ]) == 0
    assert prepared == ["prepare_general"]


def test_compare_reps_simulates_only_the_two_points_it_compares(capsys):
    # the third point is neither simulated nor compared
    def sup(grid):
        argv = ["compare-reps", "--sigma", "1", "--grid", grid, "--replicates", "100", "--threshold", "0.3"]
        assert main([*argv, "--seed", "5"]) in (0, 1)
        return json.loads(capsys.readouterr().out)["sup_cdf_difference"]

    assert sup("0,1,2.5") == sup("0,1")


def test_verify_checks_the_replicate_count_before_simulating(monkeypatch, capsys):
    calls = []
    simulate_many = PreparedLaw.simulate_many

    def counted(self, *args):
        calls.append(args)
        return simulate_many(self, *args)

    monkeypatch.setattr(PreparedLaw, "simulate_many", counted)
    assert main([
        "verify", "--dist", "gaussian:mu=0;sigma=1", "--replicates", "50",
        "--n-points", "1000", "--budget", "5",
    ]) == 3
    assert calls == []
    assert f">= {MIN_SAMPLES}" in capsys.readouterr().err
    assert main([
        "verify", "--dist", "gaussian:mu=0;sigma=1", "--replicates", str(MIN_SAMPLES),
        "--n-points", "1000", "--budget", "5",
    ]) == 0
    assert len(calls) == 1


def test_compare_reps_needs_two_points(capsys):
    assert main(["compare-reps", "--sigma", "1", "--grid", "0"]) == 2


# ---------------------------------------------------------------------------
# seeds, config files, argparse behaviour


def test_seed_env_changes_output(tmp_path, monkeypatch, capsys):
    args = [
        "defect", "--dist", "exp:lambda=1", "--budget", "50", "--box", "0,0.5",
    ]
    monkeypatch.setenv("MAXSTABLE_SEED", "1")
    main(args)
    first = json.loads(capsys.readouterr().out)
    monkeypatch.setenv("MAXSTABLE_SEED", "2")
    main(args)
    second = json.loads(capsys.readouterr().out)
    assert first["config"]["seed"] == 1 and second["config"]["seed"] == 2
    # explicit flag wins over the environment
    main(args + ["--seed", "9"])
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 9


def test_config_file_fills_missing_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget = 77\nbox = 0,0.5\n# a comment\n")
    code = main([
        "defect", "--dist", "exp:lambda=1", "--budget", "5",
        "--config", str(cfg),
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    # flag given on the command line wins; box comes from the file
    assert report["config"]["budget"] == 5
    assert report["config"]["box"] == "0,0.5"


def test_config_file_yields_to_an_abbreviated_flag(tmp_path, capsys):
    # argparse accepts --budg for --budget; the file must not override it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget = 77\n")
    main(["defect", "--dist", "exp:lambda=1", "--box", "0,0.6", "--budg", "5", "--config", str(cfg)])
    assert json.loads(capsys.readouterr().out)["config"]["budget"] == 5


def test_config_file_defaults_do_not_outlive_their_call(tmp_path, capsys):
    # the parser is built once per process; a --config call must not leave
    # its file's values behind as defaults of later calls
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mc-n = 5000\n")
    argv = ["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0", "--xs", "1", "--method", "mc"]
    assert main([*argv, "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["mc_n"] == 5000
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["config"]["mc_n"] == 100_000


@pytest.mark.parametrize(
    "argv, line",
    [
        (["simulate", "--construction", "smith", "--sigma", "1", "--n-points", "10"], "grid = 0,1"),
        (["defect"], "dist = exp:lambda=1\nbox = 0,0.6\nbudget = 5"),
    ],
    ids=["simulate-grid", "defect-dist"],
)
def test_config_file_supplies_a_needed_flag(tmp_path, capsys, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main([*argv, "--config", str(cfg)]) in (0, 1)
    out, err = capsys.readouterr()
    assert out and err == ""


def test_needed_flag_missing_from_command_line_and_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma = 1\n")
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--construction", "smith", "--config", str(cfg)])
    assert err.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == "maxstable simulate: error: the following arguments are required: --grid"


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    assert main(["defect", "--dist", "exp:lambda=1", "--config", str(bad)]) == 2
    assert main(["defect", "--dist", "exp:lambda=1", "--config", str(tmp_path / "gone")]) == 2
    capsys.readouterr()
    bad.write_bytes(b"budget = 5\n\xff\xfe\n")  # not UTF-8
    assert main(["defect", "--dist", "exp:lambda=1", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config file")


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["defect", "--dist", "exp:lambda=1", "--frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--construction", "smith", "--sigma", "1", "--grid", "-1,0,1", "--n-points", "500"],
        ["defect", "--dist", "exp:lambda=1", "--box", "-1e-3,0.5", "--budget", "5"],
        ["simulate", "--construction", "smith", "--sigma", "1", "--grid", "-.5,0.5"],
        ["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "-1E0;1", "--xs", "1,1",
         "--method", "closed-bivariate"],
    ],
    ids=["comma-list", "exponent", "leading-dot", "capital-exponent"],
)
def test_negative_grid_values_parse_as_arguments(argv, capsys):
    # a negative number is a value of its flag, not a flag
    assert main(argv) in (0, 1)
    out, err = capsys.readouterr()
    assert out and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["smith", "--sigma", "1", "--kappa", "nonsense", "--dist", "also:nonsense"],
        ["smith", "--sigma", "1", "--variogram", "fractional:alpha=1"],
        ["br", "--variogram", "fractional:alpha=1", "--sigma", "1"],
        ["br", "--variogram", "fractional:alpha=1", "--kappa", "cgf"],
        ["mmm", "--sigma", "1", "--n-points", "5"],
        ["mmm", "--sigma", "1", "--dist", "exp:lambda=1"],
        ["general", "--dist", "exp:lambda=1", "--sigma", "1"],
        ["general", "--dist", "exp:lambda=1", "--variogram", "quadratic:sigma=1"],
    ],
    ids=["smith-kappa-dist", "smith-variogram", "br-sigma", "br-kappa", "mmm-n-points",
         "mmm-dist", "general-sigma", "general-variogram"],
)
def test_simulate_rejects_a_flag_its_construction_does_not_read(argv, capsys):
    assert main(["simulate", "--grid", "0,1", "--construction", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "does not read" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, header",
    [
        (["smith", "--sigma", "1"], ["sigma=1", "grid=0,1", "n_points=10000"]),
        (["br", "--variogram", "quadratic:sigma=1"], ["variogram=quadratic:sigma=1", "grid=0,1",
                                                      "n_points=10000"]),
        (["mmm", "--sigma", "1"], ["sigma=1", "grid=0,1"]),
        (["general", "--dist", "exp:lambda=2"], ["dist=exp:lambda=2", "kappa=cgf", "grid=0,1",
                                                 "n_points=10000"]),
    ],
    ids=["smith", "br", "mmm", "general"],
)
def test_simulate_header_lists_only_the_flags_read(argv, header, capsys):
    assert main(["simulate", "--grid", "0,1", "--seed", "1", "--construction", *argv]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("# ")]
    assert lines[1:] == ["# subcommand=simulate", "# seed=1", f"# construction={argv[0]}",
                         *(f"# {item}" for item in header)]


# ---------------------------------------------------------------------------
# exit-code contract


@pytest.mark.parametrize(
    "argv, code",
    [
        (["compare-reps", "--sigma", "1", "--grid", "0,1", "--replicates", "0"], 3),
        (["compare-reps", "--sigma", "1", "--grid", "0,1", "--replicates", "-5"], 3),
        (["compare-reps", "--sigma", "1", "--grid", "0,1", "--replicates", "5"], 3),
        (["verify", "--dist", "gaussian:mu=0;sigma=1", "--replicates", "0"], 3),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0;nan", "--xs", "1,1"], 3),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0;1", "--xs", "1,inf"], 3),
        (["simulate", "--construction", "smith", "--sigma", "x", "--grid", "0,1"], 2),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0;1", "--xs", "1,x"], 2),
        (["simulate", "--construction", "br", "--variogram", "fractional:alpha",
          "--grid", "0,1"], 2),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--kappa", "quadratic:mu",
          "--ts", "0;1", "--xs", "1,1"], 2),
        (["compare-reps", "--sigma", "1", "--grid", "0,1", "--threshold", "inf"], 3),
        (["compare-reps", "--sigma", "1", "--grid", "0,1", "--threshold", "0"], 3),
        (["compare-reps", "--sigma", "1", "--grid", "0,1", "--threshold", "-0.5"], 3),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0", "--xs", "1e-320",
          "--method", "mc"], 3),
        (["simulate", "--construction", "br", "--variogram", "fractional:alpha=1;sacle=2",
          "--grid", "0,1"], 2),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--kappa", "quadratic:mu=0;sigma=1;sgima=3",
          "--ts", "0;1", "--xs", "1,1"], 2),
        (["simulate", "--construction", "general", "--dist", "gaussian:mu=0;sigma=1;mu=5",
          "--grid", "0,1"], 2),
        (["simulate", "--construction", "br", "--variogram", "fractional:alpha=3",
          "--grid", "0,1"], 3),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--kappa", "quadratic:mu=0;sigma=-1",
          "--ts", "0;1", "--xs", "1,1"], 3),
        (["defect", "--dist", "gaussian:mu=0;sigma=1", "--n", "2", "--budget", "5",
          "--box", "0,1e160"], 3),
        (["defect", "--dist", "gaussian:mu=0;sigma=1", "--box", "nan,nan"], 3),
        (["defect", "--dist", "exp:lambda=1", "--n", "1", "--budget", "50", "--seed", "1"], 3),
        (["verify", "--dist", "gaussian:mu=0;sigma=1", "--replicates=--"], 2),
        (["fdd", "--dist", "exp:lambda=1", "--kappa", "quadratic:mu=0,0;sigma=1,0,0,1",
          "--ts", "0;0.3", "--xs", "1,1"], 2),
        (["simulate", "--construction", "general", "--dist", "exp:lambda=1",
          "--kappa", "quadratic:mu=0,0;sigma=1,0,0,1", "--grid", "0,0.5"], 2),
        # 1000 draws over 600 points would leave one row per point and se = 0
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", ";".join(str(i / 100) for i in range(600)),
          "--xs", ",".join(["1"] * 600), "--mc-n", "1000"], 3),
        (["simulate", "--construction", "smith", "--sigma", "1", "--grid", "0:0.1:0"], 2),
        (["simulate", "--construction", "smith", "--sigma", "1", "--grid", "0:0.1:-2"], 2),
        (["simulate", "--construction", "smith", "--sigma", "1,0,0,1", "--grid", "0:0.1:3x0:0.1:0"], 2),
        (["simulate", "--construction", "general", "--dist", "gaussian:mu=0;sigma=1",
          "--kappa", "quadratic:mu=0;sigma=1;c0=800", "--grid", "0,1"], 3),
        (["simulate", "--construction", "smith", "--sigma", "1", "--grid", "0,0;1,1"], 2),
        (["simulate", "--construction", "general", "--dist", "gaussian:mu=0,0;sigma=1,0,0,1",
          "--grid", "0,1"], 2),
        (["simulate", "--construction", "br", "--variogram", "fractional:alpha=1,2", "--grid", "0,1"], 2),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--kappa", "quadratic:mu=0;sigma=1;c0=1,2",
          "--ts", "0;1", "--xs", "1,1"], 2),
        (["simulate", "--construction", "general", "--dist", "uniform:a=0,0;b=1", "--grid", "0,1"], 3),
        (["simulate", "--construction", "general", "--dist", "gamma:k=1,2;theta=1", "--grid", "0,1"], 3),
        (["simulate", "--construction", "mmm", "--sigma", "1,0,0,1", "--grid", "0,1"], 2),
        (["simulate", "--construction", "br", "--variogram", "quadratic:sigma=1", "--grid", "0,0;1,1"], 2),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0,0;1,1", "--xs", "1,1"], 2),
        (["verify", "--dist", "gaussian:mu=0;sigma=1", "--grid", "0,0;1,1", "--replicates", "100"], 2),
        (["defect", "--dist", "gaussian:mu=0;sigma=1", "--box", "0,1;0,1"], 2),
        (["compare-reps", "--sigma", "1", "--grid", "0,0;1,1"], 2),
        (["simulate", "--construction", "smith", "--sigma", "1", "--grid", ";"], 2),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", ";", "--xs", "1"], 2),
        (["defect", "--dist", "gaussian:mu=0;sigma=1", "--box", ""], 2),
        (["verify", "--dist", "gaussian:mu=0;sigma=1", "--grid", "", "--replicates", "100"], 2),
        (["simulate", "--construction", "smith", "--sigma", "1", "--grid", "0,1", "--seed", "-1"], 2),
        (["simulate", "--construction", "smith", "--sigma", "1", "--grid", "0,1", "--seed", str(2**64)], 2),
    ],
    ids=[
        "zero-replicates", "negative-replicates", "too-few-replicates", "verify-zero-replicates",
        "nan-point", "inf-threshold", "sigma-not-a-number", "threshold-not-a-number",
        "variogram-param-without-equals", "kappa-param-without-equals",
        "inf-compare-threshold", "zero-compare-threshold", "negative-compare-threshold",
        "infinite-exponent",
        "misspelt-variogram-key", "misspelt-kappa-key", "repeated-key",
        "variogram-alpha-out-of-range", "indefinite-kappa-sigma", "cgf-overflow", "nan-box",
        "one-point-criterion",
        "double-dash-value", "fdd-kappa-dimension", "simulate-kappa-dimension",
        "fdd-too-few-draws-per-point", "zero-grid-count", "negative-grid-count", "zero-grid-count-2d",
        "field-underflow", "smith-grid-dimension", "general-grid-dimension", "variogram-alpha-vector",
        "kappa-c0-vector", "uniform-endpoint-lengths", "gamma-parameter-lengths",
        "mmm-grid-dimension", "br-quadratic-grid-dimension", "fdd-ts-dimension", "verify-grid-dimension",
        "defect-box-dimension", "compare-reps-grid-dimension", "simulate-empty-point-list", "fdd-empty-ts",
        "defect-empty-box", "verify-empty-grid", "negative-seed", "seed-past-64-bits",
    ],
)
def test_bad_input_exit_codes(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err and err.startswith(("error:", "numeric error:"))


def test_defect_on_a_box_without_a_feasible_config_is_a_domain_error(capsys):
    # inside [0.6, 0.9] no criterion config keeps all of its points in the
    # exponential law's domain t < 1
    assert main(["defect", "--dist", "exp:lambda=1", "--box", "0.6,0.9"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "domain error: no feasible criterion configs inside the box\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64(-np.inf)])
def test_dump_json_rejects_a_number_that_is_not_finite(value):
    with pytest.raises(ValueError, match="non-finite number"):
        dump_json({"V": [1.0, value]})


def _dump_json_reference(obj) -> str:
    """dump_json as first written, with one json.dumps call per key and
    string and np.isfinite on every number: the reference of its bytes."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_dump_json_reference(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump_json_reference(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError(f"non-finite number {float(obj)!r} in the output")
        return format(float(obj), ".17g")
    return json.dumps(obj)


JSON_PAYLOAD = {
    "verdict": "violated",
    "dist": "gaussian:mu=0;sigma=1",
    "text": ["σ² é \u00e9", "\U0001f600 \ud800", "\x00\x01\x1f\x7f \t\n\r \"quoted\" back\\slash /", ""],
    "flags": [True, False, None],
    "ints": [0, -7, 2**64 + 1, np.int64(-3), np.uint8(255), np.intp(12)],
    "floats": [0.1, -0.0, 0.0, np.float64(-0.0), 5e-324, 1.7976931348623157e308, np.float32(0.1),
               np.float64(2.5635324028778097), 1.0, -1e-300],
    "nested": {"argmax_config": {"ts": [[0.8, -0.6]], "u": (0.25, 0.75), "h": [0.79]}, 7: None, "é": {}},
    "empty": [],
}


def test_dump_json_writes_the_bytes_of_its_reference():
    assert dump_json(JSON_PAYLOAD) == _dump_json_reference(JSON_PAYLOAD)
    for value in (float("nan"), float("inf"), -np.inf, np.float32("nan"), np.float64(np.inf)):
        for dump in (dump_json, _dump_json_reference):
            with pytest.raises(ValueError, match=r"non-finite number (nan|-?inf) in the output"):
                dump({"nested": [{"V": [1.0, value]}]})


@pytest.mark.parametrize("argv", [
    ["simulate", "--construction", "smith", "--sigma", "1", "--grid", "0,1", "--n-points", "10"],
    ["defect", "--dist", "exp:lambda=1", "--box", "0,0.6", "--budget", "5"],
], ids=["simulate", "defect"])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_an_output_file_that_cannot_be_written_exits_2(argv, where, tmp_path, capsys):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    assert main([*argv, "--output", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write output file {path}: ") and "Traceback" not in err


def test_verify_on_a_one_point_grid_is_a_usage_error(capsys):
    # as compare-reps: the shift comparison needs two points
    assert main(["verify", "--dist", "gaussian:mu=0;sigma=1", "--grid", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: verify needs at least two grid points\n"


@pytest.mark.parametrize("ts, xs", [("0", "1"), ("0;1;2", "1,1,1")], ids=["one-point", "three-point"])
def test_closed_bivariate_on_other_than_two_points_is_a_usage_error(ts, xs, capsys):
    argv = ["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", ts, "--xs", xs, "--method", "closed-bivariate"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --method closed-bivariate needs exactly two query points\n"


def test_out_of_memory_exits_3_without_a_traceback(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(maxstable.cli.stationarity, "search_violation", no_memory)
    assert main(["defect", "--dist", "gaussian:mu=0;sigma=1", "--budget", "1000000000000"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "memory error: Unable to allocate 7.28 TiB for an array\n"


def test_spaces_around_spec_keys_and_values(capsys):
    def field_rows(variogram):
        argv = ["simulate", "--construction", "br", "--variogram", variogram, "--grid", "0:0.25:9",
                "--seed", "3"]
        assert main(argv) == 0
        return [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]

    assert field_rows("fractional:alpha=1; scale=2") == field_rows("fractional:alpha=1;scale=2")
    kappa = parse_kappa(" Quadratic : mu = 0 ; sigma=1 ;", Gaussian([0.0], [[1.0]]))
    assert kappa == ShapeFunction(Gaussian([0.0], [[1.0]]), 0.0)


SIM = ["simulate", "--grid", "0,1", "--construction"]
FDD = ["fdd", "--ts", "0;1", "--xs", "1,1", "--mc-n", "1000", "--dist"]


@pytest.mark.parametrize(
    "argv",
    [
        [*SIM, "general", "--dist", "exp:lambda=inf"],
        [*FDD, "exp:lambda=inf"],
        [*SIM, "general", "--dist", "gaussian:mu=nan;sigma=1"],
        [*FDD, "uniform:a=-inf;b=1"],
        [*SIM, "smith", "--sigma", "nan"],
        [*SIM, "br", "--variogram", "fractional:scale=inf;alpha=1"],
        [*SIM, "br", "--variogram", "quadratic:sigma=inf"],
        [*FDD, "gaussian:mu=0;sigma=1", "--kappa", "quadratic:mu=0;sigma=1;c0=inf"],
        [*FDD, "gaussian:mu=0;sigma=1", "--kappa", "quadratic:mu=nan;sigma=1"],
    ],
    ids=["dist-simulate", "dist-fdd", "gaussian-mu", "uniform-a", "sigma", "variogram-scale",
         "variogram-sigma", "kappa-c0", "kappa-mu"],
)
def test_non_finite_spec_number_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "non-finite" in err


def test_config_file_value_that_is_not_a_number(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget = abc\n")
    assert main(["defect", "--dist", "exp:lambda=1", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "budget" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["defect", "--dist", "exp:lambda=1", "--box", "0,0.6"], "budgte = 5"),
        (["defect", "--dist", "exp:lambda=1", "--box", "0,0.6"], "func = x"),
        (["defect", "--dist", "exp:lambda=1", "--box", "0,0.6"], "command = verify"),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0", "--xs", "1"], "method = foo"),
        (["simulate", "--construction", "general", "--dist", "exp:lambda=2", "--grid", "0,1"],
         "sigma = 1"),
    ],
    ids=["misspelt-flag", "parser-attribute", "subcommand", "not-a-choice", "not-read-by-construction"],
)
def test_config_file_keys_follow_the_flag_contract(tmp_path, capsys, argv, line):
    # a key must name a long flag of the subcommand, and its value must pass
    # that flag's type and choices
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    key = line.split(" ")[0]
    assert out == "" and err.startswith("error:") and key in err and "Traceback" not in err


def fresh_python(code, *args, blas_threads=None):
    """The stdout of ``python -c code args`` in a new process that imports
    this package from its source tree, with OpenBLAS on ``blas_threads``
    threads if given."""
    src = str(Path(maxstable.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_does_not_load_scipy():
    code = "import sys, maxstable.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert fresh_python(code).strip() == "[]"


def test_cli_import_and_call_do_not_load_dataclasses():
    # the package's value classes are plain classes: nothing is generated at import
    code = ("import contextlib, io, sys, maxstable.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = maxstable.cli.main(sys.argv[1:])\n"
            "print(code, 'dataclasses' in sys.modules)")
    argv = ["defect", "--dist", "exp:lambda=1", "--box", "0,0.6", "--budget", "5"]
    assert fresh_python(code, *argv).strip() == "1 False"


# calls sys.argv[2:] in turn and prints their exit codes and which of the
# modules sys.argv[1] names (comma-separated) they loaded
CALLS_AND_MODULES = """
import contextlib, io, sys
from maxstable.cli import main
codes = []
for argv in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv.split()))
print(codes, [name for name in sys.argv[1].split(",") if name in sys.modules])
"""

# one call per subcommand -> its exit code
SUBCOMMAND_CALLS = {
    "simulate --construction smith --sigma 1 --grid 0,1 --seed 1": 0,
    "defect --dist gaussian:mu=0;sigma=1 --n 2 --budget 10": 0,
    "verify --dist uniform:a=0;b=1 --replicates 100 --budget 5 --seed 1": 1,
    "fdd --dist gaussian:mu=0;sigma=1 --ts 0;2 --xs 1,1 --method closed-bivariate": 0,
    "compare-reps --sigma 1 --grid 0,1 --replicates 100 --threshold 0.5 --seed 1": 0,
}


def test_no_subcommand_loads_numpy_ma():
    # np.unique imports numpy.ma (1.6 MB); the package sorts instead
    out = fresh_python(CALLS_AND_MODULES, "numpy.ma", *SUBCOMMAND_CALLS)
    assert out.strip() == f"{list(SUBCOMMAND_CALLS.values())} []"


def test_a_brownian_brown_resnick_field_loads_no_fft():
    # alpha = 1 in 1-D sums independent steps: no circulant embedding
    argv = "simulate --construction br --variogram fractional:alpha=1 --grid -5:0.02:501 --seed 1"
    assert fresh_python(CALLS_AND_MODULES, "numpy.fft", argv).strip() == "[0] []"


# runs the package with a finder that refuses every scipy module: each
# module imports, and one call per subcommand gives its exit code
WITHOUT_SCIPY = """
import contextlib, importlib, io, pkgutil, sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())
import maxstable
for info in pkgutil.iter_modules(maxstable.__path__):
    importlib.import_module("maxstable." + info.name)
from maxstable.cli import main
codes = []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv.split()))
print(codes)
"""


def test_every_subcommand_runs_without_scipy():
    assert fresh_python(WITHOUT_SCIPY, *SUBCOMMAND_CALLS).strip() == str(list(SUBCOMMAND_CALLS.values()))


def run_with_blas_threads(argv, threads):
    """stdout of the command line called with argv, with OpenBLAS on ``threads`` threads."""
    return fresh_python("import sys; from maxstable.cli import main; sys.exit(main())", *argv,
                        blas_threads=threads)


def test_brown_resnick_does_not_depend_on_the_blas_thread_count():
    # a 1-D lattice takes its increments from running sums (alpha = 1) or
    # FFTs, with no BLAS: equal bytes; off a lattice, at alpha != 1,
    # LAPACK's Cholesky and the increment product round with the BLAS
    # thread count, so a field agrees to round-off; a quadratic variogram is
    # Smith's field, which takes no such factor: equal bytes
    def run(variogram, grid, threads):
        argv = ["simulate", "--construction", "br", "--variogram", variogram, "--grid", grid, "--seed", "3"]
        return run_with_blas_threads(argv, threads)

    def values(out):
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        return np.array([float(line.split(",")[-1]) for line in rows])

    lattice = [run("fractional:scale=1;alpha=1", "-5:0.02:501", n) for n in (1, 2)]
    assert values(lattice[0]).shape == (501,)
    assert lattice[0] == lattice[1]
    irregular = ",".join(f"{t:.6f}" for t in np.random.default_rng(3).uniform(-5.0, 5.0, 300))
    one, two = (values(run("fractional:scale=1;alpha=0.5", irregular, n)) for n in (1, 2))
    assert one.shape == (300,)
    assert np.allclose(one, two, rtol=1e-10, atol=0.0)
    assert run("quadratic:sigma=2", "-5:0.02:501", 1) == run("quadratic:sigma=2", "-5:0.02:501", 2)


# an ensemble on a 150-point irregular 1-D grid at alpha = 1: its kind of
# increments, whether block-sized batches and sys.argv[1:] alone give the
# rows of the whole range(1024), and the digest of those rows
BROWNIAN_LAYOUTS = """
import hashlib, sys
import numpy as np
from maxstable.simulator import Grid, Variogram, prepare_brown_resnick
indices = [int(k) for k in sys.argv[1:]]
grid = Grid(np.sort(np.random.default_rng(5).uniform(-5.0, 5.0, 150)))
law = prepare_brown_resnick(Variogram.fractional(1.0, 1.0), grid, 10_000)
whole, _ = law.simulate_many(8, range(1024))
blocks = np.concatenate([law.simulate_many(8, range(k, k + 64))[0] for k in range(0, 1024, 64)])
print(law.provenance["increments"], np.array_equal(blocks, whole),
      np.array_equal(law.simulate_many(8, indices)[0], whole[indices]), hashlib.sha256(whole.tobytes()).hexdigest())
"""


def test_brownian_rows_do_not_depend_on_the_batch_or_the_blas_thread_count():
    # alpha = 1 in 1-D takes independent steps, summed row by row with no
    # BLAS product: off a lattice too, a replicate keeps its bits in any
    # batch and on any thread count
    indices = ["0", "1", "62", "63", "64", "65", "127", "128", "200"]  # on both sides of block edges
    one, two = (fresh_python(BROWNIAN_LAYOUTS, *indices, blas_threads=n) for n in (1, 2))
    assert one.split()[:3] == ["brownian", "True", "True"]
    assert one == two


def test_fdd_mc_does_not_depend_on_the_blas_thread_count():
    # exponent_mc sums every <x, t> in coordinate order and counts integer
    # hits, so a 2-D Gaussian query prints the same bytes on any thread count
    argv = ["fdd", "--dist", "gaussian:mu=0.1,-0.2;sigma=1,0.3,0.3,2", "--ts", "0,0;0.5,-0.3;1,0.7",
            "--xs", "1,1.5,0.8", "--method", "mc", "--mc-n", "300000", "--seed", "4"]
    one = run_with_blas_threads(argv, 1)
    assert json.loads(one)["se"] > 0
    assert one == run_with_blas_threads(argv, 2)
