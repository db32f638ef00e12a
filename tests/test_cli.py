import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maxstable
import maxstable.cli
from maxstable.cli import (
    UsageError,
    main,
    parse_box,
    parse_grid,
    parse_matrix,
    parse_variogram,
    resolve_seed,
)
from maxstable.fdd import bivariate_ecdf_distance, frechet_threshold_grid, husler_reiss_V
from maxstable.seeding import DEFAULT_SEED, run_replicates
from maxstable.simulator import Grid, simulate_moving_maxima, simulate_smith


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


def test_parse_matrix_and_box():
    assert parse_matrix("1,0.5,0.5,1").shape == (2, 2)
    with pytest.raises(UsageError):
        parse_matrix("1,2,3")
    box = parse_box("0,1;-1,1")
    assert box.shape == (2, 2)
    with pytest.raises(UsageError):
        parse_box("0,1,2")


def test_parse_variogram():
    v = parse_variogram("fractional:scale=2;alpha=1.5")
    assert v.kind == "fractional" and v.alpha == 1.5
    assert parse_variogram("quadratic:sigma=1").kind == "quadratic"
    with pytest.raises(UsageError):
        parse_variogram("spherical:range=1")
    with pytest.raises(UsageError):
        parse_variogram("fractional:scale=2")


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.delenv("MAXSTABLE_SEED", raising=False)
    assert resolve_seed(None) == DEFAULT_SEED
    monkeypatch.setenv("MAXSTABLE_SEED", "0x10")
    assert resolve_seed(None) == 16
    assert resolve_seed(7) == 7
    monkeypatch.setenv("MAXSTABLE_SEED", "not-a-seed")
    with pytest.raises(UsageError):
        resolve_seed(None)


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


def test_simulate_plot_data(tmp_path):
    plot = tmp_path / "plot.csv"
    assert main([
        "simulate", "--construction", "smith", "--sigma", "1",
        "--grid", "0:0.5:3", "--n-points", "500",
        "--output", str(tmp_path / "f.csv"), "--plot-data", str(plot),
    ]) == 0
    rows = plot.read_text().strip().split("\n")
    assert len(rows) == 3 and not rows[0].startswith("#")


def test_simulate_missing_required_parameter():
    assert main(["simulate", "--construction", "smith", "--grid", "0,1"]) == 2


def test_simulate_n_points_bounds_the_draws_at_one_location(capsys):
    # with seed 2 the second grid location needs two spectral draws
    args = ["simulate", "--construction", "smith", "--sigma", "1", "--grid", "0,1", "--seed", "2"]
    assert main(args + ["--n-points", "1"]) == 3
    assert "n_points = 1" in capsys.readouterr().err
    assert main(args + ["--n-points", "2"]) == 0


def test_simulate_numeric_error_exit_code(tmp_path):
    # singular sigma makes the moving-maxima representation ill-posed
    assert main([
        "simulate", "--construction", "mmm", "--sigma", "0",
        "--grid", "0,1", "--output", str(tmp_path / "x.csv"),
    ]) == 3


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


def test_fdd_mc_reports_se(capsys):
    code = main([
        "fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0;1", "--xs", "1,1",
        "--method", "mc", "--mc-n", "20000", "--seed", "11",
    ])
    line = json.loads(capsys.readouterr().out)
    assert code == 0
    assert line["method"] == "mc" and line["se"] > 0


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


def test_compare_reps_builds_the_smith_law_once(monkeypatch, capsys):
    built = []

    def counted(sigma):
        built.append(sigma)
        return law(sigma)

    law = maxstable.cli._smith_law
    monkeypatch.setattr(maxstable.cli, "_smith_law", counted)
    assert main([
        "compare-reps", "--sigma", "1", "--grid", "0,1", "--replicates", "100",
        "--n-points", "1000", "--threshold", "0.3", "--seed", "17",
    ]) == 0
    assert len(built) == 1
    # the same report as one simulate_smith call per replicate
    grid = Grid([0.0, 1.0])
    smith = run_replicates(lambda k, rng: simulate_smith([[1.0]], grid, 1000, rng).values, 100, 17)
    mmm = run_replicates(
        lambda k, rng: simulate_moving_maxima([[1.0]], grid, [[0.0, 1.0]], rng).values, 100, 18
    )
    sup = bivariate_ecdf_distance(np.array(smith), np.array(mmm), frechet_threshold_grid())
    assert json.loads(capsys.readouterr().out)["sup_cdf_difference"] == sup


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


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    assert main(["defect", "--dist", "exp:lambda=1", "--config", str(bad)]) == 2
    assert main(["defect", "--dist", "exp:lambda=1", "--config", str(tmp_path / "gone")]) == 2


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["defect", "--dist", "exp:lambda=1", "--frobnicate"])
    assert err.value.code == 2


def test_negative_grid_values_parse_as_arguments(tmp_path):
    # "-1,0,1" must be treated as a value of --grid, not as a flag
    assert main([
        "simulate", "--construction", "smith", "--sigma", "1",
        "--grid", "-1,0,1", "--n-points", "500",
        "--output", str(tmp_path / "f.csv"),
    ]) == 0


# ---------------------------------------------------------------------------
# exit-code contract


@pytest.mark.parametrize(
    "argv, code",
    [
        (["compare-reps", "--sigma", "1", "--grid", "0,1", "--replicates", "0"], 3),
        (["compare-reps", "--sigma", "1", "--grid", "0,1", "--replicates", "-5"], 3),
        (["verify", "--dist", "gaussian:mu=0;sigma=1", "--replicates", "0"], 3),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0;nan", "--xs", "1,1"], 3),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0;1", "--xs", "1,inf"], 3),
        (["simulate", "--construction", "smith", "--sigma", "x", "--grid", "0,1"], 2),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0;1", "--xs", "1,x"], 2),
        (["simulate", "--construction", "br", "--variogram", "fractional:alpha",
          "--grid", "0,1"], 2),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--kappa", "quadratic:mu",
          "--ts", "0;1", "--xs", "1,1"], 2),
        (["defect", "--dist", "exp:lambda=1", "--box", "0,0.6", "--tol", "nan"], 3),
        (["compare-reps", "--sigma", "1", "--grid", "0,1", "--threshold", "inf"], 3),
        (["fdd", "--dist", "gaussian:mu=0;sigma=1", "--ts", "0", "--xs", "1e-320",
          "--method", "closed-marginal"], 3),
    ],
    ids=[
        "zero-replicates", "negative-replicates", "verify-zero-replicates",
        "nan-point", "inf-threshold", "sigma-not-a-number", "threshold-not-a-number",
        "variogram-param-without-equals", "kappa-param-without-equals",
        "nan-defect-tolerance", "inf-compare-threshold", "infinite-exponent",
    ],
)
def test_bad_input_exit_codes(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err and err.startswith(("error:", "numeric error:"))


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
    ],
    ids=["misspelt-flag", "parser-attribute", "subcommand", "not-a-choice"],
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


def test_cli_import_does_not_load_scipy():
    src = str(Path(maxstable.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, maxstable.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
