import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dfindex import cli


def run(argv):
    return cli.main(argv)


def _not_json(constant):
    raise ValueError(f"a report holds {constant}, which is not JSON")


def read_report(path):
    """The JSON file at path, read strictly: json.dumps writes a non-finite
    float as NaN, Infinity or -Infinity, which no JSON parser need accept,
    so a report holding one fails here."""
    return json.loads(path.read_text(), parse_constant=_not_json)


def load_without_stamp(path):
    data = read_report(path)
    data.pop("timestamp", None)
    return data


# -- analyze ---------------------------------------------------------------------

def test_analyze_worm_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["analyze", "--t", "0", "--budget", "40", "--annulus-count", "5",
            "--seed", "3", "--output"]
    assert run(argv + [str(out1)]) == cli.EXIT_OK
    assert run(argv + [str(out2)]) == cli.EXIT_OK
    assert load_without_stamp(out1) == load_without_stamp(out2)
    data = load_without_stamp(out1)
    assert data["domain"] == "worm"
    assert 0.0 < data["df_lower"] < 1.0
    assert data["ground_truth"]["df"] == pytest.approx(2.0 / 3.0)


def test_analyze_deformed_worm_is_spc(tmp_path):
    out = tmp_path / "r.json"
    assert run(["analyze", "--t", "0.3", "--spc-count", "60",
                "--output", str(out)]) == cli.EXIT_OK
    data = load_without_stamp(out)
    assert data["spc"] is True
    assert data["df_lower"] == 1.0 and data["s_upper"] == 1.0


def test_analyze_ball(tmp_path):
    out = tmp_path / "r.json"
    assert run(["analyze", "--domain", "ball", "--count", "25",
                "--output", str(out)]) == cli.EXIT_OK
    data = load_without_stamp(out)
    assert data["spc"] is True and data["null_count"] == 0


def test_analyze_expression(tmp_path):
    out = tmp_path / "r.json"
    assert run(["analyze", "--expr", "abs2(z1) + abs2(z2) - 1",
                "--count", "25", "--output", str(out)]) == cli.EXIT_OK
    data = load_without_stamp(out)
    assert data["domain"] == "abs2(z1) + abs2(z2) - 1"
    assert data["spc"] is True


def test_ground_truth_follows_beta(tmp_path):
    out = tmp_path / "r.json"
    assert run(["analyze", "--t", "0", "--beta", "2.0", "--annulus-count", "5",
                "--output", str(out)]) == cli.EXIT_OK
    data = load_without_stamp(out)
    truth = data["ground_truth"]
    assert truth["df"] == pytest.approx(math.pi / 4.0)
    assert truth["s"] == pytest.approx(math.pi / (2.0 * math.pi - 4.0))
    # computed bounds may not beat the exact values
    assert data["df_lower"] <= truth["df"]
    assert data["s_upper"] >= truth["s"]


def test_sampled_reports_share_diagnostics(tmp_path):
    runs = {"ball": ["--domain", "ball", "--count", "20"],
            "expr": ["--expr", "abs2(z1) + 2*abs2(z2) - 1", "--count", "20"],
            "deformed": ["--t", "0.3", "--spc-count", "20"]}
    keys = {}
    for name, flags in runs.items():
        out = tmp_path / f"{name}.json"
        assert run(["analyze", *flags, "--output", str(out)]) == cli.EXIT_OK
        keys[name] = set(load_without_stamp(out)["diagnostics"])
    assert keys["ball"] == keys["expr"] == keys["deformed"] \
        == {"certificate", "min_levi_eigenvalue", "psh_margin", "spc_samples"}


@pytest.mark.parametrize("flags", [["--expr", "abs2(z1)-1"],
                                   ["--domain", "ball", "--dim", "1"],
                                   ["--domain", "ellipsoid", "--coeffs", "2"]])
def test_analyze_rejects_a_domain_in_c1(tmp_path, capsys, flags):
    # n = 1 leaves no complex tangent direction, so no Levi form
    out = tmp_path / "r.json"
    assert run(["analyze", *flags, "--count", "5",
                "--output", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "C^1" in err and "Levi form" in err
    assert not out.exists()


# -- sample and sweep ---------------------------------------------------------------

def test_sample_csv(tmp_path):
    out = tmp_path / "pts.csv"
    assert run(["sample", "--domain", "ball", "--count", "7",
                "--output", str(out)]) == cli.EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("re(z1),im(z1)")


def test_sample_in_c1(tmp_path):
    # boundary sampling needs no Levi form, so a domain in C^1 is fine
    out = tmp_path / "pts.csv"
    assert run(["sample", "--domain", "ball", "--dim", "1", "--count", "3",
                "--output", str(out)]) == cli.EXIT_OK
    assert len(out.read_text().strip().splitlines()) == 4


def test_sweep_csv_and_json(tmp_path):
    csv_out, json_out = tmp_path / "s.csv", tmp_path / "s.json"
    assert run(["sweep", "--t", "0,0.2", "--budget", "30",
                "--annulus-count", "5", "--spc-count", "40",
                "--output", str(csv_out), "--json", str(json_out)]) == cli.EXIT_OK
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "t,df_lower,s_upper,null_count,spc"
    assert len(lines) == 3
    data = read_report(json_out)
    assert len(data["reports"]) == 2
    assert data["reports"][1]["spc"] is True


# -- verification subcommands -----------------------------------------------------------

def test_verify_levi_passes(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify-levi", "--count", "40", "--t", "0,0.3",
                "--output", str(out)]) == cli.EXIT_OK
    data = read_report(out)
    assert all(r["passed"] for r in data["results"])
    assert max(r["max_rel_error"] for r in data["results"]) < cli.LEVI_VERIFY_TOL


def test_schur_suite_passes(tmp_path):
    out = tmp_path / "s.json"
    assert run(["schur-test", "--count", "60", "--output", str(out)]) == cli.EXIT_OK
    assert read_report(out)["passed"] is True


def test_phi_check_passes(tmp_path):
    out = tmp_path / "p.json"
    assert run(["phi-check", "--output", str(out)]) == cli.EXIT_OK
    data = read_report(out)
    assert data["passed"] is True
    assert data["r"] == pytest.approx(3 * math.pi / 4 - math.pi / 2)


# make_phi checks growth outside [-r, r] through phi' only; the value-level
# axioms are phi-check's, for the beta grid of the central fiber and the
# openings where phi underflows next to r
@pytest.mark.parametrize("beta", [0.6 * math.pi, 0.7 * math.pi, 0.75 * math.pi,
                                  0.9 * math.pi, 1.2 * math.pi, 1.6, 1.8, 1.9,
                                  2.1, 3.2])
def test_phi_axioms_hold_across_beta(beta):
    result = cli.run_phi_check(beta)
    assert result["passed"], result["checks"]


# -- config file -------------------------------------------------------------------------

def test_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain = ball\ncount = 4  # small run\nseed = 3\n")
    out = tmp_path / "pts.csv"
    assert run(["sample", "--config", str(cfg),
                "--output", str(out)]) == cli.EXIT_OK
    assert len(out.read_text().strip().splitlines()) == 5

    # explicit flag beats the config value
    assert run(["sample", "--config", str(cfg), "--count", "6",
                "--output", str(out)]) == cli.EXIT_OK
    assert len(out.read_text().strip().splitlines()) == 7


def test_config_file_bad_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("count 4\n")
    assert run(["sample", "--config", str(cfg)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: config line 1 is not key=value: 'count 4'\n")


def test_config_file_missing(tmp_path):
    assert run(["sample", "--config", str(tmp_path / "nope.cfg")]) == cli.EXIT_INPUT


# the joined and the abbreviated spellings argparse accepts for --config
SPELLINGS = {"joined": lambda path: [f"--config={path}"],
             "abbreviated": lambda path: ["--conf", str(path)]}


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_config_file_spellings(spelling, tmp_path):
    config = SPELLINGS[spelling]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nspc_count = 20\n")
    out = tmp_path / "r.json"
    argv = ["analyze", "--t", "0.05", *config(cfg), "--output", str(out)]
    assert run(argv) == cli.EXIT_OK
    data = load_without_stamp(out)
    assert data["seed"] == 3 and data["diagnostics"]["spc_samples"] == 20

    # explicit flags beat the file, before or after it
    assert run(["analyze", "--seed", "4", "--t", "0.05", *config(cfg),
                "--spc-count", "10", "--output", str(out)]) == cli.EXIT_OK
    data = load_without_stamp(out)
    assert data["seed"] == 4 and data["diagnostics"]["spc_samples"] == 10

    cfg.write_text("seed 3\n")
    assert run(argv) == cli.EXIT_INPUT
    assert run(["analyze", *config(tmp_path / "nope.cfg")]) == cli.EXIT_INPUT


# -- exit codes ---------------------------------------------------------------------------

def test_bad_expression_is_input_error(tmp_path):
    assert run(["analyze", "--expr", "abs2(z1", "--count", "5",
                "--output", str(tmp_path / "r.json")]) == cli.EXIT_INPUT


def test_unbounded_expression_is_input_error(tmp_path):
    # boundary rays leave the search radius inside the half-space
    assert run(["analyze", "--expr", "re(z1)-1", "--dim", "2", "--count", "10",
                "--output", str(tmp_path / "r.json")]) == cli.EXIT_INPUT


def test_complex_expression_is_input_error(tmp_path):
    assert run(["analyze", "--expr", "z1 + abs2(z2) - 1", "--count", "5",
                "--output", str(tmp_path / "r.json")]) == cli.EXIT_INPUT


def test_ellipsoid_requires_coeffs(tmp_path):
    assert run(["analyze", "--domain", "ellipsoid",
                "--output", str(tmp_path / "r.json")]) == cli.EXIT_INPUT


def test_unknown_option_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        run(["analyze", "--no-such-flag"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["analyze", "--threads", "2", "--t", "0.3"])
    assert err.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--annulus-count", "0"],
    # 1 or 2 points cannot hold both annulus ends and the point (0, 1)
    ["analyze", "--annulus-count", "1"],
    ["analyze", "--annulus-count", "2"],
    ["analyze", "--expr", "abs2(z1) + abs2(z2) - 1", "--count", "0"],
    ["analyze", "--t", "0.05", "--spc-count", "0"],
    ["verify-levi", "--count", "0"],
    ["verify-levi", "--t", ","],
    ["schur-test", "--count", "0"],
    ["schur-test", "--count", "-5"],
    # a constant that is not finite, and a NaN at the anchor z = 0
    ["analyze", "--expr", "abs2(z1)+abs2(z2)-1/0"],
    ["analyze", "--expr", "abs2(z1)+abs2(z2)-1+0*log(0)"],
    ["analyze", "--expr", "abs2(z1)+abs2(z2)-1+0*exp(1000)"],
    ["analyze", "--expr", "abs2(z1)+abs2(z2)-1+0*log(abs2(z1)-0.5)"],
    # NaN along rays but not at the anchor
    ["analyze", "--expr", "abs2(z1)+abs2(z2)-1+0*log(0.5+abs2(z1)-abs2(z2))"],
    ["analyze", "--expr", "abs2(z1)+abs2(z2)-1+0*sqrt(0.5-abs2(z2))"],
    # NaN at some realness points, which parse_expression evaluates without
    # a RuntimeWarning, and at the anchor
    ["analyze", "--expr", "abs2(z1)+abs2(z2)-1+0*log(abs2(z1)-1.5)"],
    # a dimension or coefficients the domain cannot take
    ["analyze", "--domain", "ball", "--dim", "0"],
    ["analyze", "--domain", "ball", "--dim", "-2"],
    ["analyze", "--domain", "worm", "--dim", "3"],
    ["sample", "--domain", "worm", "--dim", "3"],
    ["analyze", "--domain", "ellipsoid", "--coeffs", "1,2", "--dim", "3"],
    ["analyze", "--domain", "ellipsoid", "--coeffs", "nan,1"],
])
def test_sample_count_without_a_verdict_is_input_error(argv, tmp_path, capsys):
    assert run(argv + ["--output", str(tmp_path / "r.json")]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["sample", "analyze"])
def test_anchor_of_the_wrong_size_is_input_error(command, tmp_path, capsys):
    # the ball in C^2 takes an anchor of 2 or 4 coordinates
    out = tmp_path / "r.out"
    assert run([command, "--domain", "ball", "--anchor", "0,0,0", "--count",
                "5", "--output", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: anchor has 3 coordinates")
    assert not out.exists()


# beta at or below pi/2, and beta = inf, which passed a bare beta > pi/2 test
@pytest.mark.parametrize("argv", [
    ["analyze", "--beta", "1.0", "--t", "0.1", "--spc-count", "10"],
    ["analyze", "--beta", "inf", "--t", "0"],
    ["sweep", "--beta", "inf"],
    ["phi-check", "--beta", "inf"],
    ["sample", "--domain", "worm", "--beta", "inf"],
    ["verify-levi", "--beta", "inf"],
    # the central fiber's annulus ends e^(+-r/2) leave the normal doubles
    ["analyze", "--beta", "1000", "--t", "0"],
    ["analyze", "--beta", "1500", "--t", "0"],
])
def test_invalid_beta_is_input_error(argv, tmp_path, capsys):
    out = tmp_path / "r.out"
    assert run(argv + ["--output", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_worm_analyze_rejects_an_anchor(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["analyze", "--t", "0.05", "--spc-count", "50", "--anchor",
                "5,0,5,0", "--output", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: --anchor") and "index.WORM_ANCHOR" in err
    assert err.count("\n") == 1 and not out.exists()


def test_non_finite_criterion_samples_are_no_input_error(tmp_path):
    # at beta = 60 the realized extremal factor's criterion samples are not
    # finite, which the optimizer must treat as a failed realization.  The
    # invalid division warns, and the tests turn warnings into errors, so
    # the command runs as a user runs it: in its own process
    src = Path(cli.__file__).resolve().parents[1]
    out = tmp_path / "r.json"
    code = subprocess.run(
        [sys.executable, "-m", "dfindex", "analyze", "--t", "0", "--beta",
         "60", "--output", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True).returncode
    assert code == cli.EXIT_OK
    assert read_report(out)["df_lower"] <= math.pi / 120


def test_wide_opening_is_certified_without_warnings(tmp_path):
    # at beta = 30 the extremal factor keeps all 33 weak points, and the
    # conformal law screens out the Steinness candidate (S = inf past
    # beta = pi) before its jets can overflow; the command runs in its own
    # process with every RuntimeWarning an error
    src = Path(cli.__file__).resolve().parents[1]
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dfindex",
         "analyze", "--t", "0", "--beta", "30", "--output", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    data = read_report(out)
    assert data["null_count"] == 33
    assert data["df_lower"] == pytest.approx(math.pi / 60.0, rel=1e-5)
    assert data["df_lower"] <= math.pi / 60.0
    assert proc.stderr.splitlines() == [
        f"df_lower = {data['df_lower']:.6f}  s_upper = inf  null_count = 33  "
        f"spc = False"]


@pytest.mark.parametrize("flags, code, err", [
    (["--expr", "1e120*(abs2(z1)+abs2(z2)-1)", "--count", "20"],
     cli.EXIT_NUMERIC,
     "numerical consistency failure: Levi matrix is not finite\n"),
    (["--domain", "ellipsoid", "--coeffs", "1,1e200", "--count", "5"],
     cli.EXIT_INPUT,
     "error: complex gradient norm is not finite at a boundary point\n"),
])
def test_overflow_is_an_error_not_a_nan_report(flags, code, err, tmp_path,
                                               capsys):
    # a Levi matrix or a gradient norm that overflows would put NaN in the
    # report; the tests turn every RuntimeWarning into an error, so these
    # runs also show that nothing warns on the way
    out = tmp_path / "r.json"
    assert run(["analyze", *flags, "--output", str(out)]) == code
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_scaled_ball_below_overflow_keeps_index_one(tmp_path):
    out = tmp_path / "r.json"
    assert run(["analyze", "--expr", "1e100*(abs2(z1)+abs2(z2)-1)",
                "--count", "20", "--output", str(out)]) == cli.EXIT_OK
    data = read_report(out)
    assert (data["df_lower"], data["s_upper"]) == (1.0, 1.0)


def test_report_reader_rejects_non_finite_numbers(tmp_path):
    out = tmp_path / "r.json"
    for constant in ("NaN", "Infinity", "-Infinity"):
        out.write_text(f'{{"min_levi_eigenvalue": {constant}}}')
        with pytest.raises(ValueError, match="not JSON"):
            read_report(out)


def test_negative_seed_is_an_input_error(tmp_path, capsys):
    # every subcommand takes --seed, and schur-test and phi-check never
    # reach the ray design's own check, so the command line checks it first
    for argv in (["analyze", "--t", "0.05"], ["sweep"], ["sample"],
                 ["verify-levi"], ["schur-test"], ["phi-check"]):
        out = tmp_path / argv[0]
        assert run([*argv, "--seed", "-1", "--output", str(out)]) \
            == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error: --seed must be non-negative, got -1\n"
        assert not out.exists()
