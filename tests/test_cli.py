import json
import math

import pytest

from dfindex import cli


def run(argv):
    return cli.main(argv)


def load_without_stamp(path):
    data = json.loads(path.read_text())
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
        == {"min_levi_eigenvalue", "spc_samples"}


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
    data = json.loads(json_out.read_text())
    assert len(data["reports"]) == 2
    assert data["reports"][1]["spc"] is True


# -- verification subcommands -----------------------------------------------------------

def test_verify_levi_passes(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify-levi", "--count", "40", "--t", "0,0.3",
                "--output", str(out)]) == cli.EXIT_OK
    data = json.loads(out.read_text())
    assert all(r["passed"] for r in data["results"])
    assert max(r["max_rel_error"] for r in data["results"]) < cli.LEVI_VERIFY_TOL


def test_schur_suite_passes(tmp_path):
    out = tmp_path / "s.json"
    assert run(["schur-test", "--count", "60", "--output", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["passed"] is True


def test_phi_check_passes(tmp_path):
    out = tmp_path / "p.json"
    assert run(["phi-check", "--output", str(out)]) == cli.EXIT_OK
    data = json.loads(out.read_text())
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


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("count 4\n")
    assert run(["sample", "--config", str(cfg)]) == cli.EXIT_INPUT


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


def test_invalid_beta_is_input_error(tmp_path):
    assert run(["analyze", "--beta", "1.0", "--t", "0.1", "--spc-count", "10",
                "--output", str(tmp_path / "r.json")]) == cli.EXIT_INPUT
