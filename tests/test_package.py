import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dfindex

MODULES = ("cli", "dangelo", "domains", "exprparse", "index", "jets", "levi")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"dfindex.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_package_exports_resolve():
    missing = [attr for attr in dfindex.__all__ if not hasattr(dfindex, attr)]
    assert missing == []


def test_only_jets_converts_real_jets():
    # jets.wirtinger is the one real-to-complex conversion: the Levi and
    # D'Angelo layers read no real jet tensor, and no module but jets
    # broadcasts a singleton batch axis
    for path in sorted(Path(dfindex.__file__).resolve().parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
        if path.stem in ("dangelo", "levi"):
            assert not names & {"d1", "d2", "d3"}, path.name
        if path.stem != "jets":
            assert "broadcast_to" not in names, path.name


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    pyproject = Path(dfindex.__file__).resolve().parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]


def test_phi_check_leaves_scipy_unloaded(tmp_path):
    # its quadrature is numpy's Gauss-Legendre rule, not scipy's quad
    src = os.path.dirname(os.path.dirname(dfindex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import json, sys\n"
        "from dfindex import cli\n"
        "rc = cli.main(['phi-check', '--output', sys.argv[1]])\n"
        "print(rc, json.load(open(sys.argv[1]))['passed'],\n"
        "      any(m.split('.')[0] == 'scipy' for m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "p.json")],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.strip() == "0 True False"


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize alone costs about 200 ms and 23 MB at start-up
    src = os.path.dirname(os.path.dirname(dfindex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, dfindex.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_expression_analysis_leaves_scipy_unloaded(tmp_path):
    # scipy.special and scipy.optimize cost about 20 MB each at start-up
    src = os.path.dirname(os.path.dirname(dfindex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from dfindex import cli\n"
        "heavy = ('scipy.special', 'scipy.optimize')\n"
        "print([m for m in heavy if m in sys.modules])\n"
        "rc = cli.main(['analyze', '--expr', 'abs2(z1)+2*abs2(z2)-1',\n"
        "               '--count', '20', '--output', sys.argv[1]])\n"
        "print(rc, [m for m in heavy if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.json")],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.strip().splitlines() == ["[]", "0 []"]


def test_worm_fibers_leave_scipy_unloaded(tmp_path):
    # the worm profile is plain numpy; scipy.special alone costs about
    # 20 MB at start-up
    src = os.path.dirname(os.path.dirname(dfindex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import json, sys\n"
        "from dfindex import cli\n"
        "out, csv = sys.argv[1], sys.argv[2]\n"
        "def scipy_loaded():\n"
        "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "rc = cli.main(['analyze', '--t', '0', '--annulus-count', '5',\n"
        "               '--output', out])\n"
        "print(rc, json.load(open(out))['null_count'], scipy_loaded())\n"
        "rc = cli.main(['analyze', '--t', '0.3', '--spc-count', '20',\n"
        "               '--output', out])\n"
        "print(rc, json.load(open(out))['spc'], scipy_loaded())\n"
        "rc = cli.main(['sweep', '--spc-count', '20', '--output', csv])\n"
        "print(rc, len(open(csv).readlines()), scipy_loaded())\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.json"),
                          str(tmp_path / "sweep.csv")],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.strip().splitlines() == ["0 5 False", "0 True False",
                                        "0 5 False"]


def test_analysis_paths_leave_numpy_random_unloaded(tmp_path):
    # rays and realness points come from dfindex._rng; importing
    # numpy.random costs about 5 MB at start-up.  schur-test still uses it.
    src = os.path.dirname(os.path.dirname(dfindex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import os, sys\n"
        "from dfindex import cli\n"
        "runs = [['analyze', '--t', '0.05', '--spc-count', '20'],\n"
        "        ['analyze', '--expr', 'abs2(z1)+2*abs2(z2)-1',\n"
        "         '--count', '20'],\n"
        "        ['sweep', '--spc-count', '20'],\n"
        "        ['sample', '--count', '20'],\n"
        "        ['verify-levi', '--count', '20']]\n"
        "for k, argv in enumerate(runs):\n"
        "    out = os.path.join(sys.argv[1], str(k))\n"
        "    rc = cli.main(argv + ['--output', out])\n"
        "    print(argv[0], rc, 'numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.strip().splitlines() == [
        "analyze 0 False", "analyze 0 False", "sweep 0 False",
        "sample 0 False", "verify-levi 0 False"]


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # reporting a falsifying example makes hypothesis import libcst, which
    # warns through mypy_extensions; this project's warning filters must not
    # turn that into an INTERNALERROR that ends the run
    pyproject = Path(dfindex.__file__).resolve().parents[2] / "pyproject.toml"
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n"
        "\n"
        "def test_passes():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
