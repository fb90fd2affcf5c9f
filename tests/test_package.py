import importlib
import os
import subprocess
import sys

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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize alone costs about 200 ms and 23 MB at start-up
    src = os.path.dirname(os.path.dirname(dfindex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, dfindex.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_expression_analysis_leaves_scipy_unloaded(tmp_path):
    # scipy.special serves only the worm profile, and costs about 25 MB
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


def test_central_fiber_leaves_scipy_special_unloaded(tmp_path):
    # the central fiber's ramp arguments all underflow exp(-1/u); a deformed
    # fiber's boundary rays reach past the annulus and need E1
    src = os.path.dirname(os.path.dirname(dfindex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import json, sys\n"
        "from dfindex import cli\n"
        "out = sys.argv[1]\n"
        "rc = cli.main(['analyze', '--t', '0', '--annulus-count', '5',\n"
        "               '--output', out])\n"
        "print(rc, json.load(open(out))['null_count'],\n"
        "      'scipy.special' in sys.modules)\n"
        "rc = cli.main(['analyze', '--t', '0.3', '--spc-count', '20',\n"
        "               '--output', out])\n"
        "print(rc, json.load(open(out))['spc'], 'scipy.special' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.json")],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.strip().splitlines() == ["0 5 False", "0 True True"]
