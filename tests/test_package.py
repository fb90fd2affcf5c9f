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
