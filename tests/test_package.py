import importlib

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
