"""The package root: every public name resolves to its home module's object,
and no module imports ``fractions``: the closed forms stay in integers."""

import ast
import importlib
import pathlib

import pytest

import toricg


@pytest.mark.parametrize("name", toricg.__all__)
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(toricg, name)
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from toricg import *", namespace)
    assert all(namespace[name] is getattr(toricg, name) for name in toricg.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        toricg.nosuch


def test_no_module_imports_fractions():
    """Read with ``ast``, so that a rational chain cannot come back unnoticed."""
    for path in sorted(pathlib.Path(toricg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "fractions" for m in modules), path.name
