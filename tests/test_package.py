"""The package root: every public name resolves to its home module's object,
no module imports ``fractions`` (the closed forms stay in integers), and
every definition is called or named."""

import ast
import importlib
import pathlib
import re
from collections import Counter

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


def test_every_definition_is_referenced_or_named():
    """Each top-level function and class and each public method of the
    package is referred to elsewhere in it, is in ``__all__`` or is named in
    backticks in the README (`name`, `module.name` or `Class.method`); its
    references to itself do not count, and dunder names are exempt."""
    readme = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text(encoding="utf-8")
    named = set(toricg.__all__)
    named |= {span.split(".")[-1] for span in re.findall(r"`([\w.]+)(?:\(\))?`", readme)}
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(toricg.__file__).parent.glob("*.py"))]

    def refs(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    everywhere = sum(map(refs, trees), Counter())
    kinds = (ast.FunctionDef, ast.ClassDef)
    defs = [d for tree in trees for d in tree.body if isinstance(d, kinds)]
    defs += [m for d in defs if isinstance(d, ast.ClassDef) for m in d.body
             if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    uncalled = [d.name for d in defs
                if not (d.name.startswith("__") and d.name.endswith("__"))
                and d.name not in named and everywhere[d.name] == refs(d)[d.name]]
    assert not uncalled, "referred to nowhere else and not named: " + ", ".join(uncalled)
