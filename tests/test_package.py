"""The package root: every public name resolves to its home module's object,
the value types copy and pickle, no module imports ``fractions`` (the
closed forms stay in integers), no size argument is checked by hand, and
every definition is called or named."""

import ast
import copy
import importlib
import pathlib
import pickle
import re
from collections import Counter

import pytest

import toricg
from toricg import buildingset, compat, ints, nestohedra, parking, perms, polyvec, series, words


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


@pytest.mark.parametrize("make", [
    lambda: polyvec.IntPoly((1, 2)),
    lambda: series.TruncSeries(("t",), 4, {(0,): polyvec.IntPoly((1,)), (3,): polyvec.X}),
    lambda: parking.dfs_tree((1, 1, 2)),
    lambda: compat.nc_from_text("1,2,3"),
    lambda: nestohedra.named_family("permutahedron", 2),
    lambda: perms.fs_tree((2, 1, 4, 3, 5)),
], ids=["IntPoly", "TruncSeries", "ParkingTree", "NoncrossingPartition", "BuildingSet", "FSTree"])
def test_value_types_copy_and_pickle_through_the_constructor(make):
    """All but BuildingSet and FSTree raised "AttributeError: <type> is
    immutable"; FSTree copied node by node, and recursed once per level.
    Every field refuses assignment, so the value stays equal to a fresh
    build and a set holding it (TruncSeries is unhashable) still finds it;
    FSTree took ``t.label = 9``, and the set then lost it."""
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
    hashable = type(value).__hash__ is not None
    held = {value} if hashable else set()
    for name in type(value).__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, 9)
    assert value == make() and (not hashable or value in held)


def test_moved_names_keep_their_old_homes():
    """The shared integer helpers moved to ``ints`` and BuildingSet to
    ``buildingset``; the modules that held them still name the same objects."""
    assert nestohedra.BuildingSet is buildingset.BuildingSet
    for name in ("catalan", "read_int", "read_ints", "set_mask"):
        assert getattr(words, name) is getattr(ints, name)
    assert perms.perm_to_text is parking.fn_to_text is ints.ints_to_text


def test_no_module_imports_fractions():
    """Read with ``ast``, so that a rational chain cannot come back unnoticed."""
    for path in sorted(pathlib.Path(toricg.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "fractions" for m in modules), path.name


def _hand_size_checks(src: pathlib.Path) -> list[str]:
    """Each ``if <name> < <int literal>:`` under ``src`` whose body raises
    PreconditionError, as ``module.py:line name``."""
    sites = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.If) or not isinstance(node.test, ast.Compare):
                continue
            test = node.test
            bound = test.comparators[0]
            if (isinstance(test.left, ast.Name) and isinstance(test.ops[0], ast.Lt)
                    and len(test.ops) == 1 and isinstance(bound, ast.Constant)
                    and type(bound.value) is int
                    and any(isinstance(s, ast.Raise) and isinstance(s.exc, ast.Call)
                            and getattr(s.exc.func, "id", None) == "PreconditionError"
                            for s in node.body)):
                sites.append(f"{path.name}:{node.lineno} {test.left.id}")
    return sites


def test_no_size_is_checked_by_hand():
    """A size argument is checked by ``errors.require_size``, the one
    owner of the rule and of its message; read with ``ast``."""
    sites = _hand_size_checks(pathlib.Path(toricg.__file__).parent)
    assert not sites, "size checked by hand, use require_size: " + ", ".join(sites)


def _bound(fn) -> set[str]:
    """The parameters of a function and the names it stores to."""
    args = fn.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return {a.arg for a in params if a} | {
        n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _refs(node, classes, out=None, shadowed=frozenset()) -> Counter:
    """The references under ``node``: a loaded name by itself unless an
    enclosing function binds it, a loaded attribute by its name, and
    ``Cls.name`` for a class ``Cls`` in ``classes`` by (Cls, name)."""
    out = Counter() if out is None else out
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        shadowed = shadowed | _bound(node)
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in shadowed:
            out[node.id] += 1
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        owner = node.value.id if isinstance(node.value, ast.Name) else None
        out[(owner, node.attr) if owner in classes else node.attr] += 1
    for child in ast.iter_child_nodes(node):
        _refs(child, classes, out, shadowed)
    return out


def _unreferenced_definitions(src: pathlib.Path, named: set[str]) -> list[str]:
    """The top-level functions and classes and the public methods under
    ``src`` that nothing else there refers to and ``named`` lacks; a method
    ``m`` of class ``C`` is referred to by ``x.m`` or by ``C.m``, never by
    ``D.m`` for another class ``D`` of ``src``, and dunders are exempt."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.rglob("*.py"))]
    tops = [d for tree in trees for d in tree.body if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
    classes = {d.name for d in tops if isinstance(d, ast.ClassDef)}
    everywhere = Counter()
    for tree in trees:
        _refs(tree, classes, everywhere)
    defs = [(d.name, (d.name,), d) for d in tops]
    defs += [(f"{c.name}.{m.name}", (m.name, (c.name, m.name)), m)
             for c in tops if isinstance(c, ast.ClassDef) for m in c.body
             if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return [label for label, keys, d in defs
            if not (d.name.startswith("__") and d.name.endswith("__")) and d.name not in named
            and all(everywhere[k] == _refs(d, classes)[k] for k in keys)]


def test_every_definition_is_referenced_or_named():
    """Each top-level function and class and each public method of the
    package is referred to elsewhere in it, is in ``__all__`` or is named in
    backticks in the README (`name`, `module.name` or `Class.method`); its
    references to itself do not count, nor does a name that a parameter or
    local shadows, or another class's method of the same name."""
    readme = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text(encoding="utf-8")
    named = set(toricg.__all__)
    named |= {span.split(".")[-1] for span in re.findall(r"`([\w.]+)(?:\(\))?`", readme)}
    uncalled = _unreferenced_definitions(pathlib.Path(toricg.__file__).parent, named)
    assert not uncalled, "referred to nowhere else and not named: " + ", ".join(uncalled)
