"""The package root: every public name resolves to its home module's object."""

import importlib

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
