"""The package's export lists name only what exists."""

import importlib
import pkgutil

import pytest

import invartest

MODULES = ["invartest"] + [f"invartest.{m.name}" for m in pkgutil.iter_modules(invartest.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
