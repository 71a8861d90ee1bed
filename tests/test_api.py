"""The exported surface: every name in a module's ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import ultracomb

MODULES = ["ultracomb"] + [f"ultracomb.{m.name}" for m in pkgutil.iter_modules(ultracomb.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []
