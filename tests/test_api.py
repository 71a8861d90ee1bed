"""The exported surface: every name in a module's ``__all__`` resolves,
and importing the package stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ultracomb

MODULES = ["ultracomb"] + [f"ultracomb.{m.name}" for m in pkgutil.iter_modules(ultracomb.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


def test_import_defers_slow_scipy_modules():
    # scipy.integrate and scipy.special cost most of the import time; only
    # the clonal exponent and the Brownian spectrum target need them
    env = {**os.environ, "PYTHONPATH": str(Path(ultracomb.__file__).resolve().parents[1])}
    code = ("import sys, ultracomb; "
            "print([m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
