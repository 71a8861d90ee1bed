"""The exported surface: every name in a module's ``__all__`` resolves,
importing the package stays light, and scalar parameters reject NaN and
infinite values."""

import importlib
import math
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


NONFINITE_PARAMETERS = {
    "MutationMeasure.homogeneous": lambda x: ultracomb.MutationMeasure.homogeneous(x),
    "IntensityModel.brownian": lambda x: ultracomb.IntensityModel.brownian(x),
    "TimeChange.exponential_decay": lambda x: ultracomb.TimeChange.exponential_decay(x),
    "sample_cpp_fixed_width": lambda x: ultracomb.sample_cpp_fixed_width(
        ultracomb.IntensityModel.critical_bd(), x, 0.1, ultracomb.RandomSource(1)),
    "esf_probability": lambda x: ultracomb.esf_probability(x, [1]),
    "sample_esf_spectra": lambda x: ultracomb.sample_esf_spectra(x, 3, 2, ultracomb.RandomSource(1)),
    "gem_ranked_oracle": lambda x: ultracomb.gem_ranked_oracle(x, 3, 2, ultracomb.RandomSource(1)),
    "clonal_laplace_exponent": lambda x: ultracomb.clonal_laplace_exponent(
        ultracomb.IntensityModel.critical_bd().tail, ultracomb.MutationMeasure.homogeneous(1.0), x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("entry", sorted(NONFINITE_PARAMETERS))
def test_scalar_parameters_must_be_finite_and_in_range(entry, value):
    with pytest.raises(ultracomb.ValidationError):
        NONFINITE_PARAMETERS[entry](value)
