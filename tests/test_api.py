"""The exported surface: every name in a module's ``__all__`` resolves,
importing the package stays light, scalar parameters reject NaN and
infinite values, and the names the benchmark in ``perfbench/`` traces
or calls still exist."""

import importlib
import importlib.util
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    # the clonal exponent and the Brownian spectrum target need them.  The
    # CLI starts a process pool only for more than one shard, so importing
    # it loads no multiprocessing either
    env = {**os.environ, "PYTHONPATH": str(Path(ultracomb.__file__).resolve().parents[1])}
    code = ("import sys, ultracomb, ultracomb.cli; "
            "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')])")
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


def test_benchmark_surface(monkeypatch):
    # perfbench/spans.py looks every traced function and method up by name
    # (a KeyError or AttributeError if one is gone); perfbench/smoke.py
    # makes the calls below
    script = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", script)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer in spans.LAYERS:  # the benchmark imports them all
        importlib.import_module(f"ultracomb.{layer}")
    assert spans.Recorder(ultracomb)._patches
    uc = ultracomb
    p, h = np.array([0.25, 0.5]), np.array([1.0, 2.0])
    assert uc.Comb.from_arrays(1.0, 3.0, p, h) == uc.Comb(1.0, 3.0, p, h)
    tree = uc.Tree(uc.TreeNode(0.0, children=[uc.TreeNode(1.0, "0"), uc.TreeNode(1.0, "1")]))
    assert len(tree.nodes()) == 3
    assert [leaf.label for leaf in tree.leaves()] == ["0", "1"]
    assert uc.FrequencySpectrum.from_counts([1, 2]).counts == (1, 2)
    # perfbench/workloads.py and the mutation.assign hook in perfbench/spans.py
    # read these
    part = uc.sample_kingman_allelic_partition(5, 1.0, uc.RandomSource(1), n_teeth=50)
    assert part.n == 5 and sorted(i for b in part.blocks for i in b) == list(range(5))
    counts = uc.spectrum_of_partition(part).counts
    assert hash(counts) == hash(tuple(counts)) and all(type(c) is int for c in counts)
    assert sum((k + 1) * c for k, c in enumerate(counts)) == 5
    comb = uc.Comb(1.0, 3.0, p, h)
    atom_ids = uc.assign_alleles(comb, uc.MutationSet(np.array([0]), np.array([0.5])),
                                 [0.1, 0.3, 0.9])[1]
    assert type(atom_ids) is list and atom_ids == [None, 0, None]  # None: clonal
    assert len(uc.ball_partition(comb, [0.1, 0.3, 0.9], 3.0).blocks) == 2
