"""Write the output of a fixed set of seeded CLI commands, one file each.

Run it on two versions of the package and diff the directories; a
refactor that keeps seeded behaviour leaves no difference:

    PYTHONPATH=src python tools/cli_snapshot.py OUTDIR
    diff -r OLD_OUTDIR OUTDIR

Every command runs in-process through ``ultracomb.cli.main`` with a
fixed seed and small sizes (a few seconds in total).  The commands run
inside OUTDIR with relative paths, so the configurations embedded in
the outputs do not depend on where OUTDIR is.

Three files come from library calls instead.  No CLI command rebuilds an
ultrametric, so ``ultrametric.json`` holds the comb and placements
``comb_from_ultrametric`` returns for three seeded matrices.  No CLI
command prints clades, carrier masses or clonal intervals, so
``clades.json`` holds the clade bounds, ``population_spectrum`` masses,
``clonal_set`` intervals and ``assign_alleles`` labels of three seeded
combs with their mutation rain.  The population CSVs print rounded
estimates, so ``band.json`` holds the comb and rain of the Brownian band
sampler, ``_band_comb``, for a block of two replicates side by side at
three seeds and each of two eps, bit for bit.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from ultracomb import (IntensityModel, MutationMeasure, RandomSource, assign_alleles,
                       clonal_set, comb_from_ultrametric, population_spectrum, sample_cpp,
                       sample_cpp_fixed_width, sample_kingman_comb, scatter_mutations)
from ultracomb.cli import main
from ultracomb.spectrum import _band_comb

MODEL_SPEC = {"birth_rate": 2.0, "lifetime": "exponential(1)", "T": 1.5, "steps": 400}
# a fixed lifetime takes the solver's step-by-step loop, not the scan
FIXED_SPEC = {"birth_rate": 2.0, "lifetime": "fixed(0.7)", "T": 1.5, "steps": 400}
CONTOUR = {"breakpoints": [
    {"time": 0.0, "before": 0.0, "after": 3.0},
    {"time": 1.25, "before": 1.75, "after": 4.5},
    {"time": 2.0, "before": 3.75, "after": 5.0},
    {"time": 5.5, "before": 1.5, "after": 2.75},
]}
# the troughs before the jumps at 2 and 5 tie exactly: a multifurcation
TIED_CONTOUR = {"breakpoints": [
    {"time": 0.0, "before": 0.0, "after": 3.0},
    {"time": 2.0, "before": 1.0, "after": 4.0},
    {"time": 5.0, "before": 1.0, "after": 2.5},
    {"time": 6.0, "before": 1.5, "after": 3.0},
]}

COMMANDS = {
    "sample-kingman.json": ["sample", "--model", "kingman", "--n-teeth", "50",
                            "--seed", "7", "--reps", "3"],
    "sample-cpp-brownian.json": ["sample", "--model", "cpp-brownian", "--T", "1",
                                 "--eps", "0.01", "--seed", "8", "--reps", "3"],
    "sample-cpp-critical-bd.json": ["sample", "--model", "cpp-critical-bd", "--T", "1",
                                    "--seed", "9", "--reps", "3"],
    "sample-cpp-from-W.json": ["sample", "--model", "cpp-from-W", "--model-spec",
                               "model.json", "--T", "1.5", "--seed", "10", "--reps", "3"],
    "sample-padic.json": ["sample", "--model", "padic", "--p", "3", "--depth", "2"],
    "sample-splitting-jobs1.json": ["sample", "--model", "splitting", "--b", "1",
                                    "--lifetime", "exponential(1)", "--T", "2",
                                    "--seed", "3", "--reps", "6", "--jobs", "1"],
    "sample-splitting-jobs2.json": ["sample", "--model", "splitting", "--b", "1",
                                    "--lifetime", "exponential(1)", "--T", "2",
                                    "--seed", "3", "--reps", "6", "--jobs", "2"],
    # a horizon at which each tree grows a few hundred nodes
    "sample-splitting-large.json": ["sample", "--model", "splitting", "--b", "2",
                                    "--lifetime", "exponential(1)", "--T", "5",
                                    "--seed", "5", "--reps", "2"],
    "mutate.json": ["mutate", "--in", "sample-kingman.json", "--index", "1",
                    "--theta", "1", "--include-origin", "--seed", "4"],
    # no origin atoms: the rain that the clonal-window criterion uses
    "mutate-no-origin.json": ["mutate", "--in", "sample-kingman.json", "--index", "1",
                              "--theta", "1", "--seed", "5"],
    "spectrum-sample.csv": ["spectrum", "--mode", "sample", "--n", "5", "--theta", "1",
                            "--reps", "200", "--seed", "7"],
    "spectrum-sample-jobs2.csv": ["spectrum", "--mode", "sample", "--n", "5", "--theta", "1",
                                  "--reps", "200", "--seed", "7", "--jobs", "2"],
    "spectrum-population.csv": ["spectrum", "--mode", "population",
                                "--model", "cpp-critical-bd", "--theta", "1",
                                "--T", "20", "--q", "1", "--q", "2", "--reps", "20",
                                "--seed", "9"],
    "spectrum-population-jobs2.csv": ["spectrum", "--mode", "population",
                                      "--model", "cpp-critical-bd", "--theta", "1",
                                      "--T", "20", "--q", "1", "--q", "2", "--reps", "20",
                                      "--seed", "9", "--jobs", "2"],
    "spectrum-population-brownian.csv": ["spectrum", "--mode", "population",
                                         "--model", "cpp-brownian", "--theta", "1",
                                         "--T", "20", "--q", "1", "--q", "2", "--reps", "20",
                                         "--seed", "9"],
    "solve-w.csv": ["solve-w", "--model", "bd", "--b", "2", "--death-rate", "1",
                    "--T", "1", "--steps", "500"],
    "solve-w-spec.csv": ["solve-w", "--model-spec", "model-fixed.json"],
    "treecode.nwk": ["treecode", "--in", "contour.json", "--to", "newick"],
    "treecode-tied.nwk": ["treecode", "--in", "contour-tied.json", "--to", "newick"],
    "treecode-comb.json": ["treecode", "--in", "contour.json", "--to", "comb", "--T", "2.5"],
}


def _comb_matrix(heights: np.ndarray) -> np.ndarray:
    """Distances between the gaps of a comb with these tooth heights."""
    n = heights.size + 1
    d = np.zeros((n, n))
    for i in range(n - 1):
        d[i, i + 1:] = 2.0 * np.maximum.accumulate(heights[i:])
    return d + d.T


def ultrametric_rebuilds() -> dict:
    """Combs and placements rebuilt from an exact random-shape matrix with
    tied heights, a caterpillar with unit masses, and a matrix accepted
    only within the validation tolerance."""
    gen = np.random.default_rng(20)
    n = 40
    perm = gen.permutation(n)
    tied = _comb_matrix(np.round(gen.uniform(0.0, 4.0, n - 1)) / 4.0 + 0.25)[np.ix_(perm, perm)]
    near = tied.copy()
    near[0, 1] = near[1, 0] = tied[0, 1] * (1.0 - 1e-10)  # single linkage joins 0 and 1 first
    near[2, 3] *= 1.0 + 5e-10  # symmetric only within the tolerance
    cases = {"exact-tied": (tied, None),
             "caterpillar-unit-masses": (_comb_matrix(np.arange(n - 1.0, 0.0, -1.0)), np.ones(n)),
             "within-tolerance": (near, None)}
    out = {}
    for name, (d, masses) in cases.items():
        comb, placements = comb_from_ultrametric(d, masses)
        out[name] = {"comb": comb.to_dict(), "placements": placements}
    return out


# name -> (comb draw, whether the rain includes the origin branch); the
# two without origin atoms leave clonal intervals
CLADE_CASES = {
    "kingman-300": (lambda rng: sample_kingman_comb(300, rng), True),
    "brownian-eps-1e-2": (lambda rng: sample_cpp(IntensityModel.brownian(1.0), 10.0, 1e-2,
                                                 rng).comb, False),
    "critical-bd-window": (lambda rng: sample_cpp_fixed_width(IntensityModel.critical_bd(),
                                                              20.0, 1e-3, rng), False),
}


def clade_readings() -> dict:
    """Every clade reader's output on three seeded combs with a theta = 1
    rain, labels taken at both ends, three teeth and 40 seeded points."""
    out = {}
    for seed, (name, (draw, include_origin)) in enumerate(CLADE_CASES.items(), start=31):
        rng = RandomSource(seed)
        comb = draw(rng)
        ms = scatter_mutations(comb, MutationMeasure.homogeneous(1.0), include_origin, rng)
        start, end = ms.clade_bounds(comb)
        a = comb.interval_length
        pts = np.concatenate(([0.0, a], comb.positions[:3], rng.gen.random(40) * a))
        out[name] = {"n_teeth": comb.n_teeth, "atoms": len(ms),
                     "clade_bounds": [start.tolist(), end.tolist()],
                     "population_masses": population_spectrum(comb, ms).masses,
                     "clonal_intervals": clonal_set(comb, ms).intervals,
                     "allele_labels": assign_alleles(comb, ms, pts)[1]}
    return out


def band_draws() -> dict:
    """``to_dict`` of the comb and ``to_list`` of the rain that a block of two
    Brownian population replicates draws at T = 20 and theta = 1, for three
    seeds at each of two eps (JSON floats round-trip)."""
    model, measure = IntensityModel.brownian(1.0), MutationMeasure.homogeneous(1.0)
    out = {}
    for eps in (1e-2, 1e-3):
        for seed in (51, 52, 53):
            comb, ms = _band_comb(model, measure, 20.0, eps, 2, RandomSource(seed).gen)
            out[f"eps-{eps:g}-seed-{seed}"] = {"comb": comb.to_dict(), "mutations": ms.to_list()}
    return out


def snapshot(outdir: str) -> int:
    """Run every command into ``outdir``; return the number that failed."""
    os.makedirs(outdir, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(outdir)
    failed = 0
    try:
        for name, doc in (("model.json", MODEL_SPEC), ("model-fixed.json", FIXED_SPEC),
                          ("contour.json", CONTOUR), ("contour-tied.json", TIED_CONTOUR)):
            with open(name, "w") as fh:
                json.dump(doc, fh, sort_keys=True)
        for name, argv in COMMANDS.items():
            code = main([*argv, "--out", name])
            if code != 0:
                print(f"{name}: exit code {code}", file=sys.stderr)
                failed += 1
        with open("ultrametric.json", "w") as fh:
            json.dump(ultrametric_rebuilds(), fh, sort_keys=True)
        with open("clades.json", "w") as fh:
            json.dump(clade_readings(), fh, sort_keys=True)
        with open("band.json", "w") as fh:
            json.dump(band_draws(), fh, sort_keys=True)
    finally:
        os.chdir(cwd)
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_snapshot.py OUTDIR")
    sys.exit(1 if snapshot(sys.argv[1]) else 0)
