"""Write the output of a fixed set of seeded CLI commands, one file each.

Run it on two versions of the package and diff the directories; a
refactor that keeps seeded behaviour leaves no difference:

    PYTHONPATH=src python tools/cli_snapshot.py OUTDIR
    diff -r OLD_OUTDIR OUTDIR

Every command runs in-process through ``ultracomb.cli.main`` with a
fixed seed and small sizes (a few seconds in total).  The commands run
inside OUTDIR with relative paths, so the configurations embedded in
the outputs do not depend on where OUTDIR is.
"""

from __future__ import annotations

import json
import os
import sys

from ultracomb.cli import main

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
    "spectrum-sample.csv": ["spectrum", "--mode", "sample", "--n", "5", "--theta", "1",
                            "--reps", "200", "--seed", "7"],
    "spectrum-population.csv": ["spectrum", "--mode", "population",
                                "--model", "cpp-critical-bd", "--theta", "1",
                                "--T", "20", "--q", "1", "--q", "2", "--reps", "20",
                                "--seed", "9"],
    "spectrum-population-jobs2.csv": ["spectrum", "--mode", "population",
                                      "--model", "cpp-critical-bd", "--theta", "1",
                                      "--T", "20", "--q", "1", "--q", "2", "--reps", "20",
                                      "--seed", "9", "--jobs", "2"],
    "solve-w.csv": ["solve-w", "--model", "bd", "--b", "2", "--death-rate", "1",
                    "--T", "1", "--steps", "500"],
    "solve-w-spec.csv": ["solve-w", "--model-spec", "model-fixed.json"],
    "treecode.nwk": ["treecode", "--in", "contour.json", "--to", "newick"],
    "treecode-tied.nwk": ["treecode", "--in", "contour-tied.json", "--to", "newick"],
    "treecode-comb.json": ["treecode", "--in", "contour.json", "--to", "comb", "--T", "2.5"],
}


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
    finally:
        os.chdir(cwd)
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_snapshot.py OUTDIR")
    sys.exit(1 if snapshot(sys.argv[1]) else 0)
