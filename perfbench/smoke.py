"""The benchmark's own tests.

    python3 perfbench/smoke.py

Runs every workload for a few ops, untraced and traced, and asserts
that each metric named in BENCHMARK.json is emitted with a valid name
and its declared unit, that outputs check out, and that the traced self
times of an op sum to no more than its wall time.  Then feeds each
checker corrupted outputs and expects it to fail, and checks that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
import ultracomb as uc  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# few ops, but enough for a traced block after the first untraced one
SMOKE_OPS = {"esf": 800, "population": 12, "genealogy": 4}


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units), set(result["metrics"]) ^ set(units)
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert metric["unit"] == units[name], (name, metric["unit"], units[name])
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


def smoke_runs(spec: dict) -> None:
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (False, True):
            record = run.run_workload(name, seed=3, seconds=60, trace=trace, setups=1,
                                      max_ops=SMOKE_OPS[name])
            check_result(record["result"], spec["per_layer" if trace else "end_to_end"])
            if trace:
                assert record["traced_ops"] >= 1, record
                assert record["max_self_over_wall"] <= 1.0, record["max_self_over_wall"]
            print(f"ok  {name} trace={int(trace)}: {record['result']['attempted']} ops")


def expect_fail(what: str, fails: list[str]) -> None:
    assert fails, f"checker accepted corrupted output: {what}"
    print(f"ok  corrupted {what} -> {fails[0]}")


def corrupted_outputs(workdir: str) -> None:
    esf = workloads.Esf(5, workdir)
    part, spec = esf.op(0)
    assert esf.check((part, spec)) == []
    bad = uc.FrequencySpectrum.from_counts([spec.counts[0] + 1, *spec.counts[1:]])
    expect_fail("esf spectrum", esf.check((part, bad)))
    esf.freq = {(5, 0, 0, 0, 0): 10_000}
    expect_fail("esf spectrum frequencies", esf.finish())

    pop = workloads.Population(5, workdir)
    out = pop.op(0)
    assert pop.check(out) == []
    rows = list(out["brownian"])
    rows[0] = dataclasses.replace(rows[0], estimate=math.nan)
    expect_fail("population estimate", pop.check(dict(out, brownian=rows)))
    for k in range(1, pop.MIN_RUN_OPS):
        pop.check(pop.op(k))
    assert pop.finish() == [], pop.finish()
    pop.estimates["critical-bd"] = [[(e + 0.1, se) for e, se in row]
                                    for row in pop.estimates["critical-bd"]]
    fails = pop.finish()
    assert all(f.startswith("critical-bd") for f in fails), fails
    expect_fail("population run estimates", fails)

    gen = workloads.Genealogy(5, workdir)
    out = gen.op(0)
    assert gen.check(out) == [], gen.check(out)
    rebuilt, placements = out["rand"]
    heights = rebuilt.heights.copy()
    heights[5] = math.nextafter(heights[5], 0.0)
    moved = uc.Comb.from_arrays(rebuilt.interval_length, rebuilt.origin_height,
                                rebuilt.positions, heights)
    expect_fail("rebuilt comb", gen.check(dict(out, rand=(moved, placements))))
    stretched = uc.parse_newick(out["cat_newick"].replace(":", ":1", 1))
    expect_fail("Newick round trip", gen.check(dict(out, cat_parsed=stretched)))
    one_leaf = uc.Tree(uc.TreeNode(0.0, children=[uc.TreeNode(1.0, "0")]))
    expect_fail("contour tree", gen.check(dict(out, contour_tree=one_leaf)))
    horizon = out["inputs"]["spec"]["T"]
    bad_cli = str(Path(workdir) / "smoke-cli.json")
    teeth = [{"pos": 0.5, "h": horizon}]
    with open(bad_cli, "w") as fh:
        json.dump({"results": [{"teeth": teeth}] * gen.CLI_REPS}, fh)
    expect_fail("cli output", gen.check_cli(0, bad_cli, horizon))
    expect_fail("cli exit code", gen.check_cli(3, bad_cli, horizon))


def refuses_without_sources(workdir: str) -> None:
    bare = Path(workdir) / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "esf", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  refuses to run without sources (exit {proc.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
        corrupted_outputs(workdir)
        refuses_without_sources(workdir)
    smoke_runs(spec)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
