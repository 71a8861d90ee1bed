"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def pairs_of(base, change, metric):
    return [{"base": {metric: b}, "change": {metric: c}} for b, c in zip(base, change)]


def test_a_lower_is_better_metric_resolves_when_medians_part_by_more_than_the_base_iqr():
    base = [20.0, 21.0, 22.0, 23.0, 24.0]  # median 22, quartiles 21 and 23: IQR 2
    change = [12.0, 13.0, 22.0, 11.0, 25.0]  # median 13
    out = bench_pairs.summarize(pairs_of(base, change, "op_p50_ms"), {"op_p50_ms": "lower"})
    row = out["op_p50_ms"]
    assert row["base"] == {"median": 22.0, "q1": 21.0, "q3": 23.0}
    assert row["change"] == {"median": 13.0, "q1": 12.0, "q3": 22.0}
    # pairs 1, 2 and 4 are better, pair 3 ties (neither), pair 5 worse
    assert (row["change_wins"], row["base_wins"]) == (3, 1)
    assert row["resolved"] and row["better"] == "lower"


def test_a_higher_is_better_metric_within_the_base_iqr_is_unresolved():
    base = [50.0, 54.0, 56.0, 58.0]  # quartiles 53 and 56.5, median 55: IQR 3.5
    change = [51.0, 55.0, 57.0, 59.0]  # median 56, one above the base
    row = bench_pairs.summarize(pairs_of(base, change, "ops_per_s"),
                                {"ops_per_s": "higher"})["ops_per_s"]
    assert row["base"]["q1"] == pytest.approx(53.0) and row["base"]["q3"] == pytest.approx(56.5)
    assert (row["change_wins"], row["base_wins"]) == (4, 0)
    assert not row["resolved"]  # every pair better, but by less than the base's spread


def test_every_declared_metric_is_summarized():
    pairs = [{"base": {"a": 1.0, "b": 2.0}, "change": {"a": 1.0, "b": 1.0}}] * 3
    out = bench_pairs.summarize(pairs, {"a": "lower", "b": "lower"})
    assert set(out) == {"a", "b"}
    assert (out["a"]["change_wins"], out["a"]["base_wins"], out["a"]["resolved"]) == (0, 0, False)
    assert (out["b"]["change_wins"], out["b"]["resolved"]) == (3, True)


def test_setup_only_pairs_follow_the_timed_ones(monkeypatch, tmp_path):
    runs = []
    names = [m["name"] for m in
             json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run(checkout, workload, seed, seconds):
        runs.append((checkout == bench_pairs.ROOT, seed, seconds))
        value = 2.0 if checkout == bench_pairs.ROOT else 3.0
        return {"metrics": {name: {"value": value} for name in names}, "correct": True}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "c0ffee" if args[0] == "rev-parse" else "")
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--base", "HEAD", "--workload", "esf", "--pairs", "3",
                             "--seconds", "35", "--seed", "7", "--out", str(out)]) == 0
    # three timed pairs, then three 1 s pairs on the same seeds, each side
    # first in turn
    assert [(s, t) for _, s, t in runs] == [(s, t) for t in (35, 1.0) for s in (7, 7, 8, 8, 9, 9)]
    assert [change for change, _, _ in runs] == [False, True, True, False, False, True] * 2
    entry = json.loads(out.read_text())["workloads"]["esf"]
    setup = entry["setup_only"]
    assert set(setup) == {"seconds", "pairs", "summary"} and setup["seconds"] == 1.0
    assert [p["seed"] for p in setup["pairs"]] == [p["seed"] for p in entry["pairs"]] == [7, 8, 9]
    assert [p["first"] for p in setup["pairs"]] == ["base", "change", "base"]
    assert set(setup["summary"]) == set(entry["summary"])
    assert setup["summary"]["setup_s"]["change_wins"] == 3
