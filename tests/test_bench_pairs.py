"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
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
