"""End-to-end command line behaviour: artifacts, determinism, exit codes."""

import concurrent.futures
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ultracomb
from ultracomb import Comb, ContourFunction, cli
from ultracomb.cli import _shard, main
from ultracomb.spectrum import _POP_BLOCK


def run(tmp_path, *argv):
    return main(list(argv))


def test_padic_sample(tmp_path):
    out = tmp_path / "padic.json"
    assert main(["sample", "--model", "padic", "--p", "3", "--depth", "2",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["results"][0]["teeth"]) == 8
    assert doc["config"]["model"] == "padic"


def test_sample_requires_seed(tmp_path, capsys):
    assert main(["sample", "--model", "kingman", "--out", str(tmp_path / "x.json")]) == 2
    assert "seed" in capsys.readouterr().err


def test_sample_reps_and_killing(tmp_path):
    out = tmp_path / "cpp.json"
    assert main(["sample", "--model", "cpp-critical-bd", "--T", "1", "--seed", "3",
                 "--reps", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["results"]) == 3
    for item in doc["results"]:
        Comb.from_dict(item)  # parses as a comb
        assert item["killing_height"] > 1.0


def test_solve_w_yule(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["solve-w", "--model", "yule", "--b", "1", "--T", "1",
                 "--steps", "10000", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "t,W,nu_tail"
    t, w, nu = map(float, lines[-1].split(","))
    assert t == 1.0
    assert abs(w - 2.718281828459045) < 1e-6
    assert abs(nu - 1.0 / w) < 1e-12


def test_spectrum_sample_mode_deterministic(tmp_path):
    args = ["spectrum", "--mode", "sample", "--model", "kingman", "--n", "5",
            "--theta", "1", "--reps", "300", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = [line.split(",") for line in a.read_text().strip().splitlines()[2:]]
    counts = {int(k): int(c) for k, c in rows}
    assert sum(k * c for k, c in counts.items()) == 5 * 300


def test_spectrum_jobs_invariance(tmp_path, monkeypatch):
    base = ["spectrum", "--mode", "sample", "--model", "kingman", "--n", "4",
            "--theta", "1", "--reps", "64", "--seed", "13"]
    one, four = tmp_path / "one.csv", tmp_path / "four.csv"
    assert main(base + ["--jobs", "1", "--out", str(one)]) == 0
    assert main(base + ["--jobs", "4", "--out", str(four)]) == 0
    strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]  # noqa: E731
    assert strip(one) == strip(four)
    config = lambda p: json.loads(p.read_text().splitlines()[0].removeprefix("# config: "))  # noqa: E731
    for model in ("cpp-critical-bd", "cpp-brownian"):
        base = ["spectrum", "--mode", "population", "--model", model, "--theta", "1",
                "--T", "20", "--q", "1", "--q", "2", "--reps", "9", "--seed", "13"]
        assert main(base + ["--jobs", "1", "--out", str(one)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(four)]) == 0
        assert strip(one) == strip(four)
        assert config(one)["jobs"] == 1 and config(four)["jobs"] == 2
    # three blocks, the last one partial: shards cut on block boundaries
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    reps = 2 * _POP_BLOCK + 3
    base = ["spectrum", "--mode", "population", "--model", "cpp-brownian", "--theta", "1",
            "--T", "20", "--eps", "0.01", "--q", "1", "--reps", str(reps), "--seed", "14"]
    outputs = []
    for jobs in ("1", "2", "3"):
        assert main(base + ["--jobs", jobs, "--out", str(one)]) == 0
        outputs.append(strip(one))
    assert outputs[0] == outputs[1] == outputs[2]


def test_spectrum_population_mode(tmp_path):
    out = tmp_path / "pop.csv"
    assert main(["spectrum", "--mode", "population", "--model", "cpp-critical-bd",
                 "--theta", "1", "--T", "20", "--reps", "50", "--seed", "5",
                 "--q", "1", "--out", str(out)]) == 0
    header, columns, row = out.read_text().strip().splitlines()
    assert columns == "q,estimate,stderr,target"
    q, est, se, target = map(float, row.split(","))
    assert q == 1.0 and target == pytest.approx(0.5)


def test_mutate_pipeline(tmp_path):
    comb_file = tmp_path / "comb.json"
    assert main(["sample", "--model", "kingman", "--n-teeth", "40", "--seed", "9",
                 "--out", str(comb_file)]) == 0
    out = tmp_path / "mut.json"
    assert main(["mutate", "--in", str(comb_file), "--theta", "2.0",
                 "--include-origin", "--seed", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["theta"] == 2.0
    assert all(set(m) == {"branch", "depth"} for m in doc["mutations"])


def test_treecode_newick_and_comb(tmp_path):
    contour = tmp_path / "contour.json"
    contour.write_text(json.dumps(ContourFunction.from_jumps([(0.0, 3.0), (1.0, 2.0)]).to_dict()))
    nwk = tmp_path / "t.nwk"
    assert main(["treecode", "--in", str(contour), "--to", "newick",
                 "--out", str(nwk)]) == 0
    assert nwk.read_text().strip() == "((0:1,1:2):2);"
    comb_out = tmp_path / "comb.json"
    assert main(["treecode", "--in", str(contour), "--to", "comb", "--T", "2.5",
                 "--out", str(comb_out)]) == 0
    comb = Comb.from_dict(json.loads(comb_out.read_text())["results"][0])
    assert comb.n_teeth == 1


def test_solve_w_model_spec_file(tmp_path):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({"birth_rate": 1.0, "lifetime": "exponential(1.0)",
                                "T": 1.0, "steps": 2000}))
    out = tmp_path / "w.csv"
    assert main(["solve-w", "--model-spec", str(spec), "--out", str(out)]) == 0
    w_final = float(out.read_text().strip().splitlines()[-1].split(",")[1])
    assert abs(w_final - 2.0) < 1e-5


def test_solve_w_config_records_the_spec(tmp_path):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({"birth_rate": 2.0, "lifetime": "exponential(1)",
                                "T": 1.5, "steps": 400}))
    out = tmp_path / "w.csv"
    assert main(["solve-w", "--model-spec", str(spec), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    cfg = json.loads(lines[0].removeprefix("# config: "))
    assert (cfg["T"], cfg["steps"], cfg["model_spec"]) == (1.5, 400, str(spec))
    assert cfg["model"] is cfg["b"] is cfg["death_rate"] is None
    assert len(lines) == 2 + 401
    # without a spec the flags are the run
    assert main(["solve-w", "--model", "bd", "--b", "2", "--death-rate", "1", "--T", "0.5",
                 "--steps", "50", "--out", str(out)]) == 0
    cfg = json.loads(out.read_text().splitlines()[0].removeprefix("# config: "))
    assert {k: cfg[k] for k in ("model", "b", "death_rate", "T", "steps", "model_spec")} == {
        "model": "bd", "b": 2.0, "death_rate": 1.0, "T": 0.5, "steps": 50, "model_spec": None}


@pytest.mark.parametrize("name, argv", [
    ("sample_kingman_comb", ["sample", "--model", "kingman", "--seed", "1"]),
    ("solve_scale_function", ["solve-w"])])
def test_memory_exhaustion_exits_3_without_traceback(tmp_path, capsys, monkeypatch, name, argv):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, name, refuse)
    assert main([*argv, "--out", str(tmp_path / "o.txt")]) == 3
    err = capsys.readouterr().err
    assert err == "ultracomb: resource error: out of memory (Unable to allocate 7.28 TiB)\n"


# 2**62: numpy refuses an array this long before allocating anything
@pytest.mark.parametrize("argv", [
    ["solve-w", "--steps", str(2 ** 62)],
    ["sample", "--model", "kingman", "--n-teeth", str(2 ** 62), "--seed", "1"],
    ["spectrum", "--mode", "sample", "--n", "5", "--theta", "1", "--n-teeth", str(2 ** 62),
     "--seed", "1"]])
def test_oversized_counts_exit_3_without_traceback(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "o.txt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ultracomb: resource error: out of memory (array is too big")
    assert err.count("\n") == 1


# counts at and past 2**63: numpy's float count or its size check refuses them
# before allocating anything; so does its Poisson draw for a mean past int64.
# The population run at --eps 1e-300 stops at the Brownian band sampler's
# position-resolution guard (a ResourceError) after a few bands instead
@pytest.mark.parametrize("argv", [
    ["solve-w", "--steps", str(2 ** 63 - 1)],
    ["solve-w", "--steps", str(2 ** 63 - 2)],
    ["solve-w", "--steps", str(2 ** 64)],
    ["sample", "--model", "kingman", "--n-teeth", str(2 ** 64), "--seed", "1"],
    ["spectrum", "--mode", "sample", "--theta", "1", "--n", str(2 ** 63 - 1), "--reps", "2",
     "--seed", "1"],
    ["spectrum", "--mode", "sample", "--theta", "1e300", "--reps", "2", "--seed", "1"],
    ["spectrum", "--mode", "population", "--model", "cpp-brownian", "--theta", "1e300",
     "--reps", "2", "--seed", "1"],
    ["spectrum", "--mode", "population", "--model", "cpp-brownian", "--theta", "1", "--T", "5",
     "--eps", "1e-300", "--reps", "3", "--seed", "1"],
    ["sample", "--model", "splitting", "--b", "1e300", "--seed", "1"],
    ["sample", "--model", "cpp-brownian", "--T", "1e308", "--eps", "1e-308", "--seed", "1"]])
def test_counts_past_int64_exit_3_with_one_line(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "o.txt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ultracomb: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "o.txt").exists()


def test_consecutive_calls_share_no_parser_state(tmp_path):
    out = tmp_path / "o.csv"

    def config(*argv):
        assert main([*argv, "--out", str(out)]) == 0
        return json.loads(out.read_text().splitlines()[0].removeprefix("# config: "))

    population = ["spectrum", "--mode", "population", "--model", "cpp-critical-bd",
                  "--theta", "1", "--T", "5", "--reps", "2", "--seed", "1"]
    assert config(*population, "--q", "2", "--q", "4")["q"] == [2.0, 4.0]
    assert config(*population)["q"] == [1.0]
    assert config(*population, "--q", "3")["q"] == [3.0]
    sample = ["spectrum", "--mode", "sample", "--theta", "1", "--reps", "2", "--seed", "1"]
    assert config(*sample, "--n", "3", "--n-teeth", "70")["n_teeth"] == 70
    assert config(*sample, "--n", "3")["n_teeth"] == 150
    kingman = tmp_path / "k.json"
    assert main(["sample", "--model", "kingman", "--seed", "1", "--out", str(kingman)]) == 0
    assert json.loads(kingman.read_text())["config"]["n_teeth"] == 100
    assert config(*sample, "--n", "4")["n_teeth"] == 200
    assert cli.build_parser() is cli.build_parser()


def test_sample_cpp_from_solved_model(tmp_path):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({"birth_rate": 1.0, "lifetime": "immortal",
                                "T": 1.0, "steps": 2000}))
    out = tmp_path / "cpp.json"
    assert main(["sample", "--model", "cpp-from-W", "--model-spec", str(spec),
                 "--T", "1.0", "--seed", "8", "--reps", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["results"]) == 2
    for item in doc["results"]:
        comb = Comb.from_dict(item)
        assert comb.origin_height == 1.0
        # grid-backed tails cannot resolve the killing atom: null marker
        assert item["killing_height"] is None


def test_exit_codes(tmp_path, capsys):
    assert main(["solve-w", "--model", "bd", "--b", "1"]) == 2  # missing death rate
    assert main(["mutate", "--in", str(tmp_path / "nope.json"), "--theta", "1",
                 "--seed", "1"]) == 4  # unreadable input
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"interval_length": 1.0, "origin_height": 2.0,
                               "teeth": [{"pos": 0.5, "h": 5.0}]}))
    assert main(["mutate", "--in", str(bad), "--theta", "1", "--seed", "1"]) == 2
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{bad")
    for argv in (["mutate", "--in", str(malformed), "--theta", "1", "--seed", "1"],
                 ["sample", "--model", "cpp-from-W", "--model-spec", str(malformed),
                  "--seed", "1"],
                 ["solve-w", "--model-spec", str(malformed)],
                 ["treecode", "--in", str(malformed), "--to", "newick"]):
        assert main(argv) == 2, argv
        assert "malformed JSON" in capsys.readouterr().err
    for reps in ("0", "-3"):
        assert main(["spectrum", "--mode", "sample", "--theta", "1", "--reps", reps,
                     "--seed", "1", "--out", str(tmp_path / "s.csv")]) == 2
        assert "--reps" in capsys.readouterr().err
    assert main(["sample", "--model", "kingman", "--reps", "-2", "--seed", "1",
                 "--out", str(tmp_path / "k.json")]) == 2
    assert "--reps" in capsys.readouterr().err
    assert main(["sample", "--model", "kingman", "--reps", "0", "--seed", "1",
                 "--out", str(tmp_path / "k.json")]) == 0
    assert main(["solve-w", "--T", "nan", "--out", str(tmp_path / "w.csv")]) == 2
    for horizon in ("nan", "inf"):
        assert main(["sample", "--model", "splitting", "--b", "0.5", "--T", horizon,
                     "--seed", "1", "--out", str(tmp_path / "t.json")]) == 2
        assert "horizon" in capsys.readouterr().err
        assert main(["sample", "--model", "splitting", "--b", horizon, "--T", "1",
                     "--seed", "1", "--out", str(tmp_path / "t.json")]) == 2
        assert "birth rate" in capsys.readouterr().err
    assert main(["sample", "--model", "cpp-critical-bd", "--T", "nan", "--seed", "1",
                 "--out", str(tmp_path / "c.json")]) == 2
    assert "horizon must be positive" in capsys.readouterr().err
    assert main(["solve-w", "--T", "inf", "--out", str(tmp_path / "w.csv")]) == 2
    assert "finite" in capsys.readouterr().err
    for horizon in ("nan", "inf"):
        assert main(["spectrum", "--mode", "population", "--model", "cpp-critical-bd",
                     "--theta", "1", "--T", horizon, "--seed", "1",
                     "--out", str(tmp_path / "p.csv")]) == 2
        assert "finite horizon" in capsys.readouterr().err
    for argv in (["--model", "bd", "--b", "1", "--death-rate", "nan"],
                 ["--model", "bd", "--b", "1", "--death-rate", "inf"],
                 ["--model", "yule", "--b", "inf"]):
        assert main(["solve-w", *argv, "--T", "1", "--out", str(tmp_path / "w.csv")]) == 2, argv
        assert "positive and finite" in capsys.readouterr().err
    for argv in (["--model", "yule", "--b", "nan"],
                 ["--model", "bd", "--b", "nan", "--death-rate", "1"]):
        assert main(["solve-w", *argv, "--T", "1", "--out", str(tmp_path / "w.csv")]) == 2, argv
        assert "--b must be positive and finite" in capsys.readouterr().err
    for model, q in (("cpp-critical-bd", "0"), ("cpp-critical-bd", "nan"),
                     ("cpp-critical-bd", "-1"), ("cpp-critical-bd", "1.5"),
                     ("cpp-brownian", "0"), ("cpp-brownian", "nan"), ("cpp-brownian", "-1"),
                     ("cpp-brownian", "inf")):
        assert main(["spectrum", "--mode", "population", "--model", model, "--theta", "1",
                     "--reps", "4", "--q", q, "--seed", "1",
                     "--out", str(tmp_path / "p.csv")]) == 2, (model, q)
        assert "q must be" in capsys.readouterr().err
    combs = tmp_path / "combs.json"
    assert main(["sample", "--model", "kingman", "--n-teeth", "10", "--reps", "2",
                 "--seed", "1", "--out", str(combs)]) == 0
    for index in ("-1", "-2", "2"):
        assert main(["mutate", "--in", str(combs), "--index", index, "--theta", "1",
                     "--seed", "1", "--out", str(tmp_path / "m.json")]) == 2, index
        assert f"comb index {index} out of range" in capsys.readouterr().err
    # a Poisson mean past int64 is a resource error, not a traceback
    assert main(["mutate", "--in", str(combs), "--theta", "1e300", "--seed", "1",
                 "--out", str(tmp_path / "m.json")]) == 3
    assert capsys.readouterr().err == ("ultracomb: resource error: out of memory "
                                       "(lam value too large)\n")
    assert not (tmp_path / "m.json").exists()
    # sample mode names the theta it was given, not the per-depth rate theta/2
    assert main(["spectrum", "--mode", "sample", "--theta", "-1", "--reps", "2", "--seed", "1",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == ("ultracomb: validation error: "
                                       "theta must be nonnegative and finite, got -1.0\n")
    for lifetime in ("exponential(nan)", "fixed(nan)", "exponential(inf)"):
        assert main(["sample", "--model", "splitting", "--seed", "1", "--lifetime", lifetime,
                     "--out", str(tmp_path / "t.json")]) == 2, lifetime
        assert "bad lifetime parameter" in capsys.readouterr().err
    spec = {"birth_rate": 1.0, "lifetime": "immortal", "T": 1.0, "steps": 100}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    comb_doc = {"interval_length": 1.0, "origin_height": 2.0, "teeth": [{"pos": "x", "h": 1.0}]}
    contour_doc = {"breakpoints": [{"time": "x", "before": 0.0, "after": 1.0}]}
    for name, doc, argv, what in (
            ("T", {**spec, "T": "abc"}, ["sample", "--model", "cpp-from-W", "--seed", "1"],
             "model spec"),
            ("lifetime", {**spec, "lifetime": 5}, ["sample", "--model", "cpp-from-W", "--seed", "1"],
             "model spec"),
            ("grid", {**spec, "birth_rate": {"grid": [[0.0, 1.0], [1.0]]}}, ["solve-w"],
             "model spec"),
            ("comb", comb_doc, ["mutate", "--theta", "1", "--seed", "1"], "comb document"),
            ("contour", contour_doc, ["treecode", "--to", "newick"], "contour document")):
        path = tmp_path / f"bad-{name}.json"
        path.write_text(json.dumps(doc))
        flag = "--model-spec" if what == "model spec" else "--in"
        assert main([*argv, flag, str(path), "--out", str(tmp_path / "o.txt")]) == 2, name
        assert f"malformed {what}" in capsys.readouterr().err, name
    # a birth-rate grid is (time, rate) rows at finite, strictly increasing times
    for grid in ([[1.0, 3.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 3.0]], [[0.0, 1.0], [math.nan, 3.0]],
                 [[0.0, 1.0, 2.0]], []):
        (tmp_path / "grid.json").write_text(json.dumps({**spec, "birth_rate": {"grid": grid}}))
        for argv in (["solve-w"], ["sample", "--model", "cpp-from-W", "--seed", "1"]):
            assert main([*argv, "--model-spec", str(tmp_path / "grid.json"),
                         "--out", str(tmp_path / "o.txt")]) == 2, (grid, argv)
            assert "birth-rate grid" in capsys.readouterr().err, (grid, argv)
    # T and a constant birth rate are numbers and steps an integer, never bools
    for name, doc in (("steps", {**spec, "steps": 20.7}), ("steps", {**spec, "steps": 100.0}),
                      ("steps", {**spec, "steps": True}), ("T", {**spec, "T": True}),
                      ("birth_rate", {**spec, "birth_rate": True}),
                      ("birth_rate", {**spec, "birth_rate": None})):
        (tmp_path / "scalar.json").write_text(json.dumps(doc))
        for argv in (["solve-w"], ["sample", "--model", "cpp-from-W", "--seed", "1"]):
            assert main([*argv, "--model-spec", str(tmp_path / "scalar.json"),
                         "--out", str(tmp_path / "o.txt")]) == 2, (doc, argv)
            assert f"{name} must be" in capsys.readouterr().err, (doc, argv)
    # a grid model is known only up to its spec's T
    assert main(["sample", "--model", "cpp-from-W", "--model-spec", str(tmp_path / "spec.json"),
                 "--T", "3", "--seed", "1", "--reps", "2", "--out", str(tmp_path / "o.txt")]) == 2
    assert "support top" in capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--model", "cpp-brownian", "--theta", "1", "--eps", "0"],
                                  ["--model", "cpp-brownian", "--theta", "1", "--eps", "nan"],
                                  ["--model", "cpp-brownian", "--theta", "nan"],
                                  ["--model", "cpp-critical-bd", "--theta", "nan"],
                                  ["--model", "cpp-critical-bd", "--theta", "inf"]])
def test_population_mode_checks_before_starting_workers(tmp_path, capsys, monkeypatch, argv):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)  # so --jobs 2 would start a pool
    assert main(["spectrum", "--mode", "population", *argv, "--jobs", "2", "--reps", "4",
                 "--seed", "1", "--out", str(tmp_path / "pop.csv")]) == 2
    assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "pop.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["sample", "--model", "kingman", "--reps", "2"],
    ["sample", "--model", "padic"],
    ["spectrum", "--mode", "sample", "--theta", "1", "--reps", "2"],
    ["spectrum", "--mode", "population", "--model", "cpp-critical-bd", "--theta", "1",
     "--T", "5", "--reps", "2"]])
def test_jobs_below_one_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, argv, jobs):
    def refuse(*args, **kwargs):
        raise AssertionError("a stream or a worker pool was started")

    monkeypatch.setattr(cli, "RandomSource", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    assert main([*argv, "--seed", "1", "--jobs", jobs, "--out", str(tmp_path / "o.txt")]) == 2
    assert capsys.readouterr().err == f"ultracomb: validation error: --jobs must be at least 1, got {jobs}\n"
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize("eps", [["--eps", "0"], ["--eps", "-1"], ["--eps", "6", "--T", "5"]])
def test_population_mode_rejects_bad_eps(tmp_path, capsys, eps):
    assert main(["spectrum", "--mode", "population", "--model", "cpp-brownian",
                 "--theta", "1", "--reps", "4", "--seed", "1",
                 "--out", str(tmp_path / "pop.csv"), *eps]) == 2
    assert "validation error" in capsys.readouterr().err


def test_shard_caps_workers_at_cpu_count():
    shards = _shard(1_000_000, 10_000)
    assert 1 <= len(shards) <= (os.cpu_count() or 1)
    assert [r for s in shards for r in s] == list(range(1_000_000))
    assert _shard(5, 0) == [range(0, 5)]


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("reps", [0, 1, 7, 2 ** 53 + 1, 2 ** 63 - 1])
def test_shards_tile_the_replicates_exactly(monkeypatch, reps, jobs):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    shards = _shard(reps, jobs)
    assert len(shards) == min(reps, jobs)
    assert all(s.step == 1 and s.stop > s.start for s in shards)
    assert [s.start for s in shards[:1]] == [0] * bool(reps)
    assert [s.stop for s in shards[-1:]] == [reps] * bool(reps)
    assert all(a.stop == b.start for a, b in zip(shards, shards[1:]))
    assert sum(s.stop - s.start for s in shards) == reps
    # even cuts: shard lengths differ by at most one
    sizes = {s.stop - s.start for s in shards}
    assert max(sizes, default=0) - min(sizes, default=0) <= 1


def test_cli_snapshot_tool_writes_every_command(tmp_path):
    # tools/cli_snapshot.py is the bit-identity check for refactors; keep it runnable
    script = Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"
    env = {**os.environ, "PYTHONPATH": str(Path(ultracomb.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, str(script), str(tmp_path)], env=env, check=True,
                   capture_output=True)
    spec = importlib.util.spec_from_file_location("cli_snapshot", script)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name in [*tool.COMMANDS, "ultrametric.json", "clades.json", "band.json"]:
        assert (tmp_path / name).stat().st_size > 0, name
    # the band sampler's draws reload bit for bit, and none is empty
    band = json.loads((tmp_path / "band.json").read_text())
    assert band == tool.band_draws() and len(band) == 6
    assert all(d["comb"]["teeth"] and d["mutations"] for d in band.values())
