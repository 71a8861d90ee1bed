"""One workload process: set up, warm up, then time ops (or only set up).

Started by ``run.py`` in a fresh process per measurement, never by hand.
Prints one JSON line with its raw measurements on standard output.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: imports, inputs, warm-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_OUT = ROOT / "perfbench" / "out"

# traced and untraced blocks alternate, so drift hits both alike
TRACE_BLOCK_S = 0.5


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ultracomb
    if not Path(ultracomb.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ultracomb was imported from {ultracomb.__file__}, not {src}")
    return ultracomb


def _run_op(wl, k: int, rec=None) -> tuple[int, bool, list[str]]:
    """Time op k, then check it untimed.  Returns (ns, completed, failures)."""
    if rec is not None:
        rec.op_id = k
    t0 = time.perf_counter_ns()
    try:
        out, raised = wl.op(k), None
    except Exception as exc:  # a raising op counts as failed; keep measuring
        raised = exc
    dt = time.perf_counter_ns() - t0
    if rec is not None:
        rec.op_id = -1
    if raised is not None:
        return dt, False, [f"raised {raised!r}"]
    try:
        fails = wl.check(out)
    except Exception as exc:
        fails = [f"check raised {exc!r}"]
    return dt, True, fails


class Tally:
    """Op times, completions and failures of one group of ops."""

    def __init__(self):
        self.times_ns: list[int] = []
        self.completed = 0
        self.failures: list[str] = []
        self.failed = 0

    def add(self, dt: int, completed: bool, fails: list[str]) -> None:
        self.times_ns.append(dt)
        self.completed += int(completed and not fails)
        if fails or not completed:
            self.failed += 1
            self.failures.extend(fails[:2])


def main() -> int:
    BENCH_OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_OUT, prefix="work-") as workdir:
        return run(workdir)


def run(workdir: str) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-ops", type=int, default=0, help="stop after this many ops (0: no limit)")
    args = ap.parse_args()

    uc = _import_package()
    import numpy as np
    import scipy

    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    n_warm = wl.WARMUP_OPS
    warm = Tally()
    for k in range(n_warm):
        warm.add(*_run_op(wl, k))
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "warmup_ops": n_warm, "warmup_failed": warm.failed}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    result["manifest"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__, "ultracomb": uc.__version__,
                          "nproc": os.cpu_count()}
    k = n_warm
    deadline = time.perf_counter() + args.seconds
    plain, traced = Tally(), Tally()

    def more() -> bool:
        limit_ok = not args.max_ops or len(plain.times_ns) + len(traced.times_ns) < args.max_ops
        return limit_ok and time.perf_counter() < deadline

    if not args.trace:
        while more():
            plain.add(*_run_op(wl, k))
            k += 1
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import spans
        rec = spans.Recorder(uc)
        traced_ops: list[int] = []
        skewed_ns: list[int] = []
        on = False
        while more():
            block_end = time.perf_counter() + TRACE_BLOCK_S
            if on:
                rec.install()
            while True:
                if on:
                    skew0 = rec.skew
                    res = _run_op(wl, k, rec)
                    traced.add(*res)
                    traced_ops.append(k)
                    # op wall time with hook time taken out, as spans see it
                    skewed_ns.append(res[0] - (rec.skew - skew0))
                else:
                    plain.add(*_run_op(wl, k))
                k += 1
                if time.perf_counter() >= block_end or not more():
                    break
            if on:
                rec.uninstall()
            on = not on
        result["traced"] = _trace_metrics(rec, traced, plain, traced_ops, skewed_ns)
        trace_path = BENCH_OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        rec.write(str(trace_path))
        result["trace_file"] = str(trace_path.relative_to(ROOT))

    run_fails = wl.finish()
    result.update({
        "op_times_ns": plain.times_ns, "completed": plain.completed,
        "failed": plain.failed + traced.failed, "attempted": len(plain.times_ns) + len(traced.times_ns),
        "failures": (warm.failures + plain.failures + traced.failures)[:20],
        "run_failures": run_fails,
    })
    print(json.dumps(result))
    return 0


def _trace_metrics(rec, traced: "Tally", plain: "Tally", traced_ops: list[int],
                   skewed_ns: list[int]) -> dict:
    import numpy as np
    n = len(traced_ops)
    if n == 0:
        raise SystemExit("no traced ops: raise --seconds")
    cols = rec.arrays()
    self_ns = rec.self_ns_by_name(cols)
    calls = rec.calls_by_name(cols)
    c = rec.counters
    ms = lambda name: self_ns.get(name, 0.0) / n / 1e6  # noqa: E731
    ratio = lambda num, den: c[num] / c[den] if c[den] else 1.0  # noqa: E731
    solve_calls = calls.get("intensity.solve", 0)
    covered = rec.covered_ns_by_op(cols, max(traced_ops) + 1)[traced_ops]
    op_ns = np.asarray(skewed_ns, dtype=float)
    plain_rate = plain.completed / (sum(plain.times_ns) / 1e9)  # the first block is untraced
    traced_rate = traced.completed / (sum(traced.times_ns) / 1e9)
    metrics = {
        "rng.calls_per_op": calls.get("rng", 0) / n,
        "rng.self_ms_per_op": ms("rng"),
        "sampling.kingman.self_ms_per_op": ms("sampling.kingman"),
        "sampling.kingman.teeth_per_op": c["sampling.kingman.teeth"] / n,
        "sampling.cpp.self_ms_per_op": ms("sampling.cpp"),
        "sampling.cpp.teeth_per_op": c["sampling.cpp.teeth"] / n,
        "sampling.splitting.self_ms_per_op": ms("sampling.splitting"),
        "sampling.splitting.nodes_per_op": c["sampling.splitting.nodes"] / n,
        "sampling.reduce.self_ms_per_op": ms("sampling.reduce"),
        "sampling.errors_per_op": sum(rec.errors.values()) / n,
        "mutation.scatter.self_ms_per_op": ms("mutation.scatter"),
        "mutation.atoms_per_op": c["mutation.atoms"] / n,
        "mutation.assign.self_ms_per_op": ms("mutation.assign"),
        "mutation.assign.useful_ratio": ratio("mutation.assign.useful", "mutation.assign.atoms_in"),
        "comb.next_taller.calls_per_op": calls.get("comb.next_taller", 0) / n,
        "comb.next_taller.self_ms_per_op": ms("comb.next_taller"),
        "comb.construct.self_ms_per_op": ms("comb.construct"),
        "comb.validate.self_ms_per_op": ms("comb.validate"),
        "comb.from_ultrametric.self_ms_per_op": ms("comb.from_ultrametric"),
        "comb.matrix_n": (c["comb.validate.matrix_n"] / calls["comb.validate"]
                          if calls.get("comb.validate") else 0.0),
        "comb.to_tree.self_ms_per_op": ms("comb.to_tree"),
        "comb.ball_partition.self_ms_per_op": ms("comb.ball_partition"),
        "tree.newick.self_ms_per_op": ms("tree.newick"),
        "tree.parse.self_ms_per_op": ms("tree.parse"),
        "tree.nodes_per_op": c["tree.nodes"] / n,
        "contour.decode.self_ms_per_op": ms("contour.decode"),
        "contour.sphere.self_ms_per_op": ms("contour.sphere"),
        "intensity.solve.calls_per_op": solve_calls / n,
        "intensity.solve.self_ms_per_op": ms("intensity.solve"),
        "intensity.solve.steps_per_op": c["intensity.solve.steps"] / n,
        "intensity.solve.useful_ratio": (c["intensity.solve.distinct"] / solve_calls
                                         if solve_calls else 1.0),
        "spectrum.tail.self_ms_per_op": ms("spectrum.tail"),
        "spectrum.population.self_ms_per_op": ms("spectrum.population"),
        "spectrum.population.useful_ratio": ratio("spectrum.population.useful",
                                                  "spectrum.population.atoms_in"),
        "spectrum.kingman_partition.self_ms_per_op": ms("spectrum.kingman_partition"),
        "spectrum.of_partition.self_ms_per_op": ms("spectrum.of_partition"),
        "cli.self_ms_per_op": ms("cli"),
        "trace.overhead_frac": 1.0 - traced_rate / plain_rate,
        "trace.uncovered_frac": float(1.0 - covered.sum() / op_ns.sum()),
    }
    return {"metrics": metrics, "ops": n, "untraced_ops": len(plain.times_ns),
            "max_self_over_wall": float(np.max(covered / op_ns)),
            "self_ms_by_span": {k: v / n / 1e6 for k, v in sorted(self_ns.items())}}


if __name__ == "__main__":
    raise SystemExit(main())
