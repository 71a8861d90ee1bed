"""Benchmark launcher for ultracomb.

    python3 perfbench/run.py --workload esf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs one workload (or all three, one after the other) in fresh worker
processes with BLAS and OpenMP pinned to one thread.  ``SETUPS - 1``
workers only set up; one more sets up and then measures, so ``setup_s``
is a median of ``SETUPS`` fresh-process set-ups.  At most one worker
runs at a time, which stays within the machine's CPU count.

The last line of standard output is the result object; the line before
it is the full record (manifest, sample counts, failures, op_fail_frac).
With ``--trace 1`` the measuring worker alternates traced and untraced
blocks and reports the per-layer metrics instead, and writes its spans
to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("esf", "population", "genealogy")
SETUPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# one workload, all its workers together: 170 s at the contract's 35 s
SETUP_ALLOWANCE_S = 135


class BenchError(Exception):
    pass


def _git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion (killed at the deadline)."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setups: int = SETUPS, max_ops: int = 0) -> dict:
    """Run one workload; returns the full record including the result object."""
    deadline = time.monotonic() + seconds + SETUP_ALLOWANCE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setup_runs = [_worker(common + ["--setup-only"], deadline) for _ in range(setups - 1)]
    extra = ["--trace", str(int(trace))] + (["--max-ops", str(max_ops)] if max_ops else [])
    main = _worker(common + extra, deadline)
    setup_times = [r["setup_s"] for r in setup_runs] + [main["setup_s"]]
    attempted, failed = main["attempted"], main["failed"]
    times_ms = [t / 1e6 for t in main["op_times_ns"]]
    warm_failed = sum(r["warmup_failed"] for r in setup_runs) + main["warmup_failed"]
    correct = failed == 0 and warm_failed == 0 and not main["run_failures"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "manifest": dict(main["manifest"], commit=_git_commit(), workload_seed=seed,
                         op_count=attempted, setups=len(setup_times)),
        "setup_s_samples": setup_times,
        "op_fail_frac": failed / attempted if attempted else 1.0,
        "failures": main["failures"], "run_failures": main["run_failures"],
    }
    if trace:
        traced = main["traced"]
        values = traced["metrics"]
        record.update(traced_ops=traced["ops"], untraced_ops=traced["untraced_ops"],
                      max_self_over_wall=traced["max_self_over_wall"],
                      self_ms_by_span=traced["self_ms_by_span"], trace_file=main["trace_file"])
    else:
        op_time_s = sum(times_ms) / 1e3
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": main["completed"] / op_time_s,
            "op_p50_ms": float(np.percentile(times_ms, 50)),
            "op_p90_ms": float(np.percentile(times_ms, 90)),
            "peak_rss_mb": main["peak_rss_mb"],
            "op_ok_frac": 1.0 - failed / attempted,
        }
        record.update(op_samples=len(times_ms))
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()}
    record["result"] = {"correct": correct, "attempted": attempted, "failed": failed,
                        "metrics": metrics}
    return record


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of one metric list in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _table(records: list[dict]) -> str:
    rows = [f"{'workload':11s} {'setup_s':>8s} {'ops_per_s':>10s} {'op_p50_ms':>10s} "
            f"{'op_p90_ms':>10s} {'peak_rss_mb':>11s} {'op_fail_frac':>12s} {'ops':>6s}",
            f"{'':11s} {'s':>8s} {'ops/s':>10s} {'ms':>10s} {'ms':>10s} {'MB':>11s} "
            f"{'ratio':>12s} {'count':>6s}"]
    for r in records:
        m = r["result"]["metrics"]
        rows.append(f"{r['workload']:11s} {m['setup_s']['value']:8.3f} "
                    f"{m['ops_per_s']['value']:10.2f} {m['op_p50_ms']['value']:10.3f} "
                    f"{m['op_p90_ms']['value']:10.3f} {m['peak_rss_mb']['value']:11.1f} "
                    f"{r['op_fail_frac']:12.4f} {r['op_samples']:6d}")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "ultracomb" / "__init__.py").is_file():
        print(f"perfbench: no ultracomb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    if args.workload == "all":
        if not args.trace:
            print(_table(records))
        for record in records:
            print(json.dumps(dict(record["result"], workload=record["workload"])))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
