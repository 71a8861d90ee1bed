"""Paired benchmark runs: a base revision against this checkout.

    python tools/bench_pairs.py --base REV --workload population --pairs 10 \\
        --seconds 35 --out BENCH.json

Checks REV out into a temporary ``git worktree`` (removed afterwards) and
runs ``perfbench/run.py`` from it and from this checkout, as each one
stands, K times each.  Pair i runs both sides with seed ``--seed`` + i,
and the side that runs first alternates from pair to pair.  For each
end-to-end metric of ``BENCHMARK.json`` the output records every pair,
each side's median and quartiles, how many pairs each side won (ties
count for neither), and whether the result is resolved: the medians
differ by more than the base's interquartile range.  After the timed
pairs, as many ``--seconds 1`` pairs on the same seeds measure setup
alone; they are recorded under ``setup_only`` with the same summary.
The output file holds one entry per workload; running the tool again
for another workload adds its entry.  Nothing under ``perfbench/`` is
edited.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, win counts and the resolved flag.

    ``pairs`` holds ``{"base": {metric: value}, "change": {metric: value}}``
    per pair; ``better`` maps each metric to "lower" or "higher".
    """
    out = {}
    for metric, direction in better.items():
        base = np.array([p["base"][metric] for p in pairs], dtype=float)
        change = np.array([p["change"][metric] for p in pairs], dtype=float)
        gain = change - base if direction == "higher" else base - change
        b_q1, b_med, b_q3 = np.percentile(base, [25, 50, 75])
        c_q1, c_med, c_q3 = np.percentile(change, [25, 50, 75])
        out[metric] = {
            "better": direction,
            "base": {"median": b_med, "q1": b_q1, "q3": b_q3},
            "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
            "change_wins": int(np.count_nonzero(gain > 0)),
            "base_wins": int(np.count_nonzero(gain < 0)),
            "resolved": bool(abs(c_med - b_med) > b_q3 - b_q1),
        }
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from a checkout: its result object."""
    proc = subprocess.run([sys.executable, str(checkout / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: run.py failed in {checkout} "
                         f"({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def _pairs(base_dir: Path, workload: str, seed: int, count: int, seconds: float,
           better: dict[str, str]) -> list[dict]:
    """``count`` alternating pairs of ``seconds``-long runs, pair i on seed + i."""
    pairs = []
    for i in range(count):
        sides = [("base", base_dir), ("change", ROOT)]
        if i % 2:
            sides.reverse()
        results = {name: _run(path, workload, seed + i, seconds) for name, path in sides}
        pairs.append({"seed": seed + i, "first": sides[0][0],
                      **{name: _values(r) for name, r in results.items()},
                      "correct": {name: r["correct"] for name, r in results.items()}})
        print(f"{seconds:g} s pair {i + 1}/{count} seed {seed + i}: " + ", ".join(
            f"{m} {pairs[-1]['base'][m]:.4g}/{pairs[-1]['change'][m]:.4g}"
            for m in better), file=sys.stderr)
    return pairs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--out", required=True, help="JSON file to write or add to")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        ap.error("need --pairs >= 1, --seconds > 0 and --seed >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base_commit = _git("rev-parse", "--verify", args.base + "^{commit}")
    # a terminated run still removes its worktree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("bench_pairs: terminated"))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_dir = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(base_dir), base_commit)
        try:
            pairs = _pairs(base_dir, args.workload, args.seed, args.pairs, args.seconds, better)
            setup = _pairs(base_dir, args.workload, args.seed, args.pairs, 1.0, better)
        finally:
            _git("worktree", "remove", "--force", str(base_dir))
    out_path = Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {"workloads": {}}
    doc["manifest"] = {"python": platform.python_version(), "numpy": np.__version__,
                       "machine": platform.machine(), "cpus": len(os.sched_getaffinity(0))}
    doc["workloads"][args.workload] = {
        "base": args.base, "base_commit": base_commit,
        "change_commit": _git("rev-parse", "HEAD"),
        "change_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "seconds": args.seconds, "pairs": pairs, "summary": summarize(pairs, better),
        "setup_only": {"seconds": 1.0, "pairs": setup, "summary": summarize(setup, better)},
    }
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
