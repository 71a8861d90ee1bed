"""The benchmark's workloads: generated inputs, one op, and output checks.

Each workload is built from the workload seed alone.  Inputs are drawn
with numpy's own generator, separate from the program's streams; the
program only ever sees the generated inputs and the per-op seeds.

Per-op seeds come from a base whose low 32 bits are zero, so every run
owns a power-of-two-aligned block of 2**32 stream seeds.  Inside it,
each op gets a sub-block of ``OP_BLOCK`` seeds, at least as wide as the
replicates one call spawns.  Under ``RandomSource.spawn``'s
``seed XOR replicate`` rule, replicate r < OP_BLOCK of an aligned seed s
is stream s + r, which stays inside the op's sub-block, so no two ops
share a stream; with a spawn keyed on (seed, replicate) the blocks stay
disjoint as well.

``op(k)`` runs the timed work of op k and returns its outputs;
``check(out)`` returns the failed per-op checks (run outside the timed
region); ``finish()`` returns the failed run-level checks.
``WARMUP_OPS`` ops run before timing and count in ``setup_s``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy import special

import ultracomb as uc
from ultracomb import cli, comb, contour, sampling, spectrum, tree

_WORKLOAD_TAGS = {"esf": 1, "population": 2, "genealogy": 3}


def stream_base(seed: int, workload: str) -> int:
    """A per-run stream seed with its low 32 bits clear."""
    high = np.random.SeedSequence([seed, _WORKLOAD_TAGS[workload]]).generate_state(1)[0]
    return int(high) << 32


def comb_matrix(heights: np.ndarray) -> np.ndarray:
    """Distance matrix of the interval midpoints of a comb with these
    tooth heights: d(i, j) = 2 max(heights[i:j]) for i < j."""
    n = heights.size + 1
    d = np.zeros((n, n))
    for i in range(n - 1):
        d[i, i + 1:] = 2.0 * np.maximum.accumulate(heights[i:])
    return d + d.T


def rebuilt_matrix(rebuilt: uc.Comb, placements) -> np.ndarray:
    """Distances between placement midpoints read off the comb arrays:
    twice the tallest tooth between two midpoints."""
    mids = np.array([(s + e) / 2.0 for s, e in placements])
    order = np.argsort(mids, kind="stable")
    sorted_mids = mids[order]
    # tallest tooth between consecutive midpoints (0 when there is none)
    cut = np.searchsorted(rebuilt.positions, sorted_mids)
    gap = np.zeros(mids.size - 1)
    heights = rebuilt.heights
    for k in range(mids.size - 1):
        if cut[k + 1] > cut[k]:
            gap[k] = heights[cut[k]:cut[k + 1]].max()
    d_sorted = comb_matrix(gap)
    d = np.empty_like(d_sorted)
    d[np.ix_(order, order)] = d_sorted
    return d


class Esf:
    """Criterion 07's hot loop: one Kingman allelic-partition replicate,
    spawned from one root, then its spectrum."""

    N, THETA, N_TEETH = 5, 1.0, 3000
    WARMUP_OPS = 200

    def __init__(self, seed: int, workdir: str):
        self.root = uc.RandomSource(stream_base(seed, "esf"))
        self.freq: dict[tuple[int, ...], int] = {}

    def op(self, k: int):
        part = spectrum.sample_kingman_allelic_partition(
            self.N, self.THETA, self.root.spawn(k), n_teeth=self.N_TEETH)
        return part, spectrum.spectrum_of_partition(part)

    def check(self, out) -> list[str]:
        part, spec = out
        fails = []
        if part.n != self.N:
            fails.append(f"partition covers {part.n} samples, not {self.N}")
        if len(spec.counts) != self.N or sum((k + 1) * c for k, c in enumerate(spec.counts)) != self.N:
            fails.append(f"spectrum {spec.counts} does not sum to n={self.N}")
        if not fails:
            self.freq[spec.counts] = self.freq.get(spec.counts, 0) + 1
        return fails

    def tv_and_bound(self) -> tuple[float, float]:
        """TV distance of the spectrum frequencies from the sampling
        formula, and the bound it must stay under at this op count: a
        0.005 allowance for comb truncation plus twice the summed
        binomial standard deviations (each deviation within 4 sd)."""
        n_ops = sum(self.freq.values())
        probs = {a: spectrum.esf_probability(self.THETA, a)
                 for a in spectrum.integer_partition_counts(self.N)}
        tv = 0.5 * sum(abs(self.freq.get(a, 0) / n_ops - p) for a, p in probs.items())
        tv += 0.5 * sum(c / n_ops for a, c in self.freq.items() if a not in probs)
        bound = 0.005 + 2.0 * sum(math.sqrt(p * (1.0 - p) / n_ops) for p in probs.values())
        return tv, bound

    def finish(self) -> list[str]:
        if not self.freq:
            return ["no checked spectra"]
        tv, bound = self.tv_and_bound()
        if not tv < bound:
            return [f"spectrum TV {tv:.4f} against the sampling formula exceeds {bound:.4f}"]
        return []


class Population:
    """Per-capita tail spectra of the Brownian and critical birth-death
    genealogies, 8 replicates each."""

    THETA, T, QS, REPS, EPS = 1.0, 50.0, (1.0, 2.0, 4.0), 8, 1e-3
    MODELS = ("brownian", "critical-bd")
    OP_BLOCK = 16  # two calls of REPS replicates each
    Z_MAX = 5.0  # run-level estimates must lie within this many standard errors
    MIN_RUN_OPS = 10
    WARMUP_OPS = 2

    def __init__(self, seed: int, workdir: str):
        self.base = stream_base(seed, "population")
        self.estimates: dict[str, list] = {m: [] for m in self.MODELS}  # per op: (estimate, se) per q

    def target(self, model: str, q: float) -> float:
        if model == "brownian":
            return self.THETA * float(special.exp1(self.THETA * q))
        return (self.THETA / q) * (1.0 + self.THETA) ** (-q)

    def op(self, k: int):
        out = {}
        for j, model in enumerate(self.MODELS):
            rng = uc.RandomSource(self.base + self.OP_BLOCK * k + self.REPS * j)
            out[model] = spectrum.normalized_tail_spectrum(
                model, self.THETA, self.T, list(self.QS), self.REPS, rng, eps=self.EPS)
        return out

    def check(self, out) -> list[str]:
        fails = []
        for model, rows in out.items():
            if [r.q for r in rows] != list(self.QS):
                fails.append(f"{model}: rows for q={[r.q for r in rows]}")
                continue
            for r in rows:
                if not (math.isfinite(r.estimate) and math.isfinite(r.stderr)):
                    fails.append(f"{model} q={r.q}: non-finite estimate {r.estimate} ± {r.stderr}")
        if not fails:
            for model, rows in out.items():
                self.estimates[model].append([(r.estimate, r.stderr) for r in rows])
        return fails

    def finish(self) -> list[str]:
        """Run level: the mean estimate over ops against the target.  The
        standard error is the larger of the spread of the per-op
        estimates and the per-op standard errors pooled; fewer than
        MIN_RUN_OPS ops are too few to judge either."""
        fails = []
        for model, rows in self.estimates.items():
            n = len(rows)
            if n < self.MIN_RUN_OPS:
                continue
            est, op_se = np.asarray(rows).transpose(2, 0, 1)
            mean = est.mean(axis=0)
            se = np.maximum(est.std(axis=0, ddof=1) / math.sqrt(n),
                            np.sqrt((op_se ** 2).sum(axis=0)) / n)
            for q, m, s in zip(self.QS, mean, se):
                target = self.target(model, q)
                if not abs(m - target) <= self.Z_MAX * s:
                    fails.append(f"{model} q={q}: run estimate {m:.5f} is more than "
                                 f"{self.Z_MAX} se ({s:.5f}) from {target:.5f}")
        return fails


class Genealogy:
    """A fixed batch of structural work on generated inputs."""

    N_POINTS = 300  # points per ultrametric matrix
    N_JUMPS = 300  # jumps per contour
    N_BALL = 500  # sample positions for the p-adic balls
    RADII = (3.0 ** -2, 3.0 ** -4)
    N_SETS = 4  # input sets, cycled over ops
    OP_BLOCK = 8  # --reps 4 CLI streams plus one splitting-tree stream
    CLI_REPS = 4
    WARMUP_OPS = 1

    def __init__(self, seed: int, workdir: str):
        self.base = stream_base(seed, "genealogy")
        # input draws use their own seed words, apart from stream_base's
        gen = np.random.default_rng([seed, _WORKLOAD_TAGS["genealogy"], 7])
        self.padic = sampling.padic_comb(3, 7)
        self.cli_out = os.path.join(workdir, "cli.json")
        self.sets = [self._inputs(gen, os.path.join(workdir, f"spec-{j}.json"))
                     for j in range(self.N_SETS)]

    def _inputs(self, gen: np.random.Generator, spec_path: str) -> dict:
        n = self.N_POINTS
        # random comb shape: i.i.d. heights; caterpillar: decreasing heights
        rand_h = gen.uniform(0.05, 1.0, n - 1)
        cat_h = np.sort(gen.uniform(0.05, 1.0, n - 1))[::-1]
        # contour that stays positive until the end of its support:
        # troughs b_i > 0, and each jump top clears both neighbouring troughs
        k = self.N_JUMPS
        troughs = np.concatenate(([0.0], gen.uniform(0.1, 1.0, k - 1)))
        tops = np.maximum(troughs, np.append(troughs[1:], 0.0)) + gen.uniform(0.05, 1.0, k)
        times = np.concatenate(([0.0], np.cumsum(tops[:-1] - troughs[1:])))
        path = contour.ContourFunction.from_jumps(
            list(zip(times.tolist(), (tops - troughs).tolist())))
        spec = {"birth_rate": float(gen.uniform(1.5, 2.5)), "lifetime": "exponential(1)",
                "T": float(gen.uniform(2.5, 3.5)), "steps": 4000}
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        return {
            "rand_d": comb_matrix(rand_h), "cat_d": comb_matrix(cat_h),
            "ball_pos": gen.random(self.N_BALL),
            "contour": path, "level": float(np.median(tops)),
            "spec_path": spec_path, "spec": spec,
            "split": (float(gen.uniform(1.8, 2.2)), 4.0),
        }

    def op(self, k: int):
        inp = self.sets[k % self.N_SETS]
        seed = self.base + self.OP_BLOCK * k
        out = {"inputs": inp}
        out["rand"] = comb.comb_from_ultrametric(inp["rand_d"])
        # unit masses: visibility masses underflow on caterpillars (known defect)
        out["cat"] = comb.comb_from_ultrametric(inp["cat_d"], np.ones(self.N_POINTS))
        for key in ("rand", "cat"):
            text = comb.comb_to_tree(out[key][0]).newick()
            out[key + "_newick"] = text
            out[key + "_parsed"] = tree.parse_newick(text)
        out["balls"] = [comb.ball_partition(self.padic, inp["ball_pos"], r) for r in self.RADII]
        spec = inp["spec"]
        out["cli_rc"] = cli.main([
            "sample", "--model", "cpp-from-W", "--model-spec", inp["spec_path"],
            "--T", repr(spec["T"]), "--reps", str(self.CLI_REPS), "--jobs", "1",
            "--seed", str(seed), "--out", self.cli_out])
        birth, horizon = inp["split"]
        split_tree = sampling.sample_splitting_tree(
            birth, uc.ExponentialLifetime(1.0), horizon, uc.RandomSource(seed + self.CLI_REPS))
        out["split"] = (split_tree, sampling.reduce_population_tree(split_tree, horizon))
        out["contour_tree"] = contour.tree_from_contour(inp["contour"])
        out["sphere"] = contour.sphere_comb_from_contour(inp["contour"], inp["level"])
        return out

    def check(self, out) -> list[str]:
        inp = out["inputs"]
        fails = []
        for key in ("rand", "cat"):
            rebuilt, placements = out[key]
            if len(placements) != self.N_POINTS:
                fails.append(f"{key}: {len(placements)} placements")
            elif not np.array_equal(rebuilt_matrix(rebuilt, placements), inp[key + "_d"]):
                fails.append(f"{key}: rebuilt comb does not reproduce the matrix")
            leaf_depths = np.asarray(out[key + "_parsed"].leaf_depths())
            if leaf_depths.size != rebuilt.n_teeth + 1:
                fails.append(f"{key}: Newick round trip has {leaf_depths.size} leaves, "
                             f"comb has {rebuilt.n_teeth + 1}")
            elif np.max(np.abs(leaf_depths - rebuilt.origin_height)) > 1e-9 * rebuilt.origin_height:
                fails.append(f"{key}: Newick round trip leaves are not all at depth "
                             f"{rebuilt.origin_height}")
        for radius, part in zip(self.RADII, out["balls"]):
            # on the p-adic comb, balls of radius 3^-m are the cells of width 3^-(m-1)
            cells = np.floor(inp["ball_pos"] / (3.0 * radius))
            if part.n != self.N_BALL or len(part.blocks) != np.unique(cells).size:
                fails.append(f"ball partition at radius {radius}: {len(part.blocks)} blocks "
                             f"for {np.unique(cells).size} cells")
        fails += self.check_cli(out["cli_rc"], self.cli_out, inp["spec"]["T"])
        split_tree, reduced = out["split"]
        survivors = sum(1 for d in split_tree.leaf_depths() if d == inp["split"][1])
        if reduced.n_teeth + 1 != survivors:
            fails.append(f"reduced comb has {reduced.n_teeth + 1} survivors, tree {survivors}")
        n_leaves = len(out["contour_tree"].leaves())
        if n_leaves != self.N_JUMPS:
            fails.append(f"contour tree has {n_leaves} leaves for {self.N_JUMPS} jumps")
        return fails

    def check_cli(self, rc: int, path: str, horizon: float) -> list[str]:
        if rc != 0:
            return [f"cli exited with {rc}"]
        try:
            with open(path) as fh:
                doc = json.load(fh)
            results = doc["results"]
            heights = [t["h"] for r in results for t in r["teeth"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"cli output unreadable: {exc!r}"]
        if len(results) != self.CLI_REPS:
            return [f"cli wrote {len(results)} replicates, not {self.CLI_REPS}"]
        if any(not h < horizon for h in heights):
            return [f"cli output has a tooth at or above T={horizon}"]
        return []

    def finish(self) -> list[str]:
        return []


WORKLOADS = {"esf": Esf, "population": Population, "genealogy": Genealogy}
