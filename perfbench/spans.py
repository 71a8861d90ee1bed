"""Span recording around the public functions of each ultracomb layer.

A :class:`Recorder` patches every module namespace (and class) of the
package that binds a traced function, so a call is recorded whichever
name it was reached through.  Spans are kept in memory as flat arrays
(name, start, end, parent span, op id) and written out when the run
ends.  Work counters are gathered by hooks that run after a span
closes; the clock is skewed back by each hook's duration, so counting
never shows up as layer time.

Run ``python3 perfbench/spans.py TRACE.npz`` to print the self time per
span name of a written trace.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# layer modules of the package; `errors` holds only exception classes
LAYERS = ("rng", "sampling", "mutation", "spectrum", "comb", "tree",
          "contour", "intensity", "cli")

# span names that differ from "<layer>.<function>"
SPAN_NAMES = {
    "sample_kingman_comb": "sampling.kingman",
    "sample_cpp": "sampling.cpp",
    "sample_cpp_fixed_width": "sampling.cpp",
    "sample_splitting_tree": "sampling.splitting",
    "reduce_population_tree": "sampling.reduce",
    "scatter_mutations": "mutation.scatter",
    "assign_alleles": "mutation.assign",
    "validate_ultrametric": "comb.validate",
    "comb_from_ultrametric": "comb.from_ultrametric",
    "comb_to_tree": "comb.to_tree",
    "ball_partition": "comb.ball_partition",
    "parse_newick": "tree.parse",
    "tree_from_contour": "contour.decode",
    "sphere_comb_from_contour": "contour.sphere",
    "solve_scale_function": "intensity.solve",
    "normalized_tail_spectrum": "spectrum.tail",
    "population_spectrum": "spectrum.population",
    "sample_kingman_allelic_partition": "spectrum.kingman_partition",
    "spectrum_of_partition": "spectrum.of_partition",
}

# (module, class, method, span name) for methods traced on their class
METHODS = (
    ("rng", "RandomSource", "__init__", "rng"),
    ("rng", "RandomSource", "spawn", "rng"),
    ("comb", "Comb", "__init__", "comb.construct"),
    ("comb", "Comb", "from_arrays", "comb.construct"),
    ("comb", "Comb", "next_taller", "comb.next_taller"),
    ("tree", "Tree", "newick", "tree.newick"),
    ("intensity", "IntensityModel", "brownian", "intensity.model"),
    ("intensity", "IntensityModel", "critical_bd", "intensity.model"),
    ("intensity", "IntensityModel", "from_scale_grid", "intensity.model"),
)


def _hooks(uc):
    """Counters gathered at span boundaries: name -> hook(rec, args, out)."""
    solve_keys: set = set()

    def solve(rec, args, out):
        model, horizon, steps = args[0], args[1], args[2]
        rec.count("intensity.solve.steps", int(steps))
        key = (rec.op_id, repr(model), float(horizon), int(steps))
        if key not in solve_keys:
            solve_keys.add(key)
            rec.count("intensity.solve.distinct", 1)

    def assign(rec, args, out):
        rec.count("mutation.assign.atoms_in", len(args[1]))
        rec.count("mutation.assign.useful", len({v for v in out[1] if v is not None}))

    def population(rec, args, out):
        rec.count("spectrum.population.atoms_in", len(args[1]))
        rec.count("spectrum.population.useful", len(out.masses))

    def validate(rec, args, out):
        rec.count("comb.validate.matrix_n", int(out.shape[0]))

    return {
        "sampling.kingman": lambda rec, a, o: rec.count("sampling.kingman.teeth", o.n_teeth),
        "sampling.cpp": lambda rec, a, o: rec.count(
            "sampling.cpp.teeth", o.n_teeth if isinstance(o, uc.Comb) else o.comb.n_teeth),
        "sampling.splitting": lambda rec, a, o: rec.count(
            "sampling.splitting.nodes", sum(1 for _ in o.nodes())),
        "mutation.scatter": lambda rec, a, o: rec.count("mutation.atoms", len(o)),
        "mutation.assign": assign,
        "spectrum.population": population,
        "comb.validate": validate,
        "intensity.solve": solve,
        # every non-root node of a Newick string carries one ':length'
        "tree.newick": lambda rec, a, o: rec.count("tree.nodes", o.count(":") + 1),
        "tree.parse": lambda rec, a, o: rec.count("tree.nodes", a[0].count(":") + 1),
    }


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, uc):
        self.uc = uc
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1  # spans outside an op (checks) carry -1 and are dropped
        self.skew = 0  # ns of hook time removed from the clock
        self.counters: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- clock and spans ------------------------------------------------

    def count(self, key: str, amount: float) -> None:
        if self.op_id >= 0:
            self.counters[key] += amount

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span: str, hook):
        nid = self._intern(span)
        resource_error = self.uc.ResourceError
        counts_errors = span.startswith("sampling.")
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.op.append(rec.op_id)
            rec.end.append(0)
            rec._stack.append(i)
            rec.start.append(time.perf_counter_ns() - rec.skew)
            try:
                out = fn(*args, **kwargs)
            except resource_error:
                rec.end[i] = time.perf_counter_ns() - rec.skew
                rec._stack.pop()
                if counts_errors and rec.op_id >= 0:
                    rec.errors[span] += 1
                raise
            except BaseException:
                rec.end[i] = time.perf_counter_ns() - rec.skew
                rec._stack.pop()
                raise
            rec.end[i] = time.perf_counter_ns() - rec.skew
            rec._stack.pop()
            if hook is not None:
                t0 = time.perf_counter_ns()
                hook(rec, args, out)
                rec.skew += time.perf_counter_ns() - t0
            return out

        return traced

    # -- patching -------------------------------------------------------

    def _build_patches(self) -> None:
        uc = self.uc
        hooks = _hooks(uc)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ultracomb" or name.startswith("ultracomb."))]
        targets: list[tuple[object, str]] = []  # (function, span name)
        for layer in LAYERS:
            mod = getattr(uc, layer)
            public = ["main"] if layer == "cli" else mod.__all__
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    span = "cli" if layer == "cli" else SPAN_NAMES.get(attr, f"{layer}.{attr}")
                    targets.append((fn, span))
        for fn, span in targets:
            wrapped = self._wrap(fn, span, hooks.get(span))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn, wrapped))
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(getattr(uc, layer), cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span, hooks.get(span)))
            else:
                wrapped = self._wrap(raw, span, hooks.get(span))
            self._patches.append((cls, meth, raw, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns of traced ops, with each span's self time."""
        op = np.frombuffer(self.op, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = (end - start).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        keep = op >= 0
        return {"index": np.nonzero(keep)[0], "op": op[keep], "name": name[keep],
                "parent": parent[keep], "start": start[keep], "end": end[keep],
                "dur": dur[keep], "self": dur[keep] - child[keep]}

    def self_ns_by_name(self, cols) -> dict[str, float]:
        totals = np.bincount(cols["name"], weights=cols["self"], minlength=len(self.names))
        return dict(zip(self.names, totals.tolist()))

    def calls_by_name(self, cols) -> dict[str, int]:
        calls = np.bincount(cols["name"], minlength=len(self.names))
        return dict(zip(self.names, calls.tolist()))

    def covered_ns_by_op(self, cols, minlength: int) -> np.ndarray:
        """Per op id, the time its top-level spans cover, which equals the
        summed self times of all its spans."""
        top = cols["parent"] < 0
        return np.bincount(cols["op"][top], weights=cols["dur"][top], minlength=minlength)

    def write(self, path: str) -> None:
        """Save the spans of traced ops as a compressed numpy archive."""
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), span=cols["index"],
                            parent=cols["parent"], op=cols["op"], name=cols["name"],
                            start_ns=cols["start"], end_ns=cols["end"], self_ns=cols["self"])


def summarize(path: str) -> str:
    """Self time and call count per span name of a written trace."""
    with np.load(path) as trace:
        names, name, own, op = trace["names"], trace["name"], trace["self_ns"], trace["op"]
    n_ops = max(np.unique(op).size, 1)
    self_ns = np.bincount(name, weights=own, minlength=names.size) / n_ops / 1e6
    calls = np.bincount(name, minlength=names.size) / n_ops
    lines = [f"{n_ops} traced ops", f"{'span':34s} {'self ms/op':>11s} {'calls/op':>10s}"]
    for i in np.argsort(-self_ns):
        if calls[i]:
            lines.append(f"{names[i]:34s} {self_ns[i]:11.4f} {calls[i]:10.2f}")
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 perfbench/spans.py TRACE.npz")
    print(summarize(sys.argv[1]))
