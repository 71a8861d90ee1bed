"""Batch command line front-end.

Subcommands tie the samplers, mutation rain and spectra into
reproducible experiments with machine-readable outputs.  Every
stochastic run requires a seed; outputs embed the full configuration so
a run can be reproduced from its own header.  Replicates are sharded
across ``--jobs`` workers with per-replicate streams derived from the
seed (population mode: one stream per block of replicates, drawn whole
by the shard that holds its first replicate), so results do not depend
on the job count.

Exit codes: 0 ok, 2 validation, 3 numeric/resource (memory exhaustion
and arrays numpy refuses as too big included), 4 I/O.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .comb import Comb
from .contour import ContourFunction, sphere_comb_from_contour, tree_from_contour
from .errors import (NumericError, ResourceError, UltracombError, ValidationError, _integer,
                     _malformed)
from .intensity import (ExponentialLifetime, IntensityModel, PopulationModel, parse_lifetime,
                        solve_scale_function)
from .mutation import MutationMeasure, scatter_mutations
from .rng import RandomSource
from .sampling import (padic_comb, reduce_population_tree, sample_cpp,
                       sample_kingman_comb, sample_splitting_tree)
from .spectrum import (_check_tail_spectrum, _tail_spectrum_blocks, _tail_spectrum_rows,
                       sample_kingman_allelic_partition, spectrum_of_partition)

CPP_MODELS = ("cpp-brownian", "cpp-critical-bd", "cpp-from-W")
STOCHASTIC_MODELS = {"kingman", *CPP_MODELS, "splitting"}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _config_dict(args, keys) -> dict:
    cfg = {"tool": "ultracomb", "version": __version__, "subcommand": args.command}
    for key in keys:
        cfg[key] = getattr(args, key.replace("-", "_"))
    return cfg


def _intensity_for(args) -> IntensityModel:
    if args.model == "cpp-brownian":
        return IntensityModel.brownian()
    if args.model == "cpp-critical-bd":
        return IntensityModel.critical_bd()
    if args.model == "cpp-from-W":
        spec = _load_model_spec(args.model_spec)
        solution = solve_scale_function(spec["model"], spec["T"], spec["steps"])
        return IntensityModel.from_scale_grid(solution.times, solution.values)
    raise ValidationError(f"model {args.model!r} has no intensity")


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed JSON in {path!r}: {exc}") from exc


def _load_model_spec(path: str | None) -> dict:
    if not path:
        raise ValidationError("--model-spec is required for this model")
    raw = _read_json(path)
    with _malformed(f"model spec {path!r}"):
        birth = raw["birth_rate"]
        if isinstance(birth, dict):
            grid = np.asarray(raw["birth_rate"]["grid"], dtype=float)
            if grid.ndim != 2 or grid.shape[1] != 2 or not grid.size:
                raise ValueError(f"birth-rate grid must have shape (k, 2), k >= 1, not {grid.shape}")
            ts, bs = grid[:, 0], grid[:, 1]
            if not (np.all(np.isfinite(ts)) and np.all(np.diff(ts) > 0.0)):
                raise ValueError("birth-rate grid times must be finite and strictly increasing")
            rate = lambda t: float(np.interp(t, ts, bs))  # noqa: E731
        else:
            rate = _number("birth_rate", birth)
        lifetime = parse_lifetime(raw.get("lifetime", "immortal"))
        model = PopulationModel(rate, lifetime)
        return {"model": model, "T": _number("T", raw["T"]),
                "steps": _integer("steps", raw.get("steps", 10_000))}


def _number(what: str, value) -> float:
    if type(value) not in (int, float):  # a JSON number: not a bool, string or null
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _require_seed(args) -> None:
    if getattr(args, "seed", None) is None:
        raise ValidationError("--seed is mandatory for stochastic runs")


def _shard(reps: int, jobs: int) -> list[range]:
    jobs = max(1, min(jobs, os.cpu_count() or 1))  # one shard per worker, one worker per CPU
    bounds = [reps * k // jobs for k in range(jobs + 1)]  # integers: exact at any reps
    return [range(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _run_sharded(worker, args, count: int) -> list:
    """Run worker(args, shard) over args.jobs shards of range(count); merge in order."""
    shards = _shard(count, args.jobs)
    if len(shards) <= 1:
        return worker(args, range(count))
    from concurrent.futures import ProcessPoolExecutor  # late: multiprocessing slows imports
    with ProcessPoolExecutor(max_workers=len(shards)) as pool:
        return [out for part in pool.map(worker, [args] * len(shards), shards) for out in part]


# ----------------------------------------------------------------------
# sample

def _sample_one(args, rng: RandomSource, model: IntensityModel | None) -> dict:
    if args.model == "kingman":
        return sample_kingman_comb(args.n_teeth, rng).to_dict()
    if args.model in CPP_MODELS:
        cpps = sample_cpp(model, args.T, args.eps, rng)
        doc = cpps.comb.to_dict()
        # null when the model cannot resolve the tail past the horizon
        doc["killing_height"] = (cpps.killing_height
                                 if math.isfinite(cpps.killing_height) else None)
        return doc
    if args.model == "splitting":
        tree = sample_splitting_tree(args.b, parse_lifetime(args.lifetime), args.T, rng)
        doc = reduce_population_tree(tree, args.T).to_dict()
        doc["newick"] = tree.newick()
        return doc
    raise ValidationError(f"unknown model {args.model!r}")


def _sample_worker(args, replicates: range) -> list[dict]:
    root = RandomSource(args.seed)
    # one intensity (and one scale solve for cpp-from-W) per shard
    model = _intensity_for(args) if replicates and args.model in CPP_MODELS else None
    return [_sample_one(args, root.spawn(r), model) for r in replicates]


def cmd_sample(args) -> int:
    if args.model == "padic":
        results = [padic_comb(args.p, args.depth).to_dict()]
    else:
        _require_seed(args)
        if args.reps < 0:
            raise ValidationError(f"--reps must be nonnegative, got {args.reps}")
        results = _run_sharded(_sample_worker, args, args.reps)
    cfg = _config_dict(args, ["model", "T", "eps", "seed", "reps", "n_teeth",
                              "p", "depth", "b", "lifetime", "jobs"])
    _write_text(args.out, json.dumps({"config": cfg, "results": results}, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# mutate

def _load_comb(path: str, index: int) -> Comb:
    raw = _read_json(path)
    if "teeth" in raw:
        return Comb.from_dict(raw)
    if "results" in raw:
        if not 0 <= index < len(raw["results"]):
            raise ValidationError(f"comb index {index} out of range")
        return Comb.from_dict(raw["results"][index])
    raise ValidationError(f"{path!r} holds neither a comb nor a sample output")


def cmd_mutate(args) -> int:
    _require_seed(args)
    comb = _load_comb(getattr(args, "in"), args.index)
    rng = RandomSource(args.seed)
    ms = scatter_mutations(comb, MutationMeasure.homogeneous(args.theta),
                           include_origin=args.include_origin, rng=rng)
    cfg = _config_dict(args, ["theta", "include_origin", "seed", "index"])
    cfg["in"] = getattr(args, "in")
    _write_text(args.out, json.dumps({"config": cfg, "mutations": ms.to_list()},
                                     sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# spectrum

def _spectrum_worker(args, replicates: range) -> list[np.ndarray]:
    root = RandomSource(args.seed)
    out = []
    for r in replicates:
        part = sample_kingman_allelic_partition(args.n, args.theta, root.spawn(r),
                                                n_teeth=args.n_teeth)
        out.append(np.asarray(spectrum_of_partition(part).counts))
    return out


def _population_worker(args, replicates: range) -> list[tuple[np.ndarray, np.ndarray]]:
    return _tail_spectrum_blocks(args.model.removeprefix("cpp-"), args.theta, args.T, args.eps,
                                 args.q, args.reps, RandomSource(args.seed), replicates)


def cmd_spectrum(args) -> int:
    _require_seed(args)
    lines = []
    if args.mode == "sample":
        if args.model != "kingman":
            raise ValidationError("sample mode supports --model kingman only")
        if args.reps < 1:
            raise ValidationError(f"sample mode needs --reps >= 1, got {args.reps}")
        if args.n_teeth is None:
            args.n_teeth = max(64, 50 * args.n)
        spectra = _run_sharded(_spectrum_worker, args, args.reps)
        totals = np.sum(spectra, axis=0)
        cfg = _config_dict(args, ["mode", "model", "theta", "n", "reps", "seed",
                                  "n_teeth", "jobs"])
        lines.append("# config: " + json.dumps(cfg, sort_keys=True))
        lines.append("k,count")
        for k, count in enumerate(totals, start=1):
            lines.append(f"{k},{int(count)}")
    else:
        if args.model not in ("cpp-critical-bd", "cpp-brownian"):
            raise ValidationError("population mode needs --model cpp-critical-bd or cpp-brownian")
        model = args.model.removeprefix("cpp-")
        _check_tail_spectrum(model, args.theta, args.T, args.eps, args.q, args.reps)
        # a block is drawn whole by the shard its first replicate falls in
        blocks = _run_sharded(_population_worker, args, args.reps)
        rows = _tail_spectrum_rows(model, args.theta, args.q, blocks)
        cfg = _config_dict(args, ["mode", "model", "theta", "T", "eps", "q",
                                  "reps", "seed", "jobs"])
        lines.append("# config: " + json.dumps(cfg, sort_keys=True))
        lines.append("q,estimate,stderr,target")
        for row in rows:
            lines.append(",".join(_fmt(v) for v in (row.q, row.estimate, row.stderr, row.target)))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ----------------------------------------------------------------------
# solve-w

def cmd_solve_w(args) -> int:
    if args.model_spec:
        spec = _load_model_spec(args.model_spec)
        model, horizon, steps = spec["model"], spec["T"], spec["steps"]
    elif not 0 < args.b < math.inf:
        raise ValidationError(f"--b must be positive and finite, got {args.b}")
    elif args.model == "yule":
        model, horizon, steps = PopulationModel(args.b), args.T, args.steps
    elif args.model == "critical-bd":
        model = PopulationModel(args.b, ExponentialLifetime(args.b))
        horizon, steps = args.T, args.steps
    elif args.model == "bd":
        if args.death_rate is None:
            raise ValidationError("--death-rate is required for --model bd")
        model = PopulationModel(args.b, ExponentialLifetime(args.death_rate))
        horizon, steps = args.T, args.steps
    else:
        raise ValidationError(f"unknown model {args.model!r}")
    solution = solve_scale_function(model, horizon, steps)
    cfg = _config_dict(args, ["model", "b", "death_rate", "T", "steps", "model_spec"])
    cfg.update(T=horizon, steps=steps)
    if args.model_spec:  # the spec replaces the flag-only model parameters
        cfg.update(model=None, b=None, death_rate=None)
    lines = ["# config: " + json.dumps(cfg, sort_keys=True), "t,W,nu_tail"]
    for t, w, nu in zip(solution.times, solution.values, 1.0 / solution.values):
        lines.append(f"{_fmt(t)},{_fmt(w)},{_fmt(nu)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ----------------------------------------------------------------------
# treecode

def cmd_treecode(args) -> int:
    contour = ContourFunction.from_dict(_read_json(getattr(args, "in")))
    if args.to == "newick":
        _write_text(args.out, tree_from_contour(contour).newick() + "\n")
    else:
        if args.T is None:
            raise ValidationError("--T is required when converting to a comb")
        comb = sphere_comb_from_contour(contour, args.T)
        cfg = _config_dict(args, ["to", "T"])
        cfg["in"] = getattr(args, "in")
        _write_text(args.out, json.dumps({"config": cfg, "results": [comb.to_dict()]},
                                         sort_keys=True))
    return 0


# ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="ultracomb",
                                     description="Random ultrametric trees as combs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw combs from a model")
    p.add_argument("--model", required=True,
                   choices=sorted(STOCHASTIC_MODELS | {"padic"}))
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--n-teeth", type=int, default=100)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--lifetime", default="immortal")
    p.add_argument("--model-spec")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("mutate", help="rain mutations on a comb")
    p.add_argument("--in", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--include-origin", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("spectrum", help="allele frequency spectra")
    p.add_argument("--mode", choices=["sample", "population"], required=True)
    p.add_argument("--model", default="kingman")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--n-teeth", type=int)
    p.add_argument("--T", type=float, default=50.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--q", type=float, action="append")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("solve-w", help="solve the population scale equation")
    p.add_argument("--model", default="yule", choices=["yule", "critical-bd", "bd"])
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--death-rate", type=float)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--model-spec")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_solve_w)

    p = sub.add_parser("treecode", help="convert a contour to Newick or a comb")
    p.add_argument("--in", required=True)
    p.add_argument("--to", choices=["newick", "comb"], required=True)
    p.add_argument("--T", type=float)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_treecode)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "q", None) is None and args.command == "spectrum":
        args.q = [1.0]
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except ValidationError as exc:
        print(f"ultracomb: validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ResourceError) as exc:
        print(f"ultracomb: numeric error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, ValueError) as exc:
        # numpy refuses, with a ValueError, an array larger than any memory
        # and a Poisson mean past int64 (more draws than any memory holds)
        if not isinstance(exc, MemoryError) and not str(exc).startswith(
                ("array is too big", "Maximum allowed size exceeded", "lam value too large")):
            raise
        print(f"ultracomb: resource error: out of memory ({str(exc) or 'allocation refused'})",
              file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"ultracomb: i/o error: {exc}", file=sys.stderr)
        return 4
    except UltracombError as exc:  # pragma: no cover - safety net
        print(f"ultracomb: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
