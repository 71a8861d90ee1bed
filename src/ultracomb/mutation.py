"""Poisson mutations on a comb skeleton and what they partition.

Mutations live on branches: the origin branch (index -1) or a tooth
(its index).  An atom's depth is measured back from the present and
must stay below its branch height.  The carriers of a mutation form a
right-open interval starting at the branch position and ending at the
first taller tooth to the right; a boundary point's allele is the
shallowest atom whose carrier interval contains it, and points covered
by no atom keep the root's type (clonal).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import integrate

from .comb import Comb, Partition
from .errors import NumericError, ValidationError
from .rng import RandomSource

__all__ = [
    "ORIGIN_BRANCH",
    "MutationMeasure",
    "MutationAtom",
    "MutationSet",
    "CladeInterval",
    "ClonalSet",
    "scatter_mutations",
    "mutation_clade",
    "assign_alleles",
    "clonal_set",
    "clonal_laplace_exponent",
]

ORIGIN_BRANCH = -1


@dataclass(frozen=True)
class MutationMeasure:
    """A mutation rate as a cumulative function with its inverse.

    ``cumulative(t)`` is the measure of [0, t] (nondecreasing, 0 at 0);
    ``inverse`` is its right inverse, used for depth sampling.
    ``total_mass`` is the mass of [0, inf), infinite for the homogeneous
    clock.
    """

    cumulative: Callable
    inverse: Callable
    total_mass: float = math.inf

    @classmethod
    def homogeneous(cls, theta: float) -> "MutationMeasure":
        """The constant molecular clock: mass theta per unit depth."""
        if theta < 0:
            raise ValidationError("theta must be nonnegative")
        return cls(cumulative=lambda t: theta * np.asarray(t, dtype=float),
                   inverse=lambda y: np.asarray(y, dtype=float) / theta if theta > 0 else np.inf,
                   total_mass=math.inf if theta > 0 else 0.0)

    def validate_on(self, points: Sequence[float], rtol: float = 1e-9) -> None:
        pts = sorted(float(p) for p in points)
        vals = [float(self.cumulative(p)) for p in pts]
        if any(b < a - rtol for a, b in zip(vals, vals[1:])):
            raise ValidationError("mutation measure must be nondecreasing")
        for p, v in zip(pts, vals):
            if v <= 0:
                continue
            back = float(self.inverse(v))
            if abs(back - p) > rtol * max(abs(p), 1.0):
                raise ValidationError(f"mutation measure inverse inconsistent at {p}")


class MutationAtom(NamedTuple):
    branch: int  # ORIGIN_BRANCH or a tooth index
    depth: float


class MutationSet:
    """An immutable, (branch, depth)-sorted set of mutation atoms.

    Two atoms at the same depth on the same branch would be
    indistinguishable and are rejected; equal depths on distinct
    branches are harmless (their carrier intervals are disjoint).
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Sequence[tuple[int, float]]):
        normalized = sorted(MutationAtom(int(b), float(d)) for b, d in atoms)
        for a, b in zip(normalized, normalized[1:]):
            if a == b:
                raise ValidationError(f"duplicate mutation atom {a}")
        self.atoms = tuple(normalized)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MutationSet):
            return NotImplemented
        return self.atoms == other.atoms

    def __repr__(self) -> str:
        return f"MutationSet(n={len(self.atoms)})"

    def validate_for(self, comb: Comb) -> None:
        for atom in self.atoms:
            _branch_height(comb, atom)  # raises on bad branch/depth

    def to_list(self) -> list[dict]:
        return [{"branch": "origin" if a.branch == ORIGIN_BRANCH else a.branch,
                 "depth": a.depth} for a in self.atoms]

    @classmethod
    def from_list(cls, data: Sequence[dict]) -> "MutationSet":
        try:
            atoms = [(ORIGIN_BRANCH if item["branch"] == "origin" else int(item["branch"]),
                      float(item["depth"])) for item in data]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed mutation document: {exc}") from exc
        return cls(atoms)

    def to_json(self) -> str:
        return json.dumps(self.to_list())

    @classmethod
    def from_json(cls, text: str) -> "MutationSet":
        return cls.from_list(json.loads(text))


def _branch_height(comb: Comb, atom: MutationAtom) -> float:
    if atom.branch == ORIGIN_BRANCH:
        height = comb.origin_height
    elif 0 <= atom.branch < comb.n_teeth:
        height = float(comb.heights[atom.branch])
    else:
        raise ValidationError(f"atom branch {atom.branch} is not a tooth of the comb")
    if not 0.0 < atom.depth < height:
        raise ValidationError(
            f"atom depth {atom.depth} outside (0, {height}) on branch {atom.branch}")
    return height


def scatter_mutations(comb: Comb, measure: MutationMeasure, include_origin: bool,
                      rng: RandomSource) -> MutationSet:
    """Poisson mutations on the comb skeleton.

    Each branch of height H gets Poisson(cumulative(H)) atoms with
    depths drawn by inverting the cumulative measure.  Leaving the
    origin branch out realizes exact conditioning on a mutation-free
    origin, by independence of the Poisson restrictions.
    """
    gen = rng.gen
    atoms: list[tuple[int, float]] = []
    branch_heights = comb.heights
    masses = np.asarray(measure.cumulative(branch_heights), dtype=float)
    if np.any(~np.isfinite(masses)):
        raise ValidationError("mutation measure must be finite on the tooth heights")
    counts = gen.poisson(masses) if comb.n_teeth else np.empty(0, dtype=int)
    total = int(counts.sum()) if comb.n_teeth else 0
    if total:
        branches = np.repeat(np.arange(comb.n_teeth), counts)
        u = gen.random(total)
        depths = np.asarray(measure.inverse(u * masses[branches]), dtype=float)
        depths = np.minimum(depths, np.nextafter(branch_heights[branches], 0.0))
        depths = np.maximum(depths, np.nextafter(0.0, 1.0))
        atoms.extend(zip(branches.tolist(), depths.tolist()))
    if include_origin:
        origin_mass = float(measure.cumulative(comb.origin_height))
        if not math.isfinite(origin_mass):
            raise ValidationError("mutation mass of the origin branch is infinite; "
                                  "drop include_origin or truncate the measure")
        k = int(gen.poisson(origin_mass))
        if k:
            u = gen.random(k)
            d = np.asarray(measure.inverse(u * origin_mass), dtype=float)
            d = np.minimum(d, np.nextafter(comb.origin_height, 0.0))
            d = np.maximum(d, np.nextafter(0.0, 1.0))
            atoms.extend((ORIGIN_BRANCH, float(x)) for x in d)
    return MutationSet(atoms)


@dataclass(frozen=True)
class CladeInterval:
    """The carrier interval [start, end) of one mutation atom."""

    atom: MutationAtom
    start: float
    end: float

    @property
    def measure(self) -> float:
        return self.end - self.start


def _clade_bounds(comb: Comb, atom: MutationAtom) -> tuple[float, float]:
    if atom.branch == ORIGIN_BRANCH:
        start = 0.0
        scan_from = 0
    else:
        start = float(comb.positions[atom.branch])
        scan_from = atom.branch + 1
    stop = comb.next_taller(scan_from, atom.depth)
    end = float(comb.positions[stop]) if stop < comb.n_teeth else comb.interval_length
    return start, end


def mutation_clade(comb: Comb, atom) -> CladeInterval:
    """Carriers of one mutation: from its branch position to the first
    tooth to the right taller than its depth (or the interval end)."""
    atom = MutationAtom(int(atom[0]), float(atom[1]))
    _branch_height(comb, atom)
    start, end = _clade_bounds(comb, atom)
    return CladeInterval(atom=atom, start=start, end=end)


def assign_alleles(comb: Comb, mutations: MutationSet,
                   positions: Sequence[float]) -> tuple[Partition, list[int | None]]:
    """Allelic partition of sample positions under the
    infinitely-many-alleles rule.

    Each position gets the shallowest atom whose carrier interval
    contains it; uncovered positions share the clonal (root) label,
    reported as None.  Returns the partition and the per-position atom
    index.
    """
    pts = np.asarray(list(positions), dtype=float)
    if pts.size and (pts.min() < 0.0 or pts.max() > comb.interval_length):
        raise ValidationError("sample positions outside the comb interval")
    mutations.validate_for(comb)
    order = np.argsort(pts, kind="stable")
    sorted_pts = pts[order]
    labels = np.full(pts.size, -2, dtype=int)  # -2 = unassigned
    atoms = mutations.atoms
    by_depth = sorted(range(len(atoms)), key=lambda i: atoms[i].depth)
    assigned = 0
    for i in by_depth:
        if assigned == pts.size:
            break
        start, end = _clade_bounds(comb, atoms[i])
        lo = int(np.searchsorted(sorted_pts, start, side="left"))
        hi = int(np.searchsorted(sorted_pts, end, side="left"))
        if hi <= lo:
            continue
        window = labels[lo:hi]
        fresh = window == -2
        window[fresh] = i
        assigned += int(fresh.sum())
    final = np.full(pts.size, -1, dtype=int)
    final[order] = np.where(labels == -2, -1, labels)
    out_labels: list[int | None] = [None if v == -1 else int(v) for v in final]
    return Partition.from_labels(out_labels), out_labels


@dataclass(frozen=True)
class ClonalSet:
    """A finite union of disjoint, sorted, right-open intervals of [0, a]."""

    intervals: tuple[tuple[float, float], ...]

    @property
    def total_measure(self) -> float:
        return sum(e - s for s, e in self.intervals)

    def contains(self, x: float) -> bool:
        starts = [s for s, _ in self.intervals]
        i = bisect_right(starts, x) - 1
        return i >= 0 and x < self.intervals[i][1]

    def covers(self, a: float, b: float) -> bool:
        """True if [a, b) sits inside a single stored interval."""
        if b <= a:
            return True
        starts = [s for s, _ in self.intervals]
        i = bisect_right(starts, a) - 1
        return i >= 0 and self.intervals[i][1] >= b


def _merged_clades(comb: Comb, mutations: MutationSet) -> list[tuple[float, float]]:
    spans = sorted(_clade_bounds(comb, atom) for atom in mutations)
    merged: list[list[float]] = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return [(s, e) for s, e in merged]


def clonal_set(comb: Comb, mutations: MutationSet) -> ClonalSet:
    """Boundary points with no mutation on their lineage: the complement
    of the union of all carrier intervals."""
    mutations.validate_for(comb)
    covered = _merged_clades(comb, mutations)
    out: list[tuple[float, float]] = []
    cursor = 0.0
    for s, e in covered:
        if s > cursor:
            out.append((cursor, s))
        cursor = max(cursor, e)
    if cursor < comb.interval_length:
        out.append((cursor, comb.interval_length))
    return ClonalSet(tuple(out))


def clonal_laplace_exponent(tail: Callable, measure: MutationMeasure, lam: float) -> float:
    """Laplace exponent of the clonal subordinator of an unbounded
    coalescent point process:

        1 / phi(lam) = integral of exp(-M(x)) / (lam + tail(x)) M(dx),

    with M the cumulative mutation measure.  Substituting u = M(x) turns
    the integral into exp(-u) / (lam + tail(inverse(u))) du over
    (0, total mass), evaluated by adaptive quadrature to relative 1e-8.
    """
    if lam <= 0:
        raise ValidationError("lam must be positive")

    def integrand(u):
        x = measure.inverse(u)
        denom = lam + float(tail(x))
        return math.exp(-u) / denom

    upper = measure.total_mass if math.isfinite(measure.total_mass) else np.inf
    try:
        value, abserr = integrate.quad(integrand, 0.0, upper, epsabs=0.0,
                                       epsrel=1e-10, limit=200)
    except Exception as exc:
        raise NumericError(f"clonal exponent integral failed: {exc}") from exc
    if not math.isfinite(value) or value <= 0.0:
        raise NumericError(f"clonal exponent integral is divergent or nonpositive ({value})")
    if abserr > 1e-8 * abs(value):
        raise NumericError(f"clonal exponent integral did not reach 1e-8 accuracy "
                           f"(value {value}, error {abserr})")
    return 1.0 / value
