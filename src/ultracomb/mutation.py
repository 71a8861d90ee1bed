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

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .comb import Comb, Partition, _sample_positions
from .errors import NumericError, ValidationError, _malformed
from .intensity import _SPOT_CHECK_RTOL
from .rng import RandomSource

__all__ = [
    "ORIGIN_BRANCH",
    "MutationMeasure",
    "MutationSet",
    "ClonalSet",
    "scatter_mutations",
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
        """The constant molecular clock: mass theta per unit depth
        (theta finite and nonnegative)."""
        if not 0 <= theta < math.inf:
            raise ValidationError(f"theta must be nonnegative and finite, got {theta}")
        return cls(cumulative=lambda t: theta * np.asarray(t, dtype=float),
                   inverse=lambda y: np.asarray(y, dtype=float) / theta if theta > 0 else np.inf,
                   total_mass=math.inf if theta > 0 else 0.0)

    def validate_on(self, points: Sequence[float]) -> None:
        """Spot-check monotonicity and the inverse round-trip."""
        pts = sorted(float(p) for p in points)
        vals = [float(self.cumulative(p)) for p in pts]
        if any(b < a - _SPOT_CHECK_RTOL for a, b in zip(vals, vals[1:])):
            raise ValidationError("mutation measure must be nondecreasing")
        for p, v in zip(pts, vals):
            if v <= 0:
                continue
            back = float(self.inverse(v))
            if abs(back - p) > _SPOT_CHECK_RTOL * max(abs(p), 1.0):
                raise ValidationError(f"mutation measure inverse inconsistent at {p}")


class MutationSet:
    """An immutable set of mutation atoms, stored as two arrays sorted by
    (branch, depth): ``branch`` (int64) and ``depth`` (float64).

    Built from parallel branch and depth sequences in any order.  Two
    atoms at the same depth on the same branch would be
    indistinguishable and are rejected; equal depths on distinct
    branches are harmless (their carrier intervals are disjoint).
    """

    __slots__ = ("branch", "depth")

    def __init__(self, branch: Sequence[int], depth: Sequence[float]):
        branch = np.asarray(branch, dtype=np.int64)
        depth = np.asarray(depth, dtype=float)
        if branch.shape != depth.shape or branch.ndim != 1:
            raise ValidationError("branch and depth must be 1-d arrays of equal length")
        order = np.lexsort((depth, branch))
        branch, depth = branch[order], depth[order]
        dup = np.flatnonzero((branch[1:] == branch[:-1]) & (depth[1:] == depth[:-1]))
        if dup.size:
            k = int(dup[0])
            raise ValidationError(
                f"duplicate mutation atom on branch {int(branch[k])} at depth {float(depth[k])}")
        branch.flags.writeable = False
        depth.flags.writeable = False
        self.branch = branch
        self.depth = depth

    def __len__(self) -> int:
        return int(self.branch.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MutationSet):
            return NotImplemented
        return (np.array_equal(self.branch, other.branch)
                and np.array_equal(self.depth, other.depth))

    def __repr__(self) -> str:
        return f"MutationSet(n={len(self)})"

    def validate_for(self, comb: Comb) -> None:
        """Every branch must be the origin or a tooth, and every depth must
        lie strictly between 0 and its branch height; the first offending
        atom is named."""
        branch, depth = self.branch, self.depth
        tooth = (branch >= 0) & (branch < comb.n_teeth)
        bad_branch = ~tooth & (branch != ORIGIN_BRANCH)
        height = np.full(branch.shape, comb.origin_height)
        height[tooth] = comb.heights[branch[tooth]]
        bad = bad_branch | ~((0.0 < depth) & (depth < height))
        if bad.any():
            k = int(bad.argmax())
            if bad_branch[k]:
                raise ValidationError(f"atom branch {int(branch[k])} is not a tooth of the comb")
            raise ValidationError(
                f"atom depth {float(depth[k])} outside (0, {float(height[k])}) "
                f"on branch {int(branch[k])}")

    def clade_bounds(self, comb: Comb) -> tuple[np.ndarray, np.ndarray]:
        """Carrier intervals [start, end) of all atoms, in atom order, from
        one batched range-max query of the comb.

        An atom's interval runs from its branch position (0 for the
        origin) to the first tooth to the right taller than its depth (or
        the interval end).  Clades are laminar, and a strictly nested
        clade belongs to a strictly shallower atom.
        """
        self.validate_for(comb)
        tooth = self.branch != ORIGIN_BRANCH
        stop = comb.next_taller_batch(np.where(tooth, self.branch + 1, 0), self.depth)
        start = np.zeros(stop.shape)
        start[tooth] = comb.positions[self.branch[tooth]]
        end = np.full(stop.shape, comb.interval_length)
        inside = stop < comb.n_teeth
        end[inside] = comb.positions[stop[inside]]
        return start, end

    def to_list(self) -> list[dict]:
        return [{"branch": "origin" if b == ORIGIN_BRANCH else b, "depth": d}
                for b, d in zip(self.branch.tolist(), self.depth.tolist())]

    @classmethod
    def from_list(cls, data: Sequence[dict]) -> "MutationSet":
        """The set of a :meth:`to_list` document (ValidationError if malformed)."""
        with _malformed("mutation document"):
            branch = [_branch_index(item["branch"]) for item in data]
            depth = [float(item["depth"]) for item in data]
        return cls(branch, depth)


def _branch_index(value) -> int:
    """A document's branch: "origin" or an int (not a bool) in int64 range."""
    if value == "origin":
        return ORIGIN_BRANCH
    if type(value) is not int or not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"branch {value!r} is neither 'origin' nor an int64 tooth index")
    return value


def scatter_mutations(comb: Comb, measure: MutationMeasure, include_origin: bool,
                      rng: RandomSource) -> MutationSet:
    """Poisson mutations on the comb skeleton.

    One Poisson total, with mean the summed mass of the teeth (and of the
    origin if ``include_origin``), is placed on branches by inverting
    their cumulative masses, never on a zero-mass branch, and at depths
    by inverting the measure: one O(n) cumulative sum plus O(k log n)
    for k atoms.  Leaving the origin out realizes exact conditioning on
    a mutation-free origin, by independence of the Poisson restrictions.
    """
    gen = rng.gen
    heights = comb.heights
    if include_origin:
        heights = np.append(heights, comb.origin_height)
    masses = np.asarray(measure.cumulative(heights), dtype=float)
    if not np.all(np.isfinite(masses[:comb.n_teeth])):
        raise ValidationError("mutation measure must be finite on the tooth heights")
    if not np.all(np.isfinite(masses[comb.n_teeth:])):
        raise ValidationError("mutation mass of the origin branch is infinite; "
                              "drop include_origin or truncate the measure")
    cum = np.cumsum(masses)
    mass = cum[-1] if cum.size else 0.0
    total = int(gen.poisson(mass))
    branches = np.searchsorted(cum, mass * gen.random(total), side="right")
    branches = np.minimum(branches, heights.size - 1)
    depths = np.asarray(measure.inverse(gen.random(total) * masses[branches]), dtype=float)
    depths = np.minimum(depths, np.nextafter(heights[branches], 0.0))
    depths = np.maximum(depths, np.nextafter(0.0, 1.0))
    branches[branches == comb.n_teeth] = ORIGIN_BRANCH
    return MutationSet(branches, depths)


def _clade_forest(start: np.ndarray, end: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct clades of a laminar family, in preorder (start
    ascending, end descending), with each one's parent (-1 at the top)
    and its first atom.

    A clade's nesting level is the number of clades before it in
    preorder minus those that closed at or before its start; its parent
    is the last earlier clade one level up.
    """
    order = np.lexsort((-end, start))
    s, e = start[order], end[order]
    new = np.ones(s.size, dtype=bool)
    new[1:] = (s[1:] != s[:-1]) | (e[1:] != e[:-1])
    s, e, first = s[new], e[new], order[new]
    m = s.size
    idx = np.arange(m)
    level = idx - np.searchsorted(np.sort(e), s, side="right")
    keys = np.sort(level * m + idx)
    up = (level - 1) * m  # key of index 0 one level up
    parent = keys[np.searchsorted(keys, up + idx) - 1] - up
    return s, e, np.where(level > 0, parent, -1), first


def _allele_labels(comb: Comb, mutations: MutationSet, pts: np.ndarray) -> np.ndarray:
    """Index of the shallowest atom whose clade holds each position (-1
    if none).  That is the first atom of the innermost clade holding it:
    a sweep over clade ends and starts, in nesting order at equal
    positions, leaves that clade on top of the open-clade stack."""
    s, e, parent, first = _clade_forest(*mutations.clade_bounds(comb))
    idx = np.arange(s.size)
    # events: clade ends (innermost first) before clade starts (outermost
    # first) at equal positions; after each, the top of the stack
    at = np.concatenate((e, s))
    order = np.lexsort((np.concatenate((-idx, idx)), np.repeat([0, 1], s.size), at))
    # a trailing -1 answers "no event yet" (index -1) and "no clade"
    top = np.append(np.concatenate((parent, idx))[order], -1)
    inner = top[np.searchsorted(at[order], pts, side="right") - 1]
    return np.append(first, -1)[inner]


def assign_alleles(comb: Comb, mutations: MutationSet,
                   positions: Sequence[float]) -> tuple[Partition, list[int | None]]:
    """Allelic partition of sample positions under the
    infinitely-many-alleles rule.

    Each position gets the shallowest atom whose carrier interval
    contains it; uncovered positions share the clonal (root) label.
    Returns the partition, labelled by atom index with -1 for clonal
    positions, and the per-position atom index as a list with None for
    clonal positions.
    """
    labels = _allele_labels(comb, mutations, _sample_positions(comb, positions))
    return Partition(labels), [None if v < 0 else v for v in labels.tolist()]


@dataclass(frozen=True)
class ClonalSet:
    """A finite union of disjoint, sorted, right-open intervals of [0, a]."""

    intervals: tuple[tuple[float, float], ...]

    @property
    def total_measure(self) -> float:
        return sum(e - s for s, e in self.intervals)

    def contains(self, x: float) -> bool:
        # (x, inf) sorts after every stored interval that starts at or
        # before x: one bisection, O(log k)
        i = bisect_right(self.intervals, (x, math.inf)) - 1
        return i >= 0 and x < self.intervals[i][1]

    def covers(self, a: float, b: float) -> bool:
        """True if [a, b) sits inside a single stored interval."""
        if b <= a:
            return True
        i = bisect_right(self.intervals, (a, math.inf)) - 1
        return i >= 0 and self.intervals[i][1] >= b


def clonal_set(comb: Comb, mutations: MutationSet) -> ClonalSet:
    """Boundary points with no mutation on their lineage: the gaps
    between the outermost clades, which are disjoint and in start order."""
    start, end, parent, _ = _clade_forest(*mutations.clade_bounds(comb))
    top = parent < 0
    lo = np.concatenate(([0.0], end[top]))
    hi = np.concatenate((start[top], [comb.interval_length]))
    keep = hi > lo
    return ClonalSet(tuple(zip(lo[keep].tolist(), hi[keep].tolist())))


def clonal_laplace_exponent(tail: Callable, measure: MutationMeasure, lam: float) -> float:
    """Laplace exponent of the clonal subordinator of an unbounded
    coalescent point process:

        1 / phi(lam) = integral of exp(-M(x)) / (lam + tail(x)) M(dx),

    with M the cumulative mutation measure.  Substituting u = M(x) turns
    the integral into exp(-u) / (lam + tail(inverse(u))) du over
    (0, total mass), evaluated by adaptive quadrature to relative 1e-8.
    ``lam`` must be positive and finite.
    """
    if not 0 < lam < math.inf:
        raise ValidationError(f"lam must be positive and finite, got {lam}")
    from scipy import integrate  # slow to import; only this function needs it

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
