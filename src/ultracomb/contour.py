"""Trees coded by piecewise-linear jumping contours, and their level spheres.

A contour is a cadlag path with nonnegative jumps and slope -1 in
between, reaching 0 at the end of its support.  Each jump top is a leaf
of the coded tree, each inter-jump trough is a divergence, and the path
value is distance from the root.  The sphere of the coded tree at a
level is a comb whose teeth are the depths of the excursions of the
path below that level.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .comb import Comb
from .errors import EmptySphereError, ValidationError, _malformed
from .tree import Tree, _tree_from_separators

__all__ = ["ContourFunction", "tree_from_contour", "sphere_comb_from_contour"]

_CONSISTENCY_RTOL = 1e-9


@dataclass(frozen=True)
class ContourFunction:
    """A cadlag path: jumps at ``times`` from ``before`` up to ``after``,
    slope -1 in between, clamped at 0.

    ``before[i]`` must equal the value the previous segment decays to at
    ``times[i]`` (or 0 once the path has hit 0).  Zero-size jumps are
    rejected: they are not breakpoints.
    """

    times: tuple[float, ...]
    before: tuple[float, ...]
    after: tuple[float, ...]

    def __post_init__(self):
        k = len(self.times)
        if k == 0:
            raise ValidationError("a contour needs at least one jump")
        if not (len(self.before) == len(self.after) == k):
            raise ValidationError("times, before and after must have equal length")
        if any(not math.isfinite(x) for x in self.times + self.before + self.after):
            raise ValidationError("contour breakpoints must be finite")
        if any(self.times[i] >= self.times[i + 1] for i in range(k - 1)):
            raise ValidationError("jump times must be strictly increasing")
        if self.times[0] < 0.0:
            raise ValidationError("jump times must be nonnegative")
        scale = max(max(self.after), 1.0)
        for i in range(k):
            jump = self.after[i] - self.before[i]
            if jump < 0.0:
                raise ValidationError(f"negative jump at time {self.times[i]}")
            if jump == 0.0:
                raise ValidationError(f"zero-size jump at time {self.times[i]} is not a breakpoint")
            if self.before[i] < 0.0:
                raise ValidationError("contour values must be nonnegative")
            expected = 0.0 if i == 0 else max(self.after[i - 1] - (self.times[i] - self.times[i - 1]), 0.0)
            if abs(self.before[i] - expected) > _CONSISTENCY_RTOL * scale:
                raise ValidationError(
                    f"inconsistent value before jump at time {self.times[i]}: "
                    f"stored {self.before[i]}, slope -1 gives {expected}"
                )

    @classmethod
    def from_jumps(cls, jumps: list[tuple[float, float]]) -> "ContourFunction":
        """Build a contour from (time, jump size) pairs; befores are derived."""
        jumps = sorted(jumps)
        times, before, after = [], [], []
        prev_after, prev_time = 0.0, 0.0
        for i, (t, size) in enumerate(jumps):
            b = 0.0 if i == 0 else max(prev_after - (t - prev_time), 0.0)
            times.append(float(t))
            before.append(b)
            after.append(b + float(size))
            prev_after, prev_time = after[-1], times[-1]
        return cls(tuple(times), tuple(before), tuple(after))

    @property
    def support_end(self) -> float:
        """Where the path hits 0 for good."""
        return self.times[-1] + self.after[-1]

    def value(self, t: float) -> float:
        """Path value h(t) (cadlag): one bisection of ``times``, O(log k)."""
        i = bisect_right(self.times, t) - 1
        return 0.0 if i < 0 else max(self.after[i] - (t - self.times[i]), 0.0)

    def infimum(self, s: float, t: float) -> float:
        """inf of the path over [min(s,t), max(s,t)].

        Within a segment the path is nonincreasing (slope -1, then flat
        at 0), so the inf is the smaller of the endpoint value and the
        pre-jump troughs at the jump times in (s, t]: two bisections of
        ``times``, O(log k) plus the troughs read.
        """
        if s > t:
            s, t = t, s
        troughs = self.before[bisect_right(self.times, s):bisect_right(self.times, t)]
        return min((self.value(t), *troughs))

    def tree_distance(self, s: float, t: float) -> float:
        """h(s) + h(t) - 2 inf over [s, t]: the coded-tree pseudo-distance."""
        return self.value(s) + self.value(t) - 2.0 * self.infimum(s, t)

    def to_dict(self) -> dict:
        return {"breakpoints": [
            {"time": t, "before": b, "after": a}
            for t, b, a in zip(self.times, self.before, self.after)
        ]}

    @classmethod
    def from_dict(cls, data: dict) -> "ContourFunction":
        """The contour of a :meth:`to_dict` document (ValidationError if malformed)."""
        with _malformed("contour document"):
            bps = data["breakpoints"]
            return cls(tuple(float(b["time"]) for b in bps),
                       tuple(float(b["before"]) for b in bps),
                       tuple(float(b["after"]) for b in bps))


def tree_from_contour(contour: ContourFunction) -> Tree:
    """Decode the tree: one leaf per jump top, in visit order.

    Leaf i sits at depth ``after[i]``; consecutive leaves diverge at the
    trough ``before[i]`` between them, so leaf-to-leaf distances equal
    the contour pseudo-distance at the jump times.  Exactly tied troughs
    merge into one multifurcation.
    """
    return _tree_from_separators(contour.after, contour.before[1:], contour.before[1:])


def sphere_comb_from_contour(contour: ContourFunction, level: float) -> Comb:
    """The comb of the coded tree's sphere at ``level``.

    Each maximal excursion of the path strictly below the level, between
    consecutive visits of the level, becomes one tooth of height
    ``level - inf(excursion)``.  Visits with no dip in between are the
    same boundary point and are merged; tangencies count as zero-width
    visits.  Boundary points get a unit of interval each, in visit
    order, and the comb's origin height is the level itself.
    """
    if not level > 0.0:
        raise ValidationError("level must be positive")
    return _sphere_comb(contour.after, contour.before[1:] + (0.0,), level)


def _sphere_comb(depths, bottoms, level: float) -> Comb:
    """The sphere comb of a path that jumps up to ``depths[i]`` and then
    falls to ``bottoms[i]``, for i in order.

    Each fall is monotone, so segment i visits the level at most once,
    when ``depths[i] >= level >= bottoms[i]``.  Consecutive visits are
    separated by a tooth of height ``level - dip``, the dip being the
    lowest bottom from the earlier visit up to the later one; visits
    with no dip below the level are one point and merge.  O(n) in the
    number of segments.
    """
    depths = np.asarray(depths, dtype=float)
    bottoms = np.asarray(bottoms, dtype=float)
    visits = np.flatnonzero((depths >= level) & (level >= bottoms))
    if visits.size == 0:
        raise EmptySphereError(f"nothing reaches level {level}")
    dips = np.minimum.reduceat(bottoms, visits)[:-1]
    teeth = level - dips[dips < level]
    if np.any(teeth >= level):
        raise ValidationError(f"lineages reaching level {level} only meet at depth "
                              f"{level - float(teeth.max()):g}, at the root: the sphere "
                              "is a forest, not a comb")
    n_visits = teeth.size + 1
    return Comb(float(n_visits), level, np.arange(1, n_visits, dtype=float), teeth)
