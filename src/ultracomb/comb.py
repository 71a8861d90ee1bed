"""Finite combs, the comb ultrametric, ball partitions, and the
comb/ultrametric-matrix constructions.

A comb is a finite set of teeth (position, height) on an interval
``[0, interval_length]`` together with an origin branch of height
``origin_height`` attached at 0.  The distance between two boundary
points is twice the tallest tooth between them, which makes the
boundary a compact ultrametric space; tooth heights are coalescence
depths measured back from the present.

Boundary points are position/face pairs.  For the interior points used
by all samplers the two faces coincide; the faces only differ at tooth
positions, where the left and right side of the tooth sit at distance
twice the tooth height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, _malformed
from .tree import Tree, _tree_from_separators

__all__ = [
    "Comb",
    "BoundaryPoint",
    "Partition",
    "comb_distance",
    "ball_partition",
    "comb_from_ultrametric",
    "comb_to_tree",
    "validate_ultrametric",
]

_FACES = ("left", "right")
# the one relative tolerance of validate_ultrametric and comb_from_ultrametric
_ULTRAMETRIC_RTOL = 1e-9

# teeth per block of the range-max pass: each query scans at most two
# blocks directly and skips whole blocks through the sparse table
_BLOCK = 32
_OFFSETS = np.arange(_BLOCK)
# queries scanned at once: each holds 2 * _BLOCK indices and heights
# (about 1 KB), so a batch of any size scans in about 1 MB
_SCAN = 1024


def _next_above(heights: np.ndarray, starts: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per (start, level): the first index >= start whose height is >
    level (n if none).

    Heights are cut into blocks of ``_BLOCK`` teeth; ``table[k, b]`` is
    the tallest tooth of blocks ``b .. b + 2**k - 1``, or NaN where that
    run leaves the comb, which no level skips, not even inf (a sparse
    table over block maxima, as in Bender and Farach-Colton, "The LCA
    problem revisited", LATIN 2000), built for this call only:
    ``(n / _BLOCK) log2(n / _BLOCK)`` floats.  Each query skips the blocks
    after its start's that are no taller than its level, one sparse-table
    step per level, then scans two rows of ``_BLOCK`` heights: from its
    start, and the block it landed on, ``_SCAN`` queries at a time.
    Answers equal a direct scan.
    """
    starts = np.maximum(np.asarray(starts, dtype=np.int64), 0)
    levels = np.asarray(levels, dtype=float)
    n = heights.size
    n_blocks = -(-n // _BLOCK)
    table = np.full((max(1, n_blocks.bit_length()), n_blocks + 1), np.nan)
    table[0, :n_blocks] = np.maximum.reduceat(heights, np.arange(0, n, _BLOCK))
    for k in range(1, table.shape[0]):
        span = 1 << k
        half = span >> 1
        np.maximum(table[k - 1, :n_blocks + 1 - span],
                   table[k - 1, half:n_blocks + 1 - half], out=table[k, :n_blocks + 1 - span])
    out = np.full(starts.shape, n, dtype=np.int64)
    live = starts < n
    start, level = starts[live], levels[live]
    # binary lifting over block maxima, skipping every run of blocks no
    # taller than the level, longest runs first; block == n_blocks lies
    # past the last tooth
    block = start // _BLOCK + 1
    for k in range(table.shape[0] - 1, -1, -1):
        block += (table[k, block] <= level).astype(np.int64) << k
    # the first hit is in the row from the start or, failing that, in the
    # block landed on.  Past the last tooth its height repeats, which
    # never moves a first hit: a row that runs past tooth n-1 holds it
    # earlier, and one that lands past it has no hit
    first = np.empty(start.size, dtype=np.int64)
    for lo in range(0, start.size, _SCAN):
        q = slice(lo, lo + _SCAN)
        rows = np.array((start[q], block[q] * _BLOCK)).T[:, :, None] + _OFFSETS
        at = rows.reshape(-1, 2 * _BLOCK)
        hits = heights.take(at, mode="clip") > level[q, None]
        first[q] = np.where(hits.any(axis=1), at[np.arange(at.shape[0]), hits.argmax(axis=1)], n)
    out[live] = first
    return out


class Comb:
    """An immutable comb: teeth on ``[0, interval_length]``, given as
    parallel position and height sequences in any order.

    Positions are stably sorted unless strictly increasing already, in
    which case float64 arrays are kept uncopied and made read-only.
    They must be distinct and strictly inside the interval; heights are
    positive and strictly below ``origin_height``, and may tie (ball
    partitions use <= consistently).  A comb holds no cache, so
    instances are safe to share across workers.
    """

    __slots__ = ("interval_length", "origin_height", "positions", "heights")

    def __init__(self, interval_length: float, origin_height: float,
                 positions: Sequence[float] = (), heights: Sequence[float] = ()):
        interval_length, origin_height = float(interval_length), float(origin_height)
        positions = np.asarray(positions, dtype=float)
        heights = np.asarray(heights, dtype=float)
        if not (math.isfinite(interval_length) and interval_length > 0):
            raise ValidationError(f"interval_length must be positive, got {interval_length}")
        if not (math.isfinite(origin_height) and origin_height > 0):
            raise ValidationError(f"origin_height must be positive, got {origin_height}")
        if positions.shape != heights.shape or positions.ndim != 1:
            raise ValidationError("positions and heights must be 1-d arrays of equal length")
        if positions.size:
            # one pass on sorted input; unsorted, tied or NaN positions sort
            # (NaN last, where the interval check rejects it) and are re-read
            increasing = bool(np.all(np.diff(positions) > 0.0))
            if not increasing:
                order = np.argsort(positions, kind="stable")
                positions, heights = positions[order], heights[order]
                increasing = bool(np.all(np.diff(positions) > 0.0))
            if not (positions[0] > 0.0 and positions[-1] < interval_length):
                raise ValidationError("tooth positions must lie strictly inside the interval")
            if not increasing:
                raise ValidationError("tooth positions must be strictly increasing (no duplicates)")
            if not np.all(heights > 0.0):
                raise ValidationError("tooth heights must be strictly positive")
            if not np.all(heights < origin_height):
                raise ValidationError("origin_height must exceed every tooth height")
        positions.flags.writeable = False
        heights.flags.writeable = False
        self.interval_length = interval_length
        self.origin_height = origin_height
        self.positions = positions
        self.heights = heights

    @classmethod
    def from_arrays(cls, interval_length, origin_height, positions, heights) -> "Comb":
        """``Comb(...)`` itself; kept because ``perfbench/`` calls and traces it."""
        return cls(interval_length, origin_height, positions, heights)

    @property
    def n_teeth(self) -> int:
        return int(self.positions.size)

    def max_height_between(self, lo: int, hi: int) -> float:
        """Max tooth height over index slice [lo, hi), clipped to the
        teeth; 0.0 if empty."""
        lo, hi = max(lo, 0), min(hi, self.n_teeth)
        return float(self.heights[lo:hi].max()) if hi > lo else 0.0

    def next_taller_batch(self, starts, levels) -> np.ndarray:
        """For each (start, level) of two equal-shape arrays: the first
        tooth index >= start whose height is > level, or n_teeth if there
        is none, through one range-max pass per call: batch a comb's queries."""
        return _next_above(self.heights, starts, levels)

    def next_taller(self, start: int, level: float) -> int:
        """First tooth index >= start with height > level (n_teeth if none)."""
        return int(self.next_taller_batch(np.array([start]), np.array([level]))[0])

    def gap_lengths(self) -> np.ndarray:
        """Lengths of the inter-tooth intervals (the boundary measure)."""
        edges = np.concatenate(([0.0], self.positions, [self.interval_length]))
        return np.diff(edges)

    def to_dict(self) -> dict:
        return {
            "interval_length": self.interval_length,
            "origin_height": self.origin_height,
            "teeth": [{"pos": p, "h": h}
                      for p, h in zip(self.positions.tolist(), self.heights.tolist())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Comb":
        """The comb of a :meth:`to_dict` document (ValidationError if malformed)."""
        with _malformed("comb document"):
            teeth = data["teeth"]
            return cls(data["interval_length"], data["origin_height"],
                       [t["pos"] for t in teeth], [t["h"] for t in teeth])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Comb):
            return NotImplemented
        return (self.interval_length == other.interval_length
                and self.origin_height == other.origin_height
                and np.array_equal(self.positions, other.positions)
                and np.array_equal(self.heights, other.heights))

    def __repr__(self) -> str:
        return (f"Comb(interval_length={self.interval_length}, "
                f"origin_height={self.origin_height}, n_teeth={self.n_teeth})")


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point: a position with a left or right face.

    The left face at position 0 is identified with the origin and is
    disallowed.
    """

    position: float
    face: str = "right"

    def __post_init__(self):
        if self.face not in _FACES:
            raise ValidationError(f"face must be 'left' or 'right', got {self.face!r}")
        if not self.position >= 0.0:  # NaN-safe
            raise ValidationError(f"position must be nonnegative, got {self.position}")
        if self.position == 0.0 and self.face == "left":
            raise ValidationError("the left face at position 0 is identified with the origin")


class Partition:
    """A partition of indices 0..n-1 coded by one label per index:
    i and j share a block iff ``labels[i] == labels[j]`` (Kingman,
    "Random partitions in population genetics", 1978).

    ``labels`` is kept as given, as a read-only int64 array (int64 input
    is not copied); only which indices share a label matters, so two
    partitions are equal when their ``blocks`` are.
    """

    __slots__ = ("labels",)

    def __init__(self, labels: Sequence[int]):
        try:
            labels = np.asarray(labels)
        except ValueError as exc:  # a ragged nested sequence
            raise ValidationError(f"partition labels must be a 1-d integer sequence: {exc}") from exc
        if labels.ndim != 1 or not (labels.size == 0 or labels.dtype.kind in "iu"):
            raise ValidationError(f"partition labels must be a 1-d integer sequence, "
                                  f"got shape {labels.shape} of {labels.dtype}")
        labels = labels.astype(np.int64, copy=False)
        labels.flags.writeable = False
        self.labels = labels

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The blocks as frozensets, sorted by their smallest index
        (built on each access)."""
        order = np.argsort(self.labels, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(self.labels[order])) + 1) if self.n else []
        return tuple(frozenset(g.tolist()) for g in sorted(groups, key=lambda g: g[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __repr__(self) -> str:
        return f"Partition({self.labels.tolist()})"


def _as_point(p) -> BoundaryPoint:
    if isinstance(p, BoundaryPoint):
        return p
    return BoundaryPoint(float(p), "right")


def comb_distance(comb: Comb, p, q) -> float:
    """Comb metric between two boundary points: twice the tallest tooth
    between them.

    ``p`` and ``q`` may be plain floats, read as right faces.  Ordered
    by (position, face), left face first, each bound is one
    ``searchsorted`` on the side its face names: a point's own tooth
    counts from the lower point's left face or the upper's right face.
    """
    p, q = _as_point(p), _as_point(q)
    a = comb.interval_length
    for pt in (p, q):
        if not 0.0 <= pt.position <= a:
            raise ValidationError(f"position {pt.position} outside [0, {a}]")
    p, q = sorted((p, q), key=lambda pt: (pt.position, pt.face))
    lo = int(np.searchsorted(comb.positions, p.position, side=p.face))
    hi = int(np.searchsorted(comb.positions, q.position, side=q.face))
    return 2.0 * comb.max_height_between(lo, hi)


def _sample_positions(comb: Comb, positions: Sequence[float]) -> np.ndarray:
    """Sample positions as a float array, each checked to lie in the comb interval."""
    pts = np.asarray(list(positions), dtype=float)
    if not np.all((pts >= 0.0) & (pts <= comb.interval_length)):
        raise ValidationError("sample positions outside the comb interval")
    return pts


def ball_partition(comb: Comb, positions: Sequence[float], radius: float) -> Partition:
    """Partition sample positions into balls of radius ``radius``: two
    share a block iff their comb distance is <= radius, that is iff no
    tooth taller than radius/2 stands between them.  So each sample is
    labelled with the number of such teeth to its left, one prefix count
    read by one ``searchsorted``: O(n + s log n) for n teeth and s
    positions, with no sort.
    """
    if not radius > 0.0:
        raise ValidationError("radius must be positive")
    cut = np.searchsorted(comb.positions, _sample_positions(comb, positions), side="right")
    return Partition(np.concatenate(([0], np.cumsum(~(2.0 * comb.heights <= radius))))[cut])


def _single_linkage(d: np.ndarray) -> np.ndarray:
    """The checks of :func:`validate_ultrametric` off the exact tier, then
    the single-linkage cophenetic matrix of ``min(d, d.T)``, an exact
    ultrametric (n > 1 there: one point passes only on the exact tier).

    Every check but the diagonal's reads the two condensed triangles,
    ``d[i, j]`` and ``d[j, i]`` for i < j.  Symmetry is numpy's
    ``isclose`` rule both ways round, so a NaN anywhere fails it first.
    The certificate ``d <= cophenet + tol`` is sound: the cophenetic
    distance of i and k is at most max(d[i,j], d[j,k]) for every j, so it
    implies every triple inequality.
    """
    # imported on first use: exact ultrametrics and the samplers never need it
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    upper, lower = squareform(d, checks=False), squareform(d.T, checks=False)
    with np.errstate(invalid="ignore"):  # inf - inf
        gap = np.abs(upper - lower)
    close = ((gap <= _ULTRAMETRIC_RTOL * np.abs(lower)) & (gap <= _ULTRAMETRIC_RTOL * np.abs(upper))
             & np.isfinite(gap))
    if np.isnan(d.diagonal()).any() or not np.all(close | (upper == lower)):
        raise ValidationError("distance matrix must be symmetric")
    if np.any(d.diagonal() != 0.0):
        raise ValidationError("distance matrix must have a zero diagonal")
    low, high = np.minimum(upper, lower), np.maximum(upper, lower)
    if np.any(low <= 0.0):
        raise ValidationError("off-diagonal distances must be positive (points must be distinct)")
    if not np.all(np.isfinite(high)):
        raise ValidationError("off-diagonal distances must be finite")
    tol = _ULTRAMETRIC_RTOL * float(high.max())
    coph = cophenet(linkage(low, method="single"))
    if np.all(high <= coph + tol):
        return squareform(coph)
    # O(n^3) fallback, the only rejection path:
    # d[i, k] <= max(d[i, j], d[j, k]) for all j; chunk j to bound memory
    for j in range(d.shape[0]):
        bound = np.maximum.outer(d[:, j], d[j, :])
        if np.any(d > bound + tol):
            i, k = np.unravel_index(int(np.argmax(d - bound)), d.shape)
            raise ValidationError(
                f"ultrametric inequality violated for triple ({i}, {j}, {k}): "
                f"d={d[i, k]} > max({d[i, j]}, {d[j, k]})"
            )
    return squareform(coph)


def _checked(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`validate_ultrametric`, also returning the nearest-earlier
    hierarchy of the ultrametric u the comb is built on: ``r[j]``, the
    distance from point j to its nearest earlier point, and ``a[j]``, the
    first earlier point that close (``r[0] = a[0] = 0``).

    Exact tier: u = d when d is exactly symmetric, with a zero diagonal,
    positive finite entries off it and ``d[j, k] == max(r[j], d[a[j], k])``
    for all k < j, that is (by induction on j) when d is the path-max
    metric of the minimum spanning tree j -> a[j] (Gower and Ross, Appl.
    Stat. 18, 1969): an ultrametric.  Else u is :func:`_single_linkage`'s.
    """
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError("distance matrix must be square")
    n = d.shape[0]
    if n == 0:
        raise ValidationError("distance matrix must contain at least one point")
    if np.array_equal(d, d.T) and not d.diagonal().any():  # a NaN is never equal
        earlier = np.tri(n, k=-1, dtype=bool)
        a = np.where(earlier, d, np.inf).argmin(axis=1)
        r = d[np.arange(n), a]
        if np.all(r[1:] > 0.0) and d.max() < math.inf:
            fit = d[a]  # in place from here: fresh n x n arrays cost page faults
            np.maximum(fit, r[:, None], out=fit)
            if not ((fit != d) & earlier).any():
                return d, r, a
    return (d, *_checked(_single_linkage(d))[1:])


def validate_ultrametric(matrix: np.ndarray) -> np.ndarray:
    """Check a matrix is a valid ultrametric on distinct points.

    Requires symmetry, zero diagonal, positive finite off-diagonal
    entries and the triple inequality d(i,k) <= max(d(i,j), d(j,k)) up
    to ``1e-9 * max(d)``, as in :func:`comb_from_ultrametric`.  Returns the float matrix.

    Cost is O(n^2).  An exact ultrametric passes a few numpy checks with
    no scipy; any other matrix within ``1e-9 * max(d)`` of its
    single-linkage cophenetic distances passes without a triple scan.
    Only the rest are scanned triple by triple (O(n^3)), which decides
    near-misses within the tolerance and names the violating triple.
    """
    return _checked(matrix)[0]


def _ball_order(r: np.ndarray, a: np.ndarray) -> tuple[list[int], list[float]]:
    """Points in comb order, with their visibility masses, from the
    nearest-earlier hierarchy ``(r, a)`` of an ultrametric.

    The points j with a[j] = b and one r[j] head the later children of
    one ball whose first child holds b, so the first of them divides its
    visibility by their number + 1 (the others by 1, exactly), from the
    largest r down.  A point precedes its groups, smallest r first, each
    in index order.  An explicit stack spares deep hierarchies recursion.
    """
    n = a.size
    # by parent, largest r first, then by index downwards (the stack pops the smallest first)
    kids = n - 1 - np.lexsort((-r[:0:-1], a[:0:-1]))
    ak, rk = a[kids], r[kids]
    head = np.ones(n - 1, dtype=bool)  # the first of each group
    head[1:] = (ak[1:] != ak[:-1]) | (rk[1:] != rk[:-1])
    div = np.ones(n)
    div[kids[head]] = np.diff(np.r_[np.flatnonzero(head), n - 1]) + 1
    first = np.searchsorted(ak, np.arange(n + 1)).tolist()
    kids, div = kids.tolist(), div.tolist()
    vis_in = [1.0] * n  # the visibility of the largest ball a point is the smallest of
    order, visibility, stack = [], [], [0]
    while stack:
        j = stack.pop()
        order.append(j)
        vis = vis_in[j]
        children = kids[first[j]:first[j + 1]]
        for c in children:
            vis /= div[c]
            vis_in[c] = vis
        stack += children
        visibility.append(vis)
    return order, visibility


def comb_from_ultrametric(matrix, masses: Sequence[float] | None = None
                          ) -> tuple[Comb, list[tuple[float, float]]]:
    """Build a comb realizing a finite ultrametric, plus the placement map.

    Each point is mapped to a subinterval whose length is its mass; a
    wall of height d/2 separates the sub-balls of every ball of diameter
    d, so any representatives of two placements reproduce the matrix
    exactly.  Without explicit masses the visibility masses are used:
    total mass 1, split equally among sub-balls at each fragmentation
    (tie diameters fragment independently, i.e. in decreasing order).

    Cost is O(n^2).  One walk over the nearest-earlier hierarchy that
    validation builds (see :func:`validate_ultrametric`) lays the points
    out left to right, each ball's children by their smallest index; the
    tooth between consecutive points p, q has height d[p, q] / 2.  On an
    exact ultrametric this is the ball construction above, bit for bit.
    A matrix accepted only within the validation tolerance gets the balls
    of the single-linkage hierarchy of ``min(d, d.T)``, merges at exactly
    equal height forming one ball.

    Returns ``(comb, placements)`` with ``placements[i] = (start, end)``.
    The comb's origin height is set to the diameter (twice the tallest
    wall), or 1.0 for a single point.  Visibility masses halve (or
    shrink further) at every level, so on deep hierarchies such as
    caterpillars of 55 or more points they fall below the resolution of
    the interval; that raises a ValidationError asking for explicit
    masses.
    """
    d, r, a = _checked(matrix)
    n = d.shape[0]
    if masses is not None:
        m = np.asarray(list(masses), dtype=float)
        if m.shape != (n,):
            raise ValidationError("masses must match the number of points")
        if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
            raise ValidationError("masses must be positive and finite")
    else:
        m = None

    order, visibility = _ball_order(r, a)
    widths = np.asarray(visibility) if m is None else m[order]
    ends = np.cumsum(widths)
    starts = np.concatenate(([0.0], ends[:-1]))
    stalled = np.flatnonzero(ends <= starts)
    if stalled.size:
        k = int(stalled[0])
        cause = ("visibility masses underflow on this deep hierarchy; "
                 "pass explicit masses (for example unit masses)"
                 if m is None else "masses span too many orders of magnitude")
        raise ValidationError(
            f"point {order[k]} has width {widths[k]}, which does not advance "
            f"the placement cursor at {starts[k]}: {cause}")

    heights = d[order[:-1], order[1:]] / 2.0
    diam = float(d.max())
    origin = diam if diam > 0.0 else 1.0
    comb = Comb(float(ends[-1]), origin, ends[:-1], heights)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    return comb, list(zip(starts[rank].tolist(), ends[rank].tolist()))


def comb_to_tree(comb: Comb) -> Tree:
    """The rooted tree behind a comb: one leaf per inter-tooth interval.

    Leaves are labelled '0'..'n' in interval order and all sit at depth
    ``origin_height`` below the root; an internal node at depth
    ``origin_height - h`` joins the intervals separated by a tooth of
    height h.  Teeth with exactly equal heights merge into one
    multifurcation so that all edge lengths stay positive.
    """
    T = comb.origin_height
    return _tree_from_separators([T] * (comb.n_teeth + 1), (-comb.heights).tolist(),
                                 (T - comb.heights).tolist())
