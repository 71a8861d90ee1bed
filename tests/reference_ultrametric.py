"""Reference oracles for the ultrametric validation and comb reconstruction.

The first two are the original O(n^3) definitions: a scan of every
triple, and a recursive builder that splits each ball into the classes
of d < diam.  The third is the former O(n^2) construction through
scipy's single linkage of ``min(d, d.T)``, its cophenetic certificate
and a walk over the linkage matrix, which also defines the comb of a
matrix accepted only within the tolerance.  The tests compare the
nearest-earlier construction in ``ultracomb.comb`` against them.
"""

from __future__ import annotations

import numpy as np
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import squareform

from ultracomb import Comb, ValidationError


def reference_validate(matrix, rtol: float = 1e-9) -> np.ndarray:
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError("distance matrix must be square")
    n = d.shape[0]
    if n == 0:
        raise ValidationError("distance matrix must contain at least one point")
    if not np.allclose(d, d.T, rtol=rtol, atol=0.0):
        raise ValidationError("distance matrix must be symmetric")
    if np.any(np.diag(d) != 0.0):
        raise ValidationError("distance matrix must have a zero diagonal")
    off = d[~np.eye(n, dtype=bool)]
    if off.size and np.any(off <= 0.0):
        raise ValidationError("off-diagonal distances must be positive (points must be distinct)")
    scale = float(off.max()) if off.size else 0.0
    tol = rtol * scale
    for j in range(n):
        bound = np.maximum.outer(d[:, j], d[j, :])
        if np.any(d > bound + tol):
            i, k = np.unravel_index(int(np.argmax(d - bound)), d.shape)
            raise ValidationError(
                f"ultrametric inequality violated for triple ({i}, {j}, {k}): "
                f"d={d[i, k]} > max({d[i, j]}, {d[j, k]})"
            )
    return d


def reference_comb_from_ultrametric(matrix, masses=None):
    d = reference_validate(matrix)
    n = d.shape[0]
    m = None if masses is None else np.asarray(list(masses), dtype=float)

    placements = [None] * n
    teeth = []

    def mass_of(indices, visibility):
        if m is not None:
            return float(m[indices].sum())
        return visibility

    def place(indices, start, visibility):
        if len(indices) == 1:
            width = mass_of(indices, visibility)
            placements[indices[0]] = (start, start + width)
            return start + width
        sub = d[np.ix_(indices, indices)]
        diam = float(sub.max())
        remaining = list(indices)
        children = []
        while remaining:
            i = remaining[0]
            block = [j for j in remaining if d[i, j] < diam]
            children.append(block)
            remaining = [j for j in remaining if j not in block]
        children.sort(key=min)
        child_vis = visibility / len(children)
        cursor = start
        for k, child in enumerate(children):
            if k > 0:
                teeth.append((cursor, diam / 2.0))
            cursor = place(child, cursor, child_vis)
        return cursor

    total = place(list(range(n)), 0.0, 1.0)
    diam = float(d.max())
    origin = diam if diam > 0.0 else 1.0
    return Comb(total, origin, [p for p, _ in teeth], [h for _, h in teeth]), placements


def _checked_linkage(d: np.ndarray, rtol: float = 1e-9):
    """The checks of the single-linkage construction on a square float
    matrix, in their order; returns its linkage matrix (None for one point)."""
    n = d.shape[0]
    upper, lower = squareform(d, checks=False), squareform(d.T, checks=False)
    with np.errstate(invalid="ignore"):  # inf - inf
        gap = np.abs(upper - lower)
    close = (gap <= rtol * np.abs(lower)) & (gap <= rtol * np.abs(upper)) & np.isfinite(gap)
    if np.isnan(d.diagonal()).any() or not np.all(close | (upper == lower)):
        raise ValidationError("distance matrix must be symmetric")
    if np.any(d.diagonal() != 0.0):
        raise ValidationError("distance matrix must have a zero diagonal")
    low, high = np.minimum(upper, lower), np.maximum(upper, lower)
    if np.any(low <= 0.0):
        raise ValidationError("off-diagonal distances must be positive (points must be distinct)")
    if not np.all(np.isfinite(high)):
        raise ValidationError("off-diagonal distances must be finite")
    if n == 1:
        return None
    link = linkage(low, method="single")
    if not np.all(high <= cophenet(link) + rtol * float(high.max())):
        reference_validate(d, rtol)
    return link


def _ball_walk(link, n: int):
    """Points in comb order with their visibility masses: single-linkage
    merges at exactly equal height form one ball, whose children are
    ordered by their smallest point index."""
    children: list[list[int]] = []
    low = list(range(n))  # smallest point index of each cluster id
    if link is not None:
        heights = link[:, 2].tolist()
        for k, (a, b) in enumerate(link[:, :2].astype(np.intp).tolist()):
            kids: list[int] = []
            for c in (a, b):
                if c >= n and heights[c - n] == heights[k]:
                    kids += children[c - n]
                else:
                    kids.append(c)
            children.append(kids)
            low.append(min(low[a], low[b]))
    order, visibility = [], []
    stack = [(len(low) - 1, 1.0)]
    while stack:
        node, vis = stack.pop()
        if node < n:
            order.append(node)
            visibility.append(vis)
            continue
        kids = sorted(children[node - n], key=low.__getitem__, reverse=True)
        vis /= len(kids)
        stack.extend((c, vis) for c in kids)
    return order, visibility


def single_linkage_comb_from_ultrametric(matrix, masses=None):
    """The comb and placements of the single-linkage construction
    (no mass checks: the tests pass valid masses)."""
    d = np.asarray(matrix, dtype=float)
    n = d.shape[0]
    order, visibility = _ball_walk(_checked_linkage(d), n)
    widths = np.asarray(visibility) if masses is None else np.asarray(masses, dtype=float)[order]
    ends = np.cumsum(widths)
    starts = np.concatenate(([0.0], ends[:-1]))
    diam = float(d.max())
    comb = Comb(float(ends[-1]), diam if diam > 0.0 else 1.0, ends[:-1],
                d[order[:-1], order[1:]] / 2.0)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    return comb, list(zip(starts[rank].tolist(), ends[rank].tolist()))
