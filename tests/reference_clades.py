"""Reference oracle for the comb range queries and the clade code.

These are the original per-query definitions: a sqrt-decomposition scan
for ``next_taller``, a slice maximum for range maxima, one clade per
atom, and the shallow-to-deep sweep of ``population_spectrum``.  The
tests compare the batched range-max index and the array clade code in
``ultracomb`` against them, exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from ultracomb import ORIGIN_BRANCH, Comb, Partition


def reference_max_height_between(comb: Comb, lo: int, hi: int) -> float:
    if hi <= lo:
        return 0.0
    return float(comb.heights[lo:hi].max())


def reference_next_taller(comb: Comb, start: int, level: float) -> int:
    """First tooth index >= start with height > level, by scanning
    sqrt(n)-sized blocks and their maxima."""
    heights = comb.heights
    n = heights.size
    if start >= n:
        return n
    block = max(1, int(math.sqrt(n)))
    pad = (-n) % block
    blockmax = np.pad(heights, (0, pad), constant_values=0.0).reshape(-1, block).max(axis=1)
    b = start // block
    end = min((b + 1) * block, n)
    hit = np.nonzero(heights[start:end] > level)[0]
    if hit.size:
        return start + int(hit[0])
    for bb in range(b + 1, blockmax.size):
        if blockmax[bb] > level:
            lo = bb * block
            hit = np.nonzero(heights[lo:min(lo + block, n)] > level)[0]
            return lo + int(hit[0])
    return n


def reference_clade(comb: Comb, branch: int, depth: float) -> tuple[float, float]:
    if branch == ORIGIN_BRANCH:
        start, scan_from = 0.0, 0
    else:
        start, scan_from = float(comb.positions[branch]), branch + 1
    stop = reference_next_taller(comb, scan_from, depth)
    end = float(comb.positions[stop]) if stop < comb.n_teeth else comb.interval_length
    return start, end


def reference_population_masses(comb: Comb, atoms) -> tuple[float, ...]:
    """Carrier measures by sweeping atoms from shallow to deep, each
    minus the already-covered intervals; sorted as in FrequencySpectrum."""
    covered: list[list[float]] = []
    starts: list[float] = []
    masses: list[float] = []
    for atom in sorted(atoms, key=lambda a: a[1]):
        s, e = reference_clade(comb, atom[0], atom[1])
        carrier = e - s
        i = bisect_left(starts, s)
        if i > 0 and covered[i - 1][1] > s:
            i -= 1
        j = i
        while j < len(covered) and covered[j][0] < e:
            carrier -= min(e, covered[j][1]) - max(s, covered[j][0])
            j += 1
        if carrier > 0.0:
            masses.append(carrier)
        lo = min([s] + [covered[k][0] for k in range(i, j)])
        hi = max([e] + [covered[k][1] for k in range(i, j)])
        covered[i:j] = [[lo, hi]]
        starts[i:j] = [lo]
    return tuple(sorted(masses))


def reference_labels(comb: Comb, atoms, positions) -> list[int | None]:
    """Per-position index of the shallowest atom whose clade holds it,
    painting clades from shallow to deep."""
    pts = np.asarray(positions, dtype=float)
    order = np.argsort(pts, kind="stable")
    sorted_pts = pts[order]
    labels = np.full(pts.size, -2, dtype=int)
    for i in sorted(range(len(atoms)), key=lambda i: atoms[i][1]):
        start, end = reference_clade(comb, atoms[i][0], atoms[i][1])
        lo = int(np.searchsorted(sorted_pts, start, side="left"))
        hi = int(np.searchsorted(sorted_pts, end, side="left"))
        window = labels[lo:hi]
        window[window == -2] = i
    final = np.full(pts.size, -1, dtype=int)
    final[order] = np.where(labels == -2, -1, labels)
    return [None if v == -1 else int(v) for v in final]


def reference_clonal_intervals(comb: Comb, atoms) -> tuple[tuple[float, float], ...]:
    spans = sorted(reference_clade(comb, b, d) for b, d in atoms)
    merged: list[list[float]] = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    out: list[tuple[float, float]] = []
    cursor = 0.0
    for s, e in merged:
        if s > cursor:
            out.append((cursor, s))
        cursor = max(cursor, e)
    if cursor < comb.interval_length:
        out.append((cursor, comb.interval_length))
    return tuple(out)


def reference_ball_partition(comb: Comb, positions, radius: float) -> Partition:
    pts = np.asarray(list(positions), dtype=float)
    if pts.size == 0:
        return Partition(())
    order = np.argsort(pts, kind="stable")
    sorted_pts = pts[order]
    blocks: list[list[int]] = [[int(order[0])]]
    for k in range(1, sorted_pts.size):
        lo = int(np.searchsorted(comb.positions, sorted_pts[k - 1], side="right"))
        hi = int(np.searchsorted(comb.positions, sorted_pts[k], side="right"))
        if 2.0 * reference_max_height_between(comb, lo, hi) <= radius:
            blocks[-1].append(int(order[k]))
        else:
            blocks.append([int(order[k])])
    return Partition(tuple(frozenset(b) for b in blocks))


def reference_comb_distance(comb: Comb, p: float, q: float) -> float:
    """The comb metric between two right faces."""
    if p == q:
        return 0.0
    p, q = min(p, q), max(p, q)
    lo = int(np.searchsorted(comb.positions, p, side="right"))
    hi = int(np.searchsorted(comb.positions, q, side="right"))
    return 2.0 * reference_max_height_between(comb, lo, hi)
