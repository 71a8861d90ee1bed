"""Reference oracle for the ultrametric validation and comb reconstruction.

These are the original O(n^3) definitions: a scan of every triple, and a
recursive builder that splits each ball into the classes of d < diam.
The tests compare the single-linkage implementation in
``ultracomb.comb`` against them.
"""

from __future__ import annotations

import numpy as np

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
