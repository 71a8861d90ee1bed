"""Reference oracle for the tree builders, Newick export and parsing,
splitting trees and their level spheres.

These are the original definitions: split a range at every occurrence
of its tallest tooth (or lowest trough) and recurse on the pieces; emit
and parse Newick one node per call; assemble a splitting tree as chains
of lifelines, reduce it by a recursive walk and a comparison of
ancestor chains, and read a contour's sphere one segment at a time.
They are limited by the recursion depth (and the builders are O(n^2) on
caterpillars), so the tests use them on small inputs only and compare
the code in ``ultracomb`` against them.
"""

from __future__ import annotations

import math

import numpy as np

from ultracomb import (Comb, ContourFunction, EmptySphereError, ResourceError, Tree,
                       TreeNode, ValidationError)


def reference_comb_to_tree(comb: Comb) -> Tree:
    T = comb.origin_height
    heights = comb.heights

    def build(tooth_lo: int, tooth_hi: int, leaf_lo: int) -> TreeNode:
        # teeth indices [tooth_lo, tooth_hi) span leaves [leaf_lo, leaf_lo + count)
        if tooth_hi <= tooth_lo:
            return TreeNode(depth=T, label=str(leaf_lo))
        h = float(heights[tooth_lo:tooth_hi].max())
        cuts = [k for k in range(tooth_lo, tooth_hi) if heights[k] == h]
        node = TreeNode(depth=T - h)
        seg_lo = tooth_lo
        leaf = leaf_lo
        for cut in cuts:
            node.children.append(build(seg_lo, cut, leaf))
            leaf += cut - seg_lo + 1
            seg_lo = cut + 1
        node.children.append(build(seg_lo, tooth_hi, leaf))
        return node

    return Tree(TreeNode(depth=0.0, children=[build(0, comb.n_teeth, 0)]))


def reference_tree_from_contour(contour: ContourFunction) -> Tree:
    after = contour.after
    before = contour.before

    def build(lo: int, hi: int) -> TreeNode:
        if lo == hi:
            return TreeNode(depth=after[lo], label=str(lo))
        troughs = before[lo + 1:hi + 1]
        low = min(troughs)
        cuts = [lo + 1 + j for j, b in enumerate(troughs) if b == low]
        node = TreeNode(depth=low)
        seg = lo
        for cut in cuts:
            node.children.append(build(seg, cut - 1))
            seg = cut
        node.children.append(build(seg, hi))
        return node

    top = build(0, len(after) - 1)
    if top.depth > 0.0:
        top = TreeNode(depth=0.0, children=[top])
    return Tree(top)


def reference_newick(tree: Tree, digits: int = 12) -> str:
    def fmt(x: float) -> str:
        return f"{x:.{digits}g}"

    def emit(node: TreeNode, parent_depth: float) -> str:
        length = node.depth - parent_depth
        body = node.label or ""
        if node.children:
            inner = ",".join(emit(c, node.depth) for c in node.children)
            body = f"({inner}){node.label or ''}"
        return f"{body}:{fmt(length)}"

    root = tree.root
    if root.children:
        inner = ",".join(emit(c, root.depth) for c in root.children)
        return f"({inner}){root.label or ''};"
    return f"{root.label or ''};"


def reference_parse_newick(text: str) -> Tree:
    text = text.strip()
    if not text.endswith(";"):
        raise ValidationError("Newick string must end with ';'")
    s = text[:-1]
    pos = 0

    def parse_node() -> tuple[TreeNode, float]:
        nonlocal pos
        node = TreeNode(depth=0.0)
        lengths: list[float] = []
        if pos < len(s) and s[pos] == "(":
            pos += 1
            while True:
                child, length = parse_node()
                node.children.append(child)
                lengths.append(length)
                if pos < len(s) and s[pos] == ",":
                    pos += 1
                    continue
                break
            if pos >= len(s) or s[pos] != ")":
                raise ValidationError("unbalanced parentheses in Newick string")
            pos += 1
        start = pos
        while pos < len(s) and s[pos] not in ",():;":
            pos += 1
        if pos > start:
            node.label = s[start:pos]
        own_length = 0.0
        if pos < len(s) and s[pos] == ":":
            pos += 1
            start = pos
            while pos < len(s) and s[pos] not in ",()":
                pos += 1
            own_length = float(s[start:pos])
        for child, length in zip(node.children, lengths):
            child.depth = length
        return node, own_length

    root, _ = parse_node()
    if pos != len(s):
        raise ValidationError(f"trailing characters in Newick string: {s[pos:]!r}")

    def resolve(node: TreeNode, base: float) -> None:
        length = node.depth
        node.depth = base + length
        for child in node.children:
            resolve(child, node.depth)

    root.depth = 0.0
    for child in root.children:
        resolve(child, 0.0)
    return Tree(root)


def reference_path_to(root: TreeNode, label: str) -> list[TreeNode] | None:
    def walk(node: TreeNode, acc: list[TreeNode]) -> list[TreeNode] | None:
        acc.append(node)
        if node.is_leaf and node.label == label:
            return acc
        for child in node.children:
            found = walk(child, acc)
            if found is not None:
                return found
        acc.pop()
        return None

    return walk(root, [])


def reference_sample_splitting_tree(birth_rate, lifetime, horizon, rng) -> Tree:
    gen = rng.gen
    for _ in range(10_000):
        births = [0.0]
        deaths = [float(lifetime.sample_death(0.0, gen))]
        children: list[list[int]] = [[]]
        stack = [0]
        while stack:
            i = stack.pop()
            window = min(deaths[i], horizon) - births[i]
            if window <= 0:
                continue
            m = int(gen.poisson(birth_rate * window))
            if m == 0:
                continue
            times = births[i] + window * gen.random(m)
            times.sort()
            for t in times:
                j = len(births)
                births.append(float(t))
                deaths.append(float(lifetime.sample_death(float(t), gen)))
                children[i].append(j)
                children.append([])
                stack.append(j)
        if any(d > horizon for d in deaths):
            break
    else:
        raise ResourceError("no attempt survived to the horizon")

    # lifeline chains bottom-up; children carry larger indices
    chains: list[TreeNode | None] = [None] * len(births)
    for i in range(len(births) - 1, -1, -1):
        node = TreeNode(depth=min(deaths[i], horizon), label=str(i))
        for j in reversed(children[i]):
            node = TreeNode(depth=births[j], children=[node, chains[j]])
        chains[i] = node
    return Tree(TreeNode(depth=0.0, children=[chains[0]]))


def reference_reduce_population_tree(tree: Tree, horizon: float) -> Comb:
    paths: list[tuple] = []  # ancestor chains (node ids with depths) per survivor

    def walk(node: TreeNode, chain: list[tuple[int, float]]):
        chain.append((id(node), node.depth))
        for child in node.children:
            if child.depth >= horizon:
                if node.depth < horizon:
                    paths.append(tuple(chain))
            else:
                walk(child, chain)
        chain.pop()

    walk(tree.root, [])
    n = len(paths)
    if n == 0:
        raise ValidationError(f"no lineage reaches the horizon {horizon}")
    heights = np.empty(n - 1)
    for k in range(1, n):
        prev, cur = paths[k - 1], paths[k]
        depth = tree.root.depth
        for a, b in zip(prev, cur):
            if a[0] != b[0]:
                break
            depth = a[1]
        heights[k - 1] = horizon - depth
    return Comb(float(n), horizon, np.arange(1, n, dtype=float), heights)


def reference_sphere_comb(contour: ContourFunction, level: float) -> Comb:
    times, after = contour.times, contour.after
    k = len(times)
    n_visits = 0
    teeth_heights: list[float] = []
    dip = math.inf  # running inf of the path since the last visit
    for i in range(k):
        seg_end = times[i + 1] if i + 1 < k else contour.support_end
        bottom = max(after[i] - (seg_end - times[i]), 0.0)
        if after[i] >= level >= bottom:
            if n_visits == 0:
                n_visits = 1
            elif dip < level:
                teeth_heights.append(level - dip)
                n_visits += 1
            dip = level
        dip = min(dip, bottom)
    if n_visits == 0:
        raise EmptySphereError(f"the contour never reaches level {level}")
    return Comb(float(n_visits), level, np.arange(1, n_visits, dtype=float),
                np.asarray(teeth_heights, dtype=float))
