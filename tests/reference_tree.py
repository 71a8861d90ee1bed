"""Reference oracle for the tree builders, Newick export and parsing.

These are the original recursive definitions: split a range at every
occurrence of its tallest tooth (or lowest trough) and recurse on the
pieces; emit and parse Newick one node per call.  They are limited by
the recursion depth (and the builders are O(n^2) on caterpillars), so
the tests use them on small inputs only and compare the iterative code
in ``ultracomb.tree`` against them.
"""

from __future__ import annotations

from ultracomb import Comb, ContourFunction, Tree, TreeNode, ValidationError


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


def reference_path_to(tree: Tree, label: str) -> list[TreeNode] | None:
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

    return walk(tree.root, [])
