"""Reference oracle for the comb and contour tree builders.

These are the original recursive definitions: split a range at every
occurrence of its tallest tooth (or lowest trough) and recurse on the
pieces.  They are O(n^2) on caterpillars and limited by the recursion
depth, so the tests use them on small inputs only and compare the
monotone-stack builder in ``ultracomb.tree`` against them.
"""

from __future__ import annotations

from ultracomb import Comb, ContourFunction, Tree, TreeNode


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
