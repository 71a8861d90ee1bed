"""Rooted edge-lengthed trees with Newick export.

Nodes store their distance from the root (``depth``) rather than edge
lengths; edge lengths are differences of depths.  Storing depths keeps
root-to-leaf distances exact for ultrametric trees built from combs.
Children order is meaningful: it is the planar order used by contour
codings and population reductions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import ValidationError

__all__ = ["TreeNode", "Tree", "parse_newick"]

# a node's label, then its optional ':'-prefixed edge length
_LABEL_LENGTH = re.compile(r"([^,():;]*)(?::([^,()]*))?")


@dataclass
class TreeNode:
    depth: float
    label: str | None = None
    children: list["TreeNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class Tree:
    """A rooted tree; leaves are listed in planar (left-to-right) order."""

    def __init__(self, root: TreeNode):
        self.root = root
        self._validate()

    def _validate(self) -> None:
        for parent, child in self.edges():
            if child.depth < parent.depth:
                raise ValidationError(
                    f"negative edge length: child depth {child.depth} above parent {parent.depth}"
                )

    def edges(self) -> Iterator[tuple[TreeNode, TreeNode]]:
        for node in self.nodes():
            for child in node.children:
                yield node, child

    def nodes(self) -> Iterator[TreeNode]:
        """Nodes in preorder, children in planar order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            for child in reversed(node.children):
                stack.append(child)

    def leaves(self) -> list[TreeNode]:
        """Leaves in planar order."""
        return [node for node in self.nodes() if node.is_leaf]

    def leaf_labels(self) -> list[str]:
        return [leaf.label or "" for leaf in self.leaves()]

    def leaf_depths(self) -> list[float]:
        return [leaf.depth for leaf in self.leaves()]

    def _path_to(self, label: str) -> list[TreeNode]:
        """Root-to-leaf path of the first leaf (in planar order) with this
        label, by an explicit-stack depth-first walk."""
        path: list[TreeNode] = []
        stack = [(self.root, 0)]
        while stack:
            node, level = stack.pop()
            del path[level:]
            path.append(node)
            if node.is_leaf and node.label == label:
                return path
            stack.extend((child, level + 1) for child in reversed(node.children))
        raise ValidationError(f"no leaf labelled {label!r}")

    def mrca_depth(self, label_a: str, label_b: str) -> float:
        return _last_common_depth(self._path_to(label_a), self._path_to(label_b))

    def distance(self, label_a: str, label_b: str) -> float:
        """Path length between two leaves, from stored depths."""
        if label_a == label_b:
            return 0.0
        pa, pb = self._path_to(label_a), self._path_to(label_b)
        mrca = _last_common_depth(pa, pb)
        return (pa[-1].depth - mrca) + (pb[-1].depth - mrca)

    def newick(self, digits: int = 12) -> str:
        """Newick string with branch lengths, terminated by ';'."""

        def fmt(x: float) -> str:
            return f"{x:.{digits}g}"

        parts: list[str] = []
        # a stack of nodes still to open (with their parent's depth) and
        # of text to write once the nodes above it on the stack are done
        stack: list = [(self.root, None)]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            node, parent_depth = item
            tail = node.label or ""
            tail += ";" if parent_depth is None else f":{fmt(node.depth - parent_depth)}"
            if not node.children:
                parts.append(tail)
                continue
            parts.append("(")
            stack.append(")" + tail)
            for k in range(len(node.children) - 1, -1, -1):
                stack.append((node.children[k], node.depth))
                if k:
                    stack.append(",")
        return "".join(parts)


def _last_common_depth(pa: list[TreeNode], pb: list[TreeNode]) -> float:
    """Depth of the deepest node shared by two root-to-leaf paths."""
    depth = pa[0].depth
    for x, y in zip(pa, pb):
        if x is not y:
            break
        depth = x.depth
    return depth


def _tree_from_separators(leaf_depths: Sequence[float], keys: Sequence[float],
                          depths: Sequence[float]) -> Tree:
    """Leaves '0'..'n-1' in planar order; separator k, between leaves k
    and k+1, diverges at ``depths[k]``.  The O(n) monotone-stack Cartesian
    tree of ``keys`` (Gabow, Bentley and Tarjan, STOC 1984): smaller keys
    split first, and equal keys that no smaller key separates merge into
    one multifurcation.  The top hangs from a root at depth 0 unless it
    sits there already."""
    stack: list[tuple[float, TreeNode]] = []  # open nodes, keys strictly increasing
    cur = TreeNode(depth=leaf_depths[0], label="0")
    for k, key in enumerate(keys):
        while stack and stack[-1][0] > key:
            node = stack.pop()[1]
            node.children.append(cur)
            cur = node
        if stack and stack[-1][0] == key:
            stack[-1][1].children.append(cur)
        else:
            stack.append((key, TreeNode(depth=depths[k], children=[cur])))
        cur = TreeNode(depth=leaf_depths[k + 1], label=str(k + 1))
    for _, node in reversed(stack):
        node.children.append(cur)
        cur = node
    if cur.depth > 0.0:
        cur = TreeNode(depth=0.0, children=[cur])
    return Tree(cur)


def parse_newick(text: str) -> Tree:
    """Parse a Newick string (labels and branch lengths) back into a Tree.

    The parser keeps the chain of open internal nodes on an explicit
    stack, so nesting depth is not limited by recursion.
    """
    text = text.strip()
    if not text.endswith(";"):
        raise ValidationError("Newick string must end with ';'")
    s = text[:-1]
    pos = 0
    open_nodes: list[TreeNode] = []  # internal nodes whose ')' is pending
    while True:
        node = TreeNode(depth=0.0)
        if pos < len(s) and s[pos] == "(":
            pos += 1
            open_nodes.append(node)
            continue  # parse its first child
        while True:
            # node's children are complete: read its label and edge length
            match = _LABEL_LENGTH.match(s, pos)
            label, length = match.groups()
            pos = match.end()
            if label:
                node.label = label
            length = 0.0 if length is None else float(length)
            if not open_nodes:
                break
            # stash the edge length on depth; resolved below
            node.depth = length
            open_nodes[-1].children.append(node)
            if pos < len(s) and s[pos] == ",":
                pos += 1
                break  # parse the next sibling
            if pos >= len(s) or s[pos] != ")":
                raise ValidationError("unbalanced parentheses in Newick string")
            pos += 1
            node = open_nodes.pop()
        if not open_nodes:
            break
    if pos != len(s):
        raise ValidationError(f"trailing characters in Newick string: {s[pos:]!r}")

    root = node
    root.depth = 0.0
    stack = [(child, 0.0) for child in reversed(root.children)]
    while stack:
        child, base = stack.pop()
        child.depth = base + child.depth
        stack.extend((c, child.depth) for c in reversed(child.children))
    return Tree(root)
