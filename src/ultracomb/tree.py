"""Rooted edge-lengthed trees with Newick export.

A tree is stored in one preorder layout: per node, the index of its
parent (-1 for the root, node 0), its distance from the root (``depth``)
and its label.  Children come in planar order, so a node's first child
is the node right after it.  Edge lengths are differences of depths;
storing depths keeps root-to-leaf distances exact for ultrametric trees
built from combs.  Children order is meaningful: it is the planar order
used by contour codings and population reductions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import ValidationError, _integer

__all__ = ["TreeNode", "Tree", "parse_newick"]

# a node's label, then its optional ':'-prefixed edge length
_LABEL_LENGTH = re.compile(r"([^,():;]*)(?::([^,()]*))?")


@dataclass
class TreeNode:
    """A node of a hand-built tree, or of a view of a :class:`Tree`."""

    depth: float
    label: str | None = None
    children: list["TreeNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class Tree:
    """A rooted tree; leaves are listed in planar (left-to-right) order.

    ``Tree(root)`` reads a :class:`TreeNode` graph once, by an
    explicit-stack walk, and keeps no reference to it.
    """

    __slots__ = ("_parent", "_depth", "_labels")

    def __init__(self, root: TreeNode):
        nodes, parent, stack = [], [], [(root, -1)]
        while stack:
            node, up = stack.pop()
            stack.extend((child, len(nodes)) for child in reversed(node.children))
            nodes.append(node)
            parent.append(up)
        self._set(parent, [x.depth for x in nodes], [x.label for x in nodes])

    @classmethod
    def _from_layout(cls, parent, depth, labels: list) -> "Tree":
        """The tree of a preorder layout (see the module docstring)."""
        tree = cls.__new__(cls)
        tree._set(parent, depth, labels)
        return tree

    def _set(self, parent, depth, labels: list) -> None:
        parent = np.asarray(parent, dtype=np.intp)
        depth = np.asarray(depth, dtype=float)
        low = np.flatnonzero(depth[1:] < depth[parent[1:]]) + 1
        if low.size:
            # name the first such edge taken parent by parent in preorder
            child = low[np.argmin(parent[low])]
            raise ValidationError(f"negative edge length: child depth {depth[child]} "
                                  f"above parent {depth[parent[child]]}")
        self._parent, self._depth, self._labels = parent, depth, labels

    def _leaves(self) -> np.ndarray:
        """Preorder indices of the leaves: the nodes not followed by a child."""
        parent = self._parent
        return np.flatnonzero(np.append(parent[1:] != np.arange(parent.size - 1), True))

    def nodes(self) -> list[TreeNode]:
        """:class:`TreeNode` views of the nodes in preorder, children in
        planar order, built on each call."""
        nodes = [TreeNode(d, lab) for d, lab in zip(self._depth.tolist(), self._labels)]
        for node, up in zip(nodes[1:], self._parent[1:].tolist()):
            nodes[up].children.append(node)
        return nodes

    @property
    def root(self) -> TreeNode:
        """A :class:`TreeNode` view of the whole tree, built on each access."""
        return self.nodes()[0]

    def leaves(self) -> list[TreeNode]:
        """Views of the leaves in planar order."""
        return [node for node in self.nodes() if node.is_leaf]

    def leaf_labels(self) -> list[str]:
        return [self._labels[i] or "" for i in self._leaves().tolist()]

    def leaf_depths(self) -> list[float]:
        return self._depth[self._leaves()].tolist()

    def _leaf(self, label: str) -> int:
        """Preorder index of the first leaf (in planar order) with this label."""
        for i in self._leaves().tolist():
            if self._labels[i] == label:
                return i
        raise ValidationError(f"no leaf labelled {label!r}")

    def mrca_depth(self, label_a: str, label_b: str) -> float:
        i, j, parent = self._leaf(label_a), self._leaf(label_b), self._parent
        while i != j:  # climb from the later node: a parent precedes its children
            i, j = min(i, j), parent[max(i, j)]
        return float(self._depth[i])

    def distance(self, label_a: str, label_b: str) -> float:
        """Path length between two leaves, from stored depths."""
        if label_a == label_b:
            return 0.0
        mrca = self.mrca_depth(label_a, label_b)
        a, b = self._depth[[self._leaf(label_a), self._leaf(label_b)]].tolist()
        return (a - mrca) + (b - mrca)

    def newick(self, digits: int = 12) -> str:
        """Newick string with branch lengths, terminated by ';'.

        Every edge length is formatted in one pass over the arrays; one
        walk down the preorder then writes each node's label and length
        once the subtree below it is closed.
        """
        if _integer("digits", digits) < 0:
            raise ValidationError(f"digits must be nonnegative, got {digits}")
        parent, labels = self._parent.tolist(), self._labels
        lengths = map(format, (self._depth[1:] - self._depth[self._parent[1:]]).tolist(),
                      repeat(f".{digits}g"))
        tails = [(labels[0] or "") + ";"]
        tails += [(lab or "") + ":" + x for lab, x in zip(labels[1:], lengths)]
        parts: list[str] = []
        path = [0]  # the open nodes, root first
        for i, up in enumerate(parent[1:], 1):
            if up == i - 1:  # a first child: its parent's subtree opens
                parts.append("(")
                tails[up] = ")" + tails[up]
            else:  # a later sibling: close the subtrees before it
                while path[-1] != up:
                    parts.append(tails[path.pop()])
                parts.append(",")
            path.append(i)
        parts += [tails[i] for i in reversed(path)]
        return "".join(parts)


def _tree_from_separators(leaf_depths: Sequence[float], keys: Sequence[float],
                          depths: Sequence[float],
                          labels: Sequence[str] | None = None) -> Tree:
    """Leaves in planar order, labelled ``labels`` (default '0'..'n-1');
    separator k, between leaves k and k+1, diverges at ``depths[k]``.
    The monotone-stack Cartesian tree of ``keys`` (Gabow, Bentley and
    Tarjan, STOC 1984): smaller keys split first, and equal keys that no
    smaller key separates merge into one multifurcation.  The top hangs
    from a root at depth 0 unless it sits there already.

    The stack links the nodes as it makes them, leaves first, in one
    O(n) pass; one numpy sort by (leftmost leaf, outermost first) puts
    them in preorder.
    """
    n = len(leaf_depths)
    parent = [-1] * n
    depth = list(leaf_depths)
    lo = list(range(n))  # each node's leftmost leaf
    stack: list[tuple[float, int]] = []  # open inner nodes, keys strictly increasing
    cur = 0  # the subtree completed last
    for k, key in enumerate(keys):
        while stack and stack[-1][0] > key:
            parent[cur] = stack.pop()[1]
            cur = parent[cur]
        if stack and stack[-1][0] == key:
            parent[cur] = stack[-1][1]
        else:
            parent[cur] = len(parent)
            stack.append((key, len(parent)))
            parent.append(-1)
            depth.append(depths[k])
            lo.append(lo[cur])
        cur = k + 1
    for _, top in reversed(stack):
        parent[cur] = top
        cur = top
    if depth[cur] > 0.0:
        parent[cur] = len(parent)
        parent.append(-1)
        depth.append(0.0)
        lo.append(0)
    # an inner node made later with the same leftmost leaf is an ancestor
    order = np.lexsort((-np.arange(len(parent)), lo))
    rank = np.append(np.argsort(order), -1)  # and -1 stays the root's parent
    names = [str(i) for i in range(n)] if labels is None else list(labels)
    names += [None] * (len(parent) - n)
    return Tree._from_layout(rank[np.asarray(parent)[order]], np.asarray(depth)[order],
                             [names[i] for i in order.tolist()])


def parse_newick(text: str) -> Tree:
    """Parse a Newick string (labels and branch lengths) back into a Tree.

    One scan of the string numbers the nodes in preorder as they open
    and keeps the chain of open internal nodes on an explicit stack, so
    nesting depth is not limited by recursion.  Depths are then summed
    parent first, in preorder.
    """
    text = text.strip()
    if not text.endswith(";"):
        raise ValidationError("Newick string must end with ';'")
    s = text[:-1]
    pos = 0
    parent: list[int] = []
    depth: list[float] = []  # each node's edge length until resolved below
    labels: list[str | None] = []
    open_nodes: list[int] = []  # internal nodes whose ')' is pending
    while True:
        node = len(parent)
        parent.append(open_nodes[-1] if open_nodes else -1)
        depth.append(0.0)
        labels.append(None)
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
                labels[node] = label
            length = 0.0 if length is None else float(length)
            if not open_nodes:
                break
            depth[node] = length
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

    for i in range(1, len(parent)):  # the root stays at 0.0; parents come first
        depth[i] += depth[parent[i]]
    return Tree._from_layout(parent, depth, labels)
