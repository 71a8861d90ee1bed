"""Rooted edge-lengthed trees with Newick export.

Nodes store their distance from the root (``depth``) rather than edge
lengths; edge lengths are differences of depths.  Storing depths keeps
root-to-leaf distances exact for ultrametric trees built from combs.
Children order is meaningful: it is the planar order used by contour
codings and population reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import ValidationError

__all__ = ["TreeNode", "Tree", "parse_newick"]


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
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in reversed(node.children):
                stack.append(child)
            for child in node.children:
                yield node, child

    def nodes(self) -> Iterator[TreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            for child in reversed(node.children):
                stack.append(child)

    def leaves(self) -> list[TreeNode]:
        """Leaves in planar order."""
        out: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                for child in reversed(node.children):
                    stack.append(child)
        return out

    def leaf_labels(self) -> list[str]:
        return [leaf.label or "" for leaf in self.leaves()]

    def leaf_depths(self) -> list[float]:
        return [leaf.depth for leaf in self.leaves()]

    def _path_to(self, label: str) -> list[TreeNode]:
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

        path = walk(self.root, [])
        if path is None:
            raise ValidationError(f"no leaf labelled {label!r}")
        return path

    def mrca_depth(self, label_a: str, label_b: str) -> float:
        pa = self._path_to(label_a)
        pb = self._path_to(label_b)
        depth = self.root.depth
        for x, y in zip(pa, pb):
            if x is not y:
                break
            depth = x.depth
        return depth

    def distance(self, label_a: str, label_b: str) -> float:
        """Path length between two leaves, from stored depths."""
        if label_a == label_b:
            return 0.0
        da = self._path_to(label_a)[-1].depth
        db = self._path_to(label_b)[-1].depth
        return (da - self.mrca_depth(label_a, label_b)) + (db - self.mrca_depth(label_a, label_b))

    def newick(self, digits: int = 12) -> str:
        """Newick string with branch lengths, terminated by ';'."""

        def fmt(x: float) -> str:
            return f"{x:.{digits}g}"

        def emit(node: TreeNode, parent_depth: float) -> str:
            length = node.depth - parent_depth
            body = node.label or ""
            if node.children:
                inner = ",".join(emit(c, node.depth) for c in node.children)
                body = f"({inner}){node.label or ''}"
            return f"{body}:{fmt(length)}"

        root = self.root
        if root.children:
            inner = ",".join(emit(c, root.depth) for c in root.children)
            return f"({inner}){root.label or ''};"
        return f"{root.label or ''};"


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
    """Parse a Newick string (labels and branch lengths) back into a Tree."""
    text = text.strip()
    if not text.endswith(";"):
        raise ValidationError("Newick string must end with ';'")
    s = text[:-1]
    pos = 0

    def parse_node() -> tuple[TreeNode, float]:
        # Returns (node with depth unset, edge length to its parent).
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
        # stash child edge lengths on depth; resolved below
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
