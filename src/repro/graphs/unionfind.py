"""Disjoint-set forest over the vertex IDs ``1..n``."""

from __future__ import annotations

__all__ = ["UnionFind"]


class UnionFind:
    """Union-find with path compression; ``union(a, b)`` makes ``b``'s root the parent."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n + 1))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; False if they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True
