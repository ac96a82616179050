"""Undirected multigraphs with loops and parallel edges.

Vertex ids are arbitrary non-negative ints and stay stable across deletions;
ids of deleted vertices are never reused implicitly.  A loop at v contributes
2 to deg(v) but only its multiplicity to the edge count m.  Graphs have value
semantics: ``copy`` is cheap and mutation never aliases.  Every derived graph
(``minus``, ``induced``) is a copy with vertices removed, and one depth-first
walk, ``rooted_forest``, both roots forests and decides ``is_forest``.
"""
from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class MultiGraph:
    __slots__ = ("_adj", "_m")

    def __init__(self) -> None:
        # _adj[u][v] = multiplicity; loops stored once as _adj[v][v].
        self._adj: Dict[int, Dict[int, int]] = {}
        self._m = 0

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_edges(
        cls,
        vertices: Iterable[int] = (),
        edges: Iterable[Tuple[int, int]] = (),
    ) -> "MultiGraph":
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_vertex(self, v: int | None = None) -> int:
        if v is None:
            v = max(self._adj, default=-1) + 1
        if v < 0:
            raise ValueError(f"vertex ids must be non-negative, got {v}")
        if v not in self._adj:
            self._adj[v] = {}
        return v

    def add_edge(self, u: int, v: int, mult: int = 1) -> None:
        if mult <= 0:
            raise ValueError(f"edge multiplicity must be positive, got {mult}")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u][v] = self._adj[u].get(v, 0) + mult
        if u != v:
            self._adj[v][u] = self._adj[v].get(u, 0) + mult
        self._m += mult

    def set_multiplicity(self, u: int, v: int, mult: int) -> None:
        """Overwrite the multiplicity of an existing edge (0 removes it)."""
        if mult < 0:
            raise ValueError("multiplicity must be >= 0")
        cur = self.multiplicity(u, v)
        if cur == 0 and mult > 0:
            self.add_edge(u, v, mult)
            return
        self._m += mult - cur
        if mult == 0:
            self._adj[u].pop(v, None)
            self._adj[v].pop(u, None)
        else:
            self._adj[u][v] = mult
            if u != v:
                self._adj[v][u] = mult

    def remove_vertex(self, v: int) -> None:
        nbs = self._adj.pop(v)
        for u, mult in nbs.items():
            self._m -= mult
            if u != v:
                del self._adj[u][v]

    # ------------------------------------------------------------------
    # queries

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def vertices(self) -> List[int]:
        return sorted(self._adj)

    def vertex_set(self) -> frozenset:
        return frozenset(self._adj)

    def neighbors(self, v: int) -> List[int]:
        return sorted(self._adj[v])

    def multiplicity(self, u: int, v: int) -> int:
        return self._adj[u].get(v, 0)

    def loops_at(self, v: int) -> int:
        return self._adj[v].get(v, 0)

    def degree(self, v: int) -> int:
        # loops count twice
        deg = 0
        for u, mult in self._adj[v].items():
            deg += mult * (2 if u == v else 1)
        return deg

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (u, v, mult) with u <= v, sorted, each edge once."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u <= v:
                    yield (u, v, self._adj[u][v])

    def edge_lines(self) -> Iterator[Tuple[int, int]]:
        """Every edge repeated by multiplicity (round-trip form)."""
        for u, v, mult in self.edges():
            for _ in range(mult):
                yield (u, v)

    # ------------------------------------------------------------------
    # derived graphs

    def copy(self) -> "MultiGraph":
        g = MultiGraph()
        g._adj = {v: dict(nbs) for v, nbs in self._adj.items()}
        g._m = self._m
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"


def minus(g: MultiGraph, drop: Iterable[int]) -> MultiGraph:
    """A copy of g with the vertices in ``drop`` removed; ids not in g are ignored."""
    h = g.copy()
    for v in drop:
        if h.has_vertex(v):
            h.remove_vertex(v)
    return h


def induced(g: MultiGraph, keep: Iterable[int]) -> MultiGraph:
    """Subgraph induced by ``keep``: g minus the rest.  Raises KeyError on unknown ids."""
    keep_set = set(keep)
    for v in keep_set:
        if not g.has_vertex(v):
            raise KeyError(f"vertex {v} not in graph")
    return minus(g, g.vertex_set() - keep_set)


def connected_components(g: MultiGraph) -> List[List[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    seen: set = set()
    comps: List[List[int]] = []
    for start in g.vertices():
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def rooted_forest(g: MultiGraph) -> Tuple[List[int], Dict[int, Optional[int]]]:
    """Root every component of the forest g at its smallest vertex.

    Returns the depth-first preorder, components in order of their roots and
    children in id order, and the parent map (None at a root).  Raises
    ValueError when g has a cycle, loops and parallel edges included.
    """
    parent: Dict[int, Optional[int]] = {}
    order: List[int] = []
    for root in g.vertices():
        if root in parent:
            continue
        parent[root] = None
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in reversed(g.neighbors(v)):
                if u not in parent:
                    if g.multiplicity(v, u) != 1:
                        raise ValueError(f"parallel edge {v}-{u}: not a forest")
                    parent[u] = v
                    stack.append(u)
                elif u != parent[v]:  # reached before v, not through v: a cycle
                    raise ValueError(f"cycle through {v}-{u}: not a forest")
    return order, parent


def is_forest(g: MultiGraph) -> bool:
    """True iff g has no cycle (loops and parallel edges are cycles): whether
    ``rooted_forest`` can root it."""
    try:
        rooted_forest(g)
    except ValueError:
        return False
    return True
