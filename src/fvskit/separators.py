"""Balanced forest separators, randomized two/three-way separations, and
FVS-based tree decompositions.

The common scheme: given a graph g and a feedback vertex set f, the forest
g - f is split by a small balanced separator S_eps; the remaining forest
components and the edges inside f become vertices of a constraint graph H
whose random coloring assigns whole components to sides.  An f-vertex joins
a side only when everything it touches agrees on that side, so no edge can
ever cross between sides.  Balance is a target, never a promise: the best
of ``attempts`` colorings is kept and its score recorded, but validity alone
is guaranteed.
"""
from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .multigraph import MultiGraph, connected_components, induced, is_forest, minus, rooted_forest


# ----------------------------------------------------------------------
# balanced separators in forests


def forest_balanced_separator(
    t: MultiGraph,
    weights: Dict[int, int],
    beta: int,
) -> FrozenSet[int]:
    """Peel at most ``beta`` vertices so every remaining component has
    weight <= total/beta.

    Each component is rooted at its smallest vertex with children in id
    order.  Repeatedly the deepest vertex whose subtree weight still exceeds
    total/beta is moved into the separator and its subtree discarded; its
    child subtrees are already light, so each peel removes more than
    total/beta weight and the separator stays within ``beta`` vertices.
    Comparisons use integers (subtree_weight * beta > total) throughout.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if not is_forest(t):
        raise ValueError("forest_balanced_separator needs a forest")
    total = sum(weights[v] for v in t.vertices())

    order, parent = rooted_forest(t)  # preorder; reversed it is a postorder
    depth: Dict[int, int] = {}
    children: Dict[int, List[int]] = {v: [] for v in order}
    for v in order:
        p = parent[v]
        depth[v] = 0 if p is None else depth[p] + 1
        if p is not None:
            children[p].append(v)

    alive: Set[int] = set(t.vertices())
    sep: Set[int] = set()
    while True:
        sub = {v: weights[v] for v in alive}
        for v in reversed(order):
            if v in alive:
                p = parent[v]
                if p is not None and p in alive:
                    sub[p] += sub[v]
        best: Optional[int] = None
        for v in alive:
            if sub[v] * beta > total:
                if best is None or (depth[v], -v) > (depth[best], -best):
                    best = v
        if best is None:
            break
        sep.add(best)
        stack = [best]
        while stack:
            v = stack.pop()
            alive.discard(v)
            for u in children[v]:
                if u in alive:
                    stack.append(u)

    assert len(sep) <= beta, "peeling bound violated"
    return frozenset(sep)


def _beta_for_budget(budget: int) -> int:
    # separator size target k^0.99, i.e. eps = k^-0.01 of the budget
    return max(1, math.ceil(budget ** 0.99))


# ----------------------------------------------------------------------
# constraint graph over forest components and f-internal edges


@dataclasses.dataclass(frozen=True)
class ConstraintBipartite:
    """Bipartite constraint graph H.

    Left class: the f-vertices.  Right class: one vertex per forest
    component of g - f - S_eps that touches f, plus one vertex per copy of
    an edge inside f (its two endpoints are its neighborhood; a loop yields
    a single neighbor).  ``adj`` maps each right vertex to the f-vertices
    it constrains.  The right class never exceeds deg(f).
    """

    left: Tuple[int, ...]
    right: Tuple[Tuple, ...]
    adj: Dict[Tuple, FrozenSet[int]]
    components: Dict[Tuple, Tuple[int, ...]]  # right comp-vertex -> its members


def build_constraint_bipartite(
    g: MultiGraph,
    f: Iterable[int],
    s_eps: Iterable[int],
) -> ConstraintBipartite:
    fset = frozenset(f)
    eps = frozenset(s_eps)
    if not is_forest(minus(g, fset)):
        raise ValueError("f is not a feedback vertex set of g")
    rest = [v for v in g.vertices() if v not in fset and v not in eps]
    right: List[Tuple] = []
    adj: Dict[Tuple, FrozenSet[int]] = {}
    comps: Dict[Tuple, Tuple[int, ...]] = {}
    for idx, comp in enumerate(connected_components(induced(g, rest))):
        touched = set()
        for v in comp:
            for u in g.neighbors(v):
                if u in fset:
                    touched.add(u)
        node = ("c", idx)
        right.append(node)
        adj[node] = frozenset(touched)
        comps[node] = tuple(comp)
    for u, v, mult in g.edges():
        if u in fset and v in fset:
            for j in range(mult):
                node = ("e", u, v, j)
                right.append(node)
                adj[node] = frozenset({u, v})
    return ConstraintBipartite(tuple(sorted(fset)), tuple(right), adj, comps)


# ----------------------------------------------------------------------
# two-way separation


@dataclasses.dataclass(frozen=True)
class Separation:
    a: FrozenSet[int]
    b: FrozenSet[int]
    s: FrozenSet[int]
    s_eps: FrozenSet[int] = frozenset()
    balance: int = 0  # min(|a ∩ f|, |b ∩ f|) of the kept coloring

    def classes(self) -> Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
        return self.a, self.b, self.s

    def absorb(self, v: int) -> "Separation":
        """Move v (or add it) into the separator class."""
        return Separation(
            self.a - {v}, self.b - {v}, self.s | {v}, self.s_eps, self.balance
        )


def check_separation(g: MultiGraph, sep: Separation) -> None:
    """Raise unless (a, b, s) partitions V(g) with no a-b edge."""
    a, b, s = sep.a, sep.b, sep.s
    verts = g.vertex_set()
    if a | b | s != verts or (a & b) or (a & s) or (b & s):
        raise ValueError("separation classes do not partition the vertex set")
    for u, v, _ in g.edges():
        if (u in a and v in b) or (u in b and v in a):
            raise ValueError(f"edge {u}-{v} crosses between the two sides")


def two_way_separation(
    g: MultiGraph,
    f: Iterable[int],
    rng: random.Random,
    attempts: int = 25,
    budget: Optional[int] = None,
) -> Separation:
    """Separation (A, B, S) of g with no A-B edge, f split across all three.

    ``budget`` sizes the forest separator (defaults to |f|); the best of
    ``attempts`` random colorings under the score min(|A∩f|, |B∩f|) wins.
    """
    fset = frozenset(f)
    forest = minus(g, fset)
    if not is_forest(forest):
        raise ValueError("f is not a feedback vertex set of g")
    beta = _beta_for_budget(budget if budget is not None else max(1, len(fset)))
    wts = {v: sum(g.multiplicity(v, u) for u in g.neighbors(v) if u in fset)
           for v in forest.vertices()}
    s_eps = forest_balanced_separator(forest, wts, beta)
    h = build_constraint_bipartite(g, fset, s_eps)

    best: Optional[Separation] = None
    for _ in range(max(1, attempts)):
        color = {node: rng.randrange(2) for node in h.right}
        a: Set[int] = set()
        b: Set[int] = set()
        s: Set[int] = set(s_eps)
        for node in h.right:
            if node[0] == "c":
                (a if color[node] == 0 else b).update(h.components[node])
        for v in h.left:
            seen = {color[node] for node in h.right if v in h.adj[node]}
            if not seen:
                (a if rng.randrange(2) == 0 else b).add(v)
            elif seen == {0}:
                a.add(v)
            elif seen == {1}:
                b.add(v)
            else:
                s.add(v)
        cand = Separation(
            frozenset(a), frozenset(b), frozenset(s), s_eps,
            min(len(a & fset), len(b & fset)),
        )
        check_separation(g, cand)
        if best is None or cand.balance > best.balance:
            best = cand
    assert best is not None
    return best


# ----------------------------------------------------------------------
# three-way separation


@dataclasses.dataclass(frozen=True)
class ThreeWaySeparation:
    """Partition of V into seven classes indexed by non-empty subsets of
    {1,2,3}; edges may only join classes whose index sets intersect."""

    s1: FrozenSet[int]
    s2: FrozenSet[int]
    s3: FrozenSet[int]
    s12: FrozenSet[int]
    s13: FrozenSet[int]
    s23: FrozenSet[int]
    s123: FrozenSet[int]
    s_eps: FrozenSet[int] = frozenset()
    balance: int = 0

    def by_index(self) -> Dict[FrozenSet[int], FrozenSet[int]]:
        return {
            frozenset({1}): self.s1,
            frozenset({2}): self.s2,
            frozenset({3}): self.s3,
            frozenset({1, 2}): self.s12,
            frozenset({1, 3}): self.s13,
            frozenset({2, 3}): self.s23,
            frozenset({1, 2, 3}): self.s123,
        }

    def absorb(self, v: int) -> "ThreeWaySeparation":
        drop = lambda cls: cls - {v}
        return ThreeWaySeparation(
            drop(self.s1), drop(self.s2), drop(self.s3),
            drop(self.s12), drop(self.s13), drop(self.s23),
            self.s123 | {v}, self.s_eps, self.balance,
        )


def check_three_way(g: MultiGraph, sep: ThreeWaySeparation) -> None:
    classes = sep.by_index()
    union: Set[int] = set()
    count = 0
    for verts in classes.values():
        union |= verts
        count += len(verts)
    if union != set(g.vertex_set()) or count != g.n:
        raise ValueError("three-way classes do not partition the vertex set")
    owner: Dict[int, FrozenSet[int]] = {}
    for idx, verts in classes.items():
        for v in verts:
            owner[v] = idx
    for u, v, _ in g.edges():
        if not (owner[u] & owner[v]):
            raise ValueError(
                f"edge {u}-{v} joins classes with disjoint index sets "
                f"{sorted(owner[u])} / {sorted(owner[v])}"
            )


def three_way_separation(
    g: MultiGraph,
    f: Iterable[int],
    rng: random.Random,
    attempts: int = 25,
    budget: Optional[int] = None,
) -> ThreeWaySeparation:
    """Three-way analogue: right vertices of H get one of three colors, an
    f-vertex lands in the class indexed by exactly the colors it sees, and
    forest components join the singleton class of their own color."""
    fset = frozenset(f)
    forest = minus(g, fset)
    if not is_forest(forest):
        raise ValueError("f is not a feedback vertex set of g")
    beta = _beta_for_budget(budget if budget is not None else max(1, len(fset)))
    wts = {v: sum(g.multiplicity(v, u) for u in g.neighbors(v) if u in fset)
           for v in forest.vertices()}
    s_eps = forest_balanced_separator(forest, wts, beta)
    h = build_constraint_bipartite(g, fset, s_eps)

    best: Optional[ThreeWaySeparation] = None
    for _ in range(max(1, attempts)):
        color = {node: rng.randrange(3) for node in h.right}
        buckets: Dict[FrozenSet[int], Set[int]] = {
            frozenset(ix): set()
            for ix in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})
        }
        for node in h.right:
            if node[0] == "c":
                buckets[frozenset({color[node] + 1})].update(h.components[node])
        for v in h.left:
            seen = {color[node] + 1 for node in h.right if v in h.adj[node]}
            if not seen:
                seen = {rng.randrange(3) + 1}
            buckets[frozenset(seen)].add(v)
        buckets[frozenset({1, 2, 3})].update(s_eps)
        singles = [len(buckets[frozenset({i})] & fset) for i in (1, 2, 3)]
        cand = ThreeWaySeparation(
            *(frozenset(buckets[frozenset(ix)])
              for ix in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})),
            s_eps,
            min(singles),
        )
        check_three_way(g, cand)
        if best is None or cand.balance > best.balance:
            best = cand
    assert best is not None
    return best


# ----------------------------------------------------------------------
# tree decompositions


@dataclasses.dataclass(frozen=True)
class TreeDecomposition:
    bags: Tuple[FrozenSet[int], ...]
    edges: Tuple[Tuple[int, int], ...]  # indices into bags
    s_eps: FrozenSet[int] = frozenset()

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    ok: bool
    width: int
    violation: Optional[str] = None


def validate_decomposition(g: MultiGraph, td: TreeDecomposition) -> ValidationReport:
    """Check the three decomposition axioms; report the first violation."""
    width = max((len(b) for b in td.bags), default=1) - 1
    nodes = range(len(td.bags))
    tree_adj: Dict[int, Set[int]] = {i: set() for i in nodes}
    for i, j in td.edges:
        tree_adj[i].add(j)
        tree_adj[j].add(i)
    # the node graph must be a tree
    if len(td.bags) != len(td.edges) + 1:
        return ValidationReport(False, width, "node graph is not a tree (|edges| != |bags| - 1)")
    seen = {0} if td.bags else set()
    stack = [0] if td.bags else []
    while stack:
        i = stack.pop()
        for j in tree_adj[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != len(td.bags):
        return ValidationReport(False, width, "node graph is disconnected")

    placement: Dict[int, List[int]] = {}
    for i, bag in enumerate(td.bags):
        for v in bag:
            placement.setdefault(v, []).append(i)
    for v in g.vertices():
        if v not in placement:
            return ValidationReport(False, width, f"vertex {v} appears in no bag")
    for u, v, _ in g.edges():
        if not any(u in bag and v in bag for bag in td.bags):
            return ValidationReport(False, width, f"edge {u}-{v} is contained in no bag")
    for v, spots in placement.items():
        hold = set(spots)
        comp = {spots[0]}
        stack = [spots[0]]
        while stack:
            i = stack.pop()
            for j in tree_adj[i]:
                if j in hold and j not in comp:
                    comp.add(j)
                    stack.append(j)
        if comp != hold:
            return ValidationReport(False, width, f"bags containing vertex {v} are not connected")
    return ValidationReport(True, width, None)


def _forest_bags(
    g: MultiGraph,
    side_forest: List[int],
    extra: FrozenSet[int],
    bags: List[FrozenSet[int]],
    edges: List[Tuple[int, int]],
) -> int:
    """Width-1 bags {v, parent(v)} per forest vertex, each widened by
    ``extra``; returns the index of a representative bag for joining."""
    if not side_forest:
        bags.append(frozenset(extra))
        return len(bags) - 1
    order, parent = rooted_forest(induced(g, side_forest))
    bag_of: Dict[int, int] = {}
    root_bags: List[int] = []
    for i, v in enumerate(order):
        p = parent[v]
        bags.append(frozenset(({v} if p is None else {v, p}) | extra))
        bag_of[v] = len(bags) - 1
        if p is None:
            root_bags.append(bag_of[v])
        else:
            edges.append((bag_of[p], bag_of[v]))
        component_done = i + 1 == len(order) or parent[order[i + 1]] is None
        if component_done and len(root_bags) > 1:
            edges.append((root_bags[-2], root_bags[-1]))  # chain to the previous root
    return root_bags[0]


def tree_decomposition_from_fvs(
    g: MultiGraph,
    f: Iterable[int],
    rng: random.Random,
    attempts: int = 25,
    budget: Optional[int] = None,
) -> TreeDecomposition:
    """Tree decomposition from a two-way separation.

    Each side contributes the width-1 bags of its forest part, widened by
    that side's f-vertices plus the whole separator; one bridging edge joins
    the two sides.  Width never exceeds budget + |S_eps| + 1.
    """
    fset = frozenset(f)
    k_eff = budget if budget is not None else max(1, len(fset))
    sep = two_way_separation(g, fset, rng, attempts=attempts, budget=k_eff)
    bags: List[FrozenSet[int]] = []
    edges: List[Tuple[int, int]] = []
    if g.n == 0:
        return TreeDecomposition((frozenset(),), (), frozenset())
    rep_a = _forest_bags(g, sorted(sep.a - fset), frozenset((sep.a & fset) | sep.s), bags, edges)
    rep_b = _forest_bags(g, sorted(sep.b - fset), frozenset((sep.b & fset) | sep.s), bags, edges)
    edges.append((rep_a, rep_b))
    td = TreeDecomposition(tuple(bags), tuple(edges), sep.s_eps)
    report = validate_decomposition(g, td)
    if not report.ok:
        raise AssertionError(f"constructed decomposition invalid: {report.violation}")
    if td.width > k_eff + len(sep.s_eps) + 1:
        raise AssertionError(
            f"width {td.width} exceeds bound {k_eff} + {len(sep.s_eps)} + 1"
        )
    return td


def decomposition_to_pace(td: TreeDecomposition, n: int) -> str:
    """PACE-style text: header ``s td <bags> <width+1> <n>``, 1-indexed."""
    lines = [f"s td {len(td.bags)} {td.width + 1} {n}"]
    for i, bag in enumerate(td.bags, start=1):
        members = " ".join(str(v + 1) for v in sorted(bag))
        lines.append(f"b {i} {members}".rstrip())
    for i, j in td.edges:
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"
