"""Balanced forest separators, randomized two/three-way separations, and
FVS-based tree decompositions.

One coloring scheme serves both separations, with 2 or 3 colors: given a
graph g and a feedback vertex set f, the forest g - f is split by a small
balanced separator S_eps.  The right side of the constraint graph H is one
list of f-vertex sets: first each component of g - f - S_eps (ordered by
smallest vertex) with the f-vertices it touches, then each copy of an edge
inside f with its endpoints (one for a loop).  Each entry gets a random
color.  Classes are indexed by non-empty sets of colors: a forest component
joins the singleton class of its color, an f-vertex the class indexed by
exactly the colors of the entries it is in (one random color if none), and
S_eps the all-colors class.  An edge therefore only ever joins classes
whose index sets intersect; with two colors, S_1 and S_2 are the sides A and
B and S_12 is the separator S.  Balance is a target, never a promise: the
best-balanced of ``ATTEMPTS`` colorings is kept, but validity alone is
guaranteed.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

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
    order.  One postorder pass keeps each vertex's residual subtree weight:
    its own weight plus the residual weights of the children not peeled.  A
    vertex whose residual weight exceeds total/beta goes into the separator
    and passes nothing up; otherwise its weight joins its parent's.  The
    child subtrees of a peeled vertex are already light, so each peel removes
    more than total/beta weight and the separator stays within ``beta``
    vertices.  This is the set that repeatedly peeling the deepest heavy
    vertex gives, since a residual weight depends only on the peels below it.
    Comparisons use integers (subtree_weight * beta > total) throughout.
    Raises ValueError when t has a cycle.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    total = sum(weights[v] for v in t.vertices())

    order, parent = rooted_forest(t)  # preorder; reversed it is a postorder
    sub = {v: weights[v] for v in order}
    sep: Set[int] = set()
    for v in reversed(order):
        if sub[v] * beta > total:
            sep.add(v)
        elif parent[v] is not None:
            sub[parent[v]] += sub[v]

    assert len(sep) <= beta, "peeling bound violated"
    return frozenset(sep)


def _beta_for_budget(budget: int) -> int:
    # separator size target k^0.99, i.e. eps = k^-0.01 of the budget
    return max(1, math.ceil(budget ** 0.99))


# ----------------------------------------------------------------------
# colored separations


ATTEMPTS = 25  # colorings drawn per separation; the best-balanced one is kept


def _index_sets(colors: int) -> List[FrozenSet[int]]:
    """The non-empty subsets of {1..colors}, singletons first."""
    return [frozenset(ix) for size in range(1, colors + 1)
            for ix in itertools.combinations(range(1, colors + 1), size)]


def _check_classes(g: MultiGraph, by_index: Dict[FrozenSet[int], FrozenSet[int]]) -> None:
    """Raise unless the classes partition V(g) and every edge joins classes
    whose index sets intersect."""
    union = frozenset().union(*by_index.values())
    if union != g.vertex_set() or sum(map(len, by_index.values())) != g.n:
        raise ValueError("separation classes do not partition the vertex set")
    owner = {v: idx for idx, verts in by_index.items() for v in verts}
    for u, v, _ in g.edges():
        if not (owner[u] & owner[v]):
            raise ValueError(
                f"edge {u}-{v} joins classes with disjoint index sets "
                f"{sorted(owner[u])} / {sorted(owner[v])}"
            )


def _colored_separation(
    g: MultiGraph,
    f: Iterable[int],
    rng: random.Random,
    colors: int,
    budget: Optional[int],
) -> Tuple[Dict[FrozenSet[int], FrozenSet[int]], FrozenSet[int]]:
    """The best of ``ATTEMPTS`` random colorings of H with ``colors`` colors,
    as (classes by index set in ``_index_sets`` order, S_eps).

    ``budget`` sizes the forest separator (defaults to |f|); the score is the
    smallest |S_i ∩ f| over the singleton classes.
    """
    fset = frozenset(f)
    forest = minus(g, fset)
    if not is_forest(forest):
        raise ValueError("f is not a feedback vertex set of g")
    beta = _beta_for_budget(budget if budget is not None else max(1, len(fset)))
    wts = {v: sum(g.multiplicity(v, u) for u in g.neighbors(v) if u in fset)
           for v in forest.vertices()}
    s_eps = forest_balanced_separator(forest, wts, beta)
    # H's right side as the f-vertices each right vertex constrains: the
    # components of forest - S_eps, then one copy per edge inside f
    comps = connected_components(induced(forest, [v for v in forest.vertices() if v not in s_eps]))
    right = [{u for v in comp for u in g.neighbors(v) if u in fset} for comp in comps]
    right += [{u, v} for u, v, mult in g.edges() if u in fset and v in fset for _ in range(mult)]
    sees: Dict[int, List[int]] = {v: [] for v in sorted(fset)}
    for j, ends in enumerate(right):
        for v in ends:
            sees[v].append(j)
    index_sets = _index_sets(colors)

    best: Optional[Tuple[Dict[FrozenSet[int], FrozenSet[int]], int]] = None
    for _ in range(ATTEMPTS):
        color = [rng.randrange(colors) + 1 for _ in right]
        buckets: Dict[FrozenSet[int], Set[int]] = {ix: set() for ix in index_sets}
        for comp, c in zip(comps, color):
            buckets[frozenset({c})].update(comp)
        for v, js in sees.items():
            seen = frozenset(color[j] for j in js) or frozenset({rng.randrange(colors) + 1})
            buckets[seen].add(v)
        buckets[index_sets[-1]].update(s_eps)
        classes = {ix: frozenset(buckets[ix]) for ix in index_sets}
        _check_classes(g, classes)
        score = min(len(classes[ix] & fset) for ix in index_sets[:colors])
        if best is None or score > best[1]:
            best = (classes, score)
    assert best is not None
    return best[0], s_eps


@dataclasses.dataclass(frozen=True)
class Separation:
    """Two-color separation: sides A = S_1 and B = S_2, separator S = S_12."""

    a: FrozenSet[int]
    b: FrozenSet[int]
    s: FrozenSet[int]
    s_eps: FrozenSet[int] = frozenset()

    def by_index(self) -> Dict[FrozenSet[int], FrozenSet[int]]:
        return dict(zip(_index_sets(2), (self.a, self.b, self.s)))


def two_way_separation(
    g: MultiGraph,
    f: Iterable[int],
    rng: random.Random,
    *,
    budget: Optional[int] = None,
) -> Separation:
    """Separation (A, B, S) of g with no A-B edge, f split across all three:
    the best of ``ATTEMPTS`` two-colorings, scored by min(|A∩f|, |B∩f|).
    ``budget`` sizes the forest separator (defaults to |f|)."""
    classes, s_eps = _colored_separation(g, f, rng, 2, budget)
    return Separation(*classes.values(), s_eps)


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

    def by_index(self) -> Dict[FrozenSet[int], FrozenSet[int]]:
        return dict(zip(_index_sets(3), (self.s1, self.s2, self.s3,
                                          self.s12, self.s13, self.s23, self.s123)))


def three_way_separation(
    g: MultiGraph,
    f: Iterable[int],
    rng: random.Random,
    *,
    budget: Optional[int] = None,
) -> ThreeWaySeparation:
    """Three-way analogue of two_way_separation with three colors."""
    classes, s_eps = _colored_separation(g, f, rng, 3, budget)
    return ThreeWaySeparation(*classes.values(), s_eps)


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
    *,
    budget: Optional[int] = None,
) -> TreeDecomposition:
    """Tree decomposition from a two-way separation.

    Each side contributes the width-1 bags of its forest part, widened by
    that side's f-vertices plus the whole separator; one bridging edge joins
    the two sides.  Width never exceeds budget + |S_eps| + 1.
    """
    fset = frozenset(f)
    k_eff = budget if budget is not None else max(1, len(fset))
    sep = two_way_separation(g, fset, rng, budget=k_eff)
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
