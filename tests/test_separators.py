from __future__ import annotations

import math
import random

import pytest

from fvskit.multigraph import MultiGraph, connected_components, induced, is_forest, minus
from fvskit.oracle import brute_min_fvs
from fvskit.separators import (
    ATTEMPTS,
    Separation,
    ThreeWaySeparation,
    _check_classes,
    decomposition_to_pace,
    forest_balanced_separator,
    three_way_separation,
    tree_decomposition_from_fvs,
    two_way_separation,
    validate_decomposition,
)

from conftest import mg, random_multigraph


def _random_forest(rng: random.Random, n: int) -> MultiGraph:
    g = MultiGraph.from_edges(range(n), [])
    for v in range(1, n):
        if rng.random() < 0.8:
            g.add_edge(v, rng.randrange(v))
    return g


# ---------------------------------------------------------------- separator


def test_balanced_separator_path():
    g = mg(9, [(i, i + 1) for i in range(8)])
    w = {v: 1 for v in range(9)}
    sep = forest_balanced_separator(g, w, beta=2)
    assert len(sep) <= 2
    rest = minus(g, sep)
    for comp in connected_components(rest):
        assert sum(w[v] for v in comp) * 2 <= 9


def test_balanced_separator_bound_holds_randomly():
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randrange(1, 16)
        g = _random_forest(rng, n)
        w = {v: rng.randrange(0, 4) for v in g.vertices()}
        beta = rng.randrange(1, 5)
        sep = forest_balanced_separator(g, w, beta)
        assert len(sep) <= beta
        total = sum(w.values())
        for comp in connected_components(minus(g, sep)):
            assert sum(w[v] for v in comp) * beta <= total


def _deepest_first_peel(g: MultiGraph, w, beta: int):
    """Reference separator: root each component at its smallest vertex, then
    repeatedly peel the deepest vertex whose live subtree is heavy, with its
    subtree, until none is."""
    parent, depth = {}, {}
    for comp in connected_components(g):
        root = min(comp)
        parent[root], depth[root] = None, 0
        queue = [root]
        for v in queue:
            for u in g.neighbors(v):
                if u not in depth:
                    parent[u], depth[u] = v, depth[v] + 1
                    queue.append(u)
    total = sum(w.values())
    alive, sep = set(g.vertices()), set()
    while True:
        sub = {v: w[v] for v in alive}
        for v in sorted(alive, key=depth.get, reverse=True):
            if parent[v] in alive:
                sub[parent[v]] += sub[v]
        heavy = [v for v in alive if sub[v] * beta > total]
        if not heavy:
            return frozenset(sep)
        best = max(heavy, key=lambda v: (depth[v], -v))
        sep.add(best)
        below = {best}
        for v in sorted(alive, key=depth.get):
            if parent[v] in below:
                below.add(v)
        alive -= below


def test_balanced_separator_is_the_deepest_first_peel():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randrange(1, 40)
        ids = list(range(n))
        rng.shuffle(ids)
        g = MultiGraph.from_edges(ids, [])
        for i in range(1, n):
            if rng.random() < 0.9:
                g.add_edge(ids[i], ids[rng.randrange(i)])
        w = {v: rng.choice((0, 1, 1, 2, 7, 100)) for v in ids}
        beta = rng.randrange(1, 12)
        assert forest_balanced_separator(g, w, beta) == _deepest_first_peel(g, w, beta)


def test_balanced_separator_rejects_cycles():
    with pytest.raises(ValueError):
        forest_balanced_separator(mg(3, [(0, 1), (1, 2), (0, 2)]), {0: 1, 1: 1, 2: 1}, 1)


def test_balanced_separator_zero_weights():
    g = _random_forest(random.Random(1), 8)
    assert forest_balanced_separator(g, {v: 0 for v in g.vertices()}, 3) == frozenset()


# ------------------------------------------------------- constraint network


class _CountingRandom(random.Random):
    """A Random that counts its ``randrange`` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


@pytest.mark.parametrize("separation", [two_way_separation, three_way_separation])
def test_one_draw_per_forest_component(separation):
    # triangle hub 0 over the forest components {1, 2} and {3}; the doubled
    # 0-3 edge joins f to the forest, so it is not an edge inside f
    g = mg(4, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 3)])
    rng = _CountingRandom(5)
    separation(g, {0}, rng)
    assert rng.draws == 2 * ATTEMPTS


@pytest.mark.parametrize("separation", [two_way_separation, three_way_separation])
def test_one_draw_per_copy_of_an_edge_inside_f(separation):
    # two copies of 0-1, the loop at 2, and 0-2; every f-vertex sees a color
    g = mg(3, [(0, 1), (0, 1), (2, 2), (0, 2)])
    rng = _CountingRandom(5)
    separation(g, {0, 1, 2}, rng)
    assert rng.draws == 4 * ATTEMPTS


@pytest.mark.parametrize("separation", [two_way_separation, three_way_separation])
@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (2, 3), (3, 1)],   # a cycle 1-2-3
    [(0, 1), (2, 2)],                   # a loop at 2
    [(0, 1), (2, 3), (2, 3)],           # a parallel pair 2-3
])
def test_separation_rejects_f_that_leaves_a_cycle(separation, edges):
    with pytest.raises(ValueError):
        separation(mg(4, edges), {0}, random.Random(0))


def test_budget_is_keyword_only():
    g = mg(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(TypeError):
        two_way_separation(g, {0}, random.Random(0), 25)


def test_two_way_separation_properties():
    rng = random.Random(17)
    for trial in range(120):
        g = random_multigraph(rng, n_max=9)
        _, f = brute_min_fvs(g)
        if rng.random() < 0.3:
            extra = [v for v in g.vertices() if v not in f]
            rng.shuffle(extra)
            f = frozenset(set(f) | set(extra[: rng.randrange(0, 3)]))
        sep = two_way_separation(g, f, rng)
        _check_classes(g, sep.by_index())  # raises on violation
        assert sep.a | sep.b | sep.s == g.vertex_set()
        # forest parts of each side stay forests
        assert is_forest(induced(g, sorted(sep.a - f)))
        assert is_forest(induced(g, sorted(sep.b - f)))


def test_two_way_separation_crossing_check_fires():
    g = mg(2, [(0, 1)])
    bad = Separation(a=frozenset({0}), b=frozenset({1}), s=frozenset(),
                     s_eps=frozenset())
    with pytest.raises(ValueError):
        _check_classes(g, bad.by_index())


def test_three_way_separation_properties():
    rng = random.Random(23)
    for trial in range(120):
        g = random_multigraph(rng, n_max=9)
        _, f = brute_min_fvs(g)
        sep = three_way_separation(g, f, rng)
        _check_classes(g, sep.by_index())
        classes = sep.by_index()
        all_verts = frozenset().union(*classes.values()) if classes else frozenset()
        assert all_verts == g.vertex_set()


def _three_way(**classes):
    empty = dict.fromkeys(("s1", "s2", "s3", "s12", "s13", "s23", "s123"), frozenset())
    return ThreeWaySeparation(**{**empty, **{k: frozenset(v) for k, v in classes.items()}})


@pytest.mark.parametrize("bad", [
    _three_way(s1={0}, s2={1}, s123={2}),     # S_1 - S_2
    _three_way(s12={0}, s3={1}, s123={2}),    # S_12 - S_3
    _three_way(s1={0}, s2={1}),               # vertex 2 in no class
    _three_way(s1={0, 2}, s12={0}, s2={1}),   # vertex 0 in two classes
])
def test_three_way_check_fires(bad):
    g = mg(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        _check_classes(g, bad.by_index())


# one fixed graph and seed: the classes each separation returned, and the
# next draw of the shared rng, pin the coloring stream
_GOLDEN_EDGES = [(0, 4), (0, 6), (0, 10), (1, 3), (1, 4), (1, 8), (1, 9), (1, 11), (1, 12),
                 (1, 13), (2, 9), (3, 6), (4, 5), (4, 6), (4, 9), (5, 8), (5, 12), (6, 11),
                 (6, 13), (7, 8), (8, 12), (12, 13)]
_GOLDEN = [
    # (a, b, s, s_eps), balance
    ([[2, 5, 7, 8, 9, 12], [0, 3, 6, 10, 11], [1, 4, 13], [4, 13]], 1),
    # (s1, s2, s3, s12, s13, s23, s123, s_eps), balance
    ([[3, 5, 6, 7, 8, 11, 12], [2, 9], [10], [1], [0], [], [4, 13], [4, 13]], 0),
    ([[0, 2, 3, 4, 5, 7, 8, 9, 10, 12, 13], [11], [1, 6], [6]], 0),
    ([[7, 8, 12, 13], [2, 3, 4, 9], [10, 11], [5], [], [0], [1, 6], [6]], 0),
]


def test_separations_keep_their_seeded_stream():
    g = mg(14, _GOLDEN_EDGES)
    rng = random.Random(52)
    got = []
    f = {0, 1, 5}
    for budget in (None, 2):
        a = two_way_separation(g, f, rng, budget=budget)
        got.append(([sorted(c) for c in (a.a, a.b, a.s, a.s_eps)],
                    min(len(a.a & f), len(a.b & f))))
        b = three_way_separation(g, f, rng, budget=budget)
        got.append(([sorted(c) for c in (b.s1, b.s2, b.s3, b.s12, b.s13, b.s23, b.s123,
                                         b.s_eps)], min(len(c & f) for c in (b.s1, b.s2, b.s3))))
    assert got == _GOLDEN
    assert rng.getrandbits(32) == 3640473595


def test_by_index_names_the_two_way_classes():
    sep = Separation(frozenset({0}), frozenset({1}), frozenset({2}))
    assert sep.by_index() == {frozenset({1}): sep.a, frozenset({2}): sep.b,
                              frozenset({1, 2}): sep.s}


def test_separation_balance_on_planted_split():
    """With f spread over many light components the separator stays empty and
    both sides catch a decent share of f."""
    from fvskit.generate import planted_fvs
    rng = random.Random(31)
    g, hubs = planted_fvs(forest_size=120, k=24, dbar_target=3.0, rng=rng)
    sep = two_way_separation(g, hubs, rng, budget=24)
    _check_classes(g, sep.by_index())
    assert not sep.s_eps
    assert min(len(sep.a & hubs), len(sep.b & hubs)) >= 2


# --------------------------------------------------------- decompositions


def test_tree_decomposition_valid_and_bounded():
    rng = random.Random(41)
    for trial in range(60):
        g = random_multigraph(rng, n_max=10)
        k, f = brute_min_fvs(g)
        td = tree_decomposition_from_fvs(g, f, rng, budget=max(1, k))
        rep = validate_decomposition(g, td)
        assert rep.ok, rep.violation
        assert td.width <= max(1, k) + len(td.s_eps) + 1


def test_tree_decomposition_empty_graph():
    td = tree_decomposition_from_fvs(MultiGraph(), frozenset(), random.Random(0))
    assert validate_decomposition(MultiGraph(), td).ok


def test_validate_decomposition_catches_missing_edge():
    from fvskit.separators import TreeDecomposition
    g = mg(2, [(0, 1)])
    td = TreeDecomposition((frozenset({0}), frozenset({1})), ((0, 1),), frozenset())
    rep = validate_decomposition(g, td)
    assert not rep.ok and "edge" in rep.violation


def test_validate_decomposition_catches_broken_connectivity():
    from fvskit.separators import TreeDecomposition
    g = mg(3, [(0, 1), (1, 2)])
    td = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
        ((0, 1), (1, 2)),
        frozenset(),
    )
    rep = validate_decomposition(g, td)
    assert not rep.ok


def test_pace_output_shape():
    g = mg(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    td = tree_decomposition_from_fvs(g, {0}, random.Random(3), budget=1)
    text = decomposition_to_pace(td, g.n)
    lines = text.strip().splitlines()
    head = lines[0].split()
    assert head[:2] == ["s", "td"]
    assert int(head[2]) == len(td.bags)
    assert int(head[3]) == td.width + 1
    assert int(head[4]) == 4
    bag_lines = [ln for ln in lines[1:] if ln.startswith("b ")]
    assert len(bag_lines) == len(td.bags)
    for ln in bag_lines:
        ids = [int(t) for t in ln.split()[2:]]
        assert all(1 <= i <= 4 for i in ids)
