from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fvskit.multigraph import MultiGraph, is_forest, minus
from fvskit.oracle import brute_min_fvs
from fvskit.reductions import (
    degree_excess_weights,
    reduce_exhaustive,
    sample_degree_weighted,
    sample_uniform,
)

from conftest import mg, random_multigraph


def test_loop_rule_takes_vertex_and_budget():
    g = mg(3, [(0, 0), (0, 1), (1, 2), (2, 0)])
    out = reduce_exhaustive(g, 2)
    assert not out.infeasible
    assert 0 in out.forced
    assert out.budget < 2


def test_loop_rule_budget_exhaustion():
    g = mg(2, [(0, 0), (1, 1)])
    out = reduce_exhaustive(g, 1)
    assert out.infeasible


def test_multiplicity_clamped_to_two():
    g = mg(2, [(0, 1)] * 5)
    out = reduce_exhaustive(g, 3)
    # the doubled edge then collapses through the degree-two rule into a loop,
    # so one endpoint is forced
    assert out.forced or all(
        out.graph.multiplicity(u, v) <= 2 for u, v, _ in out.graph.edges()
    )


def test_degree_one_pruned():
    g = mg(4, [(0, 1), (1, 2), (2, 3)])
    out = reduce_exhaustive(g, 1)
    assert out.graph.n == 0 and not out.infeasible and out.budget == 1


def test_degree_two_bypass_keeps_cycles():
    g = mg(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # C4 -> collapses to a loop
    out = reduce_exhaustive(g, 2)
    assert out.graph.n == 0
    assert len(out.forced) == 1
    assert out.budget == 1


def test_reduced_graph_invariants():
    rng = random.Random(3)
    for _ in range(120):
        g = random_multigraph(rng, n_max=9)
        out = reduce_exhaustive(g, rng.randrange(0, 5))
        if out.infeasible:
            continue
        h = out.graph
        for v in h.vertices():
            assert h.degree(v) >= 3
            assert h.loops_at(v) == 0
        for u, v, mult in h.edges():
            assert mult <= 2
        # so a nonempty kernel has a cycle, which fvs_trial relies on
        assert h.n == 0 or not is_forest(h)


def test_reduction_preserves_optimum():
    """Fixed vertices plus an optimum of the reduced graph must be an optimum
    of the original, for every instance small enough to brute force."""
    rng = random.Random(4)
    for _ in range(80):
        g = random_multigraph(rng, n_max=8)
        k_orig, _ = brute_min_fvs(g)
        out = reduce_exhaustive(g, 8)
        assert not out.infeasible
        k_red, wit_red = brute_min_fvs(out.graph)
        combined = set(out.forced) | set(wit_red)
        assert is_forest(minus(g, combined))
        assert len(out.forced) + k_red == k_orig


def test_infeasibility_signal_is_sound():
    rng = random.Random(9)
    for _ in range(90):
        g = random_multigraph(rng, n_max=7)
        k = rng.randrange(0, 3)
        out = reduce_exhaustive(g, k)
        if out.infeasible:
            assert brute_min_fvs(g)[0] > k


def test_degree_excess_weights():
    g = mg(4, [(0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    w, total = degree_excess_weights(g)
    assert total == 2 * g.m - 3 * g.n
    assert w == {v: g.degree(v) - 3 for v in g.vertices()}
    assert total == sum(w.values())


def test_degree_excess_rejects_low_degree():
    with pytest.raises(ValueError):
        degree_excess_weights(mg(2, [(0, 1)]))


def test_sample_degree_weighted_is_proportional():
    # star-ish reduced graph: one heavy vertex, frequency must track weight
    g = mg(4, [(0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (0, 3), (1, 2), (1, 3), (2, 3)])
    w, total = degree_excess_weights(g)
    rng = random.Random(77)
    counts = Counter(sample_degree_weighted(g, rng) for _ in range(20000))
    for v in g.vertices():
        if w[v] == 0:
            assert counts[v] == 0
        else:
            assert abs(counts[v] / 20000 - w[v] / total) < 0.02


def test_sample_degree_weighted_three_regular_returns_none():
    k4 = mg(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert sample_degree_weighted(k4, random.Random(1)) is None


def test_sample_uniform():
    g = mg(5, [])
    rng = random.Random(2)
    seen = {sample_uniform(g, rng) for _ in range(200)}
    assert seen == set(range(5))
    with pytest.raises(ValueError):
        sample_uniform(MultiGraph(), rng)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=22),
       st.integers(0, 6))
def test_reduction_never_reports_feasible_wrongly(edges, k):
    g = MultiGraph.from_edges(range(8), edges)
    out = reduce_exhaustive(g, k)
    if not out.infeasible and out.graph.n == 0:
        # fully reduced away: forced set alone must already work
        assert is_forest(minus(g, out.forced))
        assert len(out.forced) <= k
