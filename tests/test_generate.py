from __future__ import annotations

import random

import pytest

from fvskit.generate import cycle, disjoint_cycles, planted_fvs, random_gnm
from fvskit.multigraph import connected_components, is_forest, minus
from fvskit.oracle import brute_min_fvs, verify_fvs


def test_cycle_shapes():
    assert cycle(1).loops_at(0) == 1
    assert cycle(2).multiplicity(0, 1) == 2
    c5 = cycle(5)
    assert c5.n == 5 and c5.m == 5
    assert all(c5.degree(v) == 2 for v in c5.vertices())
    with pytest.raises(ValueError):
        cycle(0)


def test_disjoint_cycles():
    g = disjoint_cycles([3, 4, 5])
    assert g.n == 12 and g.m == 12
    assert brute_min_fvs(g)[0] == 3
    assert len(connected_components(g)) == 3


def test_random_gnm_counts():
    rng = random.Random(1)
    g = random_gnm(10, 17, rng)
    assert g.n == 10 and g.m == 17


def test_random_gnm_simple_mode():
    rng = random.Random(2)
    g = random_gnm(8, 20, rng, allow_loops=False, allow_multi=False)
    for u, v, mult in g.edges():
        assert u != v and mult == 1


@pytest.mark.parametrize("n, m, loops, multi", [
    (3, 10, False, False), (3, 7, True, False), (1, 1, False, False), (1, 3, False, True),
    (0, 1, True, True), (3, -2, True, True),
])
def test_random_gnm_rejects_edge_counts_the_flags_forbid(n, m, loops, multi):
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(ValueError):
        random_gnm(n, m, rng, allow_loops=loops, allow_multi=multi)
    assert rng.getstate() == state


@pytest.mark.parametrize("n, m, loops, multi", [
    (3, 3, False, False), (3, 6, True, False), (1, 1, True, False), (2, 5, False, True),
    (7, 21, False, False),
])
def test_random_gnm_draws_every_edge_up_to_the_limit(n, m, loops, multi):
    for seed in range(5):
        g = random_gnm(n, m, random.Random(seed), allow_loops=loops, allow_multi=multi)
        assert g.n == n and g.m == m
        for u, v, mult in g.edges():
            assert (loops or u != v) and (multi or mult == 1)


def test_random_gnm_draws_among_the_open_pairs_when_draws_keep_missing():
    class Stuck(random.Random):
        def randrange(self, *args):  # every draw is the forbidden loop 0-0
            return 0

    g = random_gnm(3, 3, Stuck(0), allow_loops=False, allow_multi=False)
    assert sorted((u, v, mult) for u, v, mult in g.edges()) == [(0, 1, 1), (0, 2, 1), (1, 2, 1)]


def test_planted_fvs_structure():
    rng = random.Random(3)
    g, hubs = planted_fvs(forest_size=40, k=8, dbar_target=3.0, rng=rng)
    assert len(hubs) == 8
    assert verify_fvs(g, hubs)
    # every hub is genuinely needed: dropping one leaves its private cycle
    for h in sorted(hubs):
        assert not is_forest(minus(g, hubs - {h}))
    # hub degrees average to the requested density
    total = sum(g.degree(h) for h in hubs)
    assert total == round(3.0 * 8)
    # forest components stay light: at most 3 hub edges each
    forest = minus(g, hubs)
    for comp in connected_components(forest):
        load = sum(1 for v in comp for u in g.neighbors(v) if u in hubs
                   for _ in range(g.multiplicity(u, v)))
        assert load <= 3


def test_planted_fvs_needs_room():
    rng = random.Random(4)
    with pytest.raises(ValueError):
        planted_fvs(forest_size=4, k=10, dbar_target=3.0, rng=rng)
    with pytest.raises(ValueError):
        planted_fvs(forest_size=40, k=4, dbar_target=1.0, rng=rng)
    for dbar in (float("inf"), 1e308):  # 4e308 overflows to inf
        with pytest.raises(ValueError):
            planted_fvs(forest_size=40, k=4, dbar_target=dbar, rng=rng)
