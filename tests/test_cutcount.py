"""Counting-engine tests.  Everything here is pinned to the exhaustive
labeling oracle; the engine must reproduce its per-key totals exactly
(modulo the working ring) through both separation shapes."""
from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fvskit import cutcount
from fvskit.cutcount import (
    DeciderOutcome,
    count_simple_separation,
    count_three_way,
    draw_weights,
    forest_dp_table,
    reconstruct_witness,
)
from fvskit.generate import random_gnm
from fvskit.multigraph import MultiGraph, is_forest, minus
from fvskit.oracle import brute_cut_objects, brute_cut_objects_trace, brute_min_fvs
from fvskit.separators import (Separation, ThreeWaySeparation, three_way_separation,
                               two_way_separation)

from conftest import (full_tables, mg, omega_prime, random_multigraph, random_side_tables,
                      triangle_loop)


def _ring_reduce(raw, n):
    mask = (1 << (n + 1)) - 1
    return {k: v & mask for k, v in raw.items() if v & mask}


def _superset_fvs(g, rng):
    _, f = brute_min_fvs(g)
    f = set(f)
    for v in g.vertices():
        if v not in f and rng.random() < 0.2:
            f.add(v)
    return frozenset(f)


# ------------------------------------------------------------ weights


def test_draw_weights_ranges(rng):
    g = mg(6, [(0, 1), (2, 3)])
    w = draw_weights(g, rng)
    assert list(w) == g.vertices()
    for v in g.vertices():
        assert 1 <= w[v] <= 12


# ------------------------------------------------------------ forest DP


def test_forest_dp_table_no_trace_matches_oracle(rng):
    for _ in range(40):
        g = random_multigraph(rng, n_max=7)
        if not is_forest(g):
            continue
        w = draw_weights(g, rng)
        assert forest_dp_table(g, w, (), (), ()) == _ring_reduce(
            brute_cut_objects(g, omega_prime(g, w)), g.n)


def test_forest_dp_table_with_trace_matches_oracle(rng):
    hits = 0
    while hits < 60:
        g = random_multigraph(rng, n_max=7)
        parts = ([], [], [], [])
        for v in g.vertices():
            parts[rng.randrange(4)].append(v)
        f_p, l_p, r_p, rest = parts
        if not is_forest(minus(g, set(f_p) | set(l_p) | set(r_p))):
            continue
        hits += 1
        w = draw_weights(g, rng)
        fixed = {v: 0 for v in f_p}
        fixed.update({v: 1 for v in l_p})
        fixed.update({v: 2 for v in r_p})
        assert forest_dp_table(g, w, f_p, l_p, r_p) == _ring_reduce(
            brute_cut_objects_trace(g, omega_prime(g, w), fixed), g.n)


def test_forest_dp_single_key(rng):
    g = mg(3, [(0, 1), (1, 2), (0, 2)])
    w = draw_weights(g, rng)
    key_w = omega_prime(g, w)[0]
    # F={0}: the path 1-2 has three non-crossing labelings with both edges
    # intact only when 1,2 share a side; at m'=1 one labeled forest survives
    # per key; brute agrees on all of it, spot check one entry
    tbl = forest_dp_table(g, w, [0], [], [])
    exp = _ring_reduce(brute_cut_objects_trace(g, omega_prime(g, w), {0: 0}), 3)
    assert tbl == exp
    assert tbl.get((key_w, 1, 1), 0) == exp.get((key_w, 1, 1), 0)


def test_forest_dp_rejects_non_forest_rest():
    g = mg(3, [(0, 1), (1, 2), (0, 2)])
    w = draw_weights(g, random.Random(0))
    with pytest.raises(ValueError):
        forest_dp_table(g, w, (), (), ())


def test_forest_dp_rejects_overlap():
    g = mg(2, [])
    w = draw_weights(g, random.Random(0))
    with pytest.raises(ValueError):
        forest_dp_table(g, w, [0], [0], [])


# ------------------------------------------------------- two-way decider


def test_two_way_full_tables_match_oracle_exhaustive_small(rng):
    for _ in range(120):
        g = random_multigraph(rng, n_max=8)
        f = _superset_fvs(g, rng)
        sep = two_way_separation(g, f, rng)
        w = draw_weights(g, rng)
        assert full_tables(g, f, sep, w) == _ring_reduce(
            brute_cut_objects(g, omega_prime(g, w)), g.n)


def test_two_way_forced_matches_pinned_oracle(rng):
    for _ in range(40):
        g = random_multigraph(rng, n_max=7)
        f = _superset_fvs(g, rng)
        sep = two_way_separation(g, f, rng)
        w = draw_weights(g, rng)
        pins = [v for v in g.vertices() if rng.random() < 0.25]
        exp = brute_cut_objects_trace(g, omega_prime(g, w), {v: 0 for v in pins})
        assert full_tables(g, f, sep, w, pins) == _ring_reduce(exp, g.n)


def test_decision_accepts_feasible_triangle(rng):
    g = mg(3, [(0, 1), (1, 2), (0, 2)])
    sep = two_way_separation(g, {0}, rng)
    out = count_simple_separation(g, {0}, 1, 5.0, sep, rng)
    assert isinstance(out, DeciderOutcome)
    assert out.accepted and out.key is not None
    w_key, s, m_prime, d = out.key
    assert s <= 1 and d <= 5


def test_decision_rejects_when_k_too_small(rng):
    g = mg(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    _, f = brute_min_fvs(g)
    sep = two_way_separation(g, f, rng)
    for _ in range(10):
        out = count_simple_separation(g, f, 1, 9.0, sep, rng, draws=8)
        assert not out.accepted


def test_decision_respects_degree_cap(rng):
    # bowtie: two triangles sharing hub 0; the only size-1 witness is the
    # hub, and its degree is 4
    g = mg(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    _, f = brute_min_fvs(g)
    assert f == frozenset({0})
    sep = two_way_separation(g, f, rng)
    # dbar*k = 3.9 < 4: the only witness is over the load cap, so reject...
    for _ in range(6):
        assert not count_simple_separation(g, f, 1, 3.9, sep, rng, draws=6).accepted
    # ...and with the cap met exactly it accepts fast
    assert count_simple_separation(g, f, 1, 4.0, sep, rng, draws=40).accepted


def test_stats_counters_move(monkeypatch, rng):
    # one table per draw: count the builds the decider looks up by name
    builds = []
    real = cutcount.count_tables_two_way

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cutcount, "count_tables_two_way", counting)
    stats = Counter()
    g = mg(3, [(0, 1), (1, 2), (0, 2)])
    sep = two_way_separation(g, {0}, rng)
    out = count_simple_separation(g, {0}, 1, 5.0, sep, rng, draws=3, stats=stats)
    assert stats["decider_calls"] == 1
    assert 1 <= stats["decider_draws"] <= 3
    assert stats["decider_draws"] == len(builds)
    assert stats["decider_accepts"] == int(out.accepted)


def test_rejects_f_that_is_not_an_fvs():
    # a triangle left in the forest part would otherwise be counted as a
    # tree and accepted at k = 0
    g = mg(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    sep = Separation(frozenset(g.vertices()), frozenset(), frozenset())
    with pytest.raises(ValueError):
        count_simple_separation(g, frozenset(), 0, 5.0, sep, random.Random(1))


def test_rejects_oversized_graphs():
    # the size guard binds the three-way decider only; the two-way one has none
    g = mg(63, [])
    with pytest.raises(ValueError):
        count_three_way(g, frozenset(), 1, 4.0,
                        three_way_separation(g, frozenset(), random.Random(0)),
                        random.Random(0))
    assert count_simple_separation(g, frozenset(), 1, 4.0,
                                   two_way_separation(g, frozenset(), random.Random(0)),
                                   random.Random(0)).accepted


# ------------------------------------------------------ three-way decider


def test_three_way_full_tables_match_oracle(rng):
    for _ in range(90):
        g = random_multigraph(rng, n_max=8)
        f = _superset_fvs(g, rng)
        sep = three_way_separation(g, f, rng)
        w = draw_weights(g, rng)
        assert full_tables(g, f, sep, w) == _ring_reduce(
            brute_cut_objects(g, omega_prime(g, w)), g.n)


def test_three_way_forced_matches_pinned_oracle(rng):
    for _ in range(30):
        g = random_multigraph(rng, n_max=7)
        f = _superset_fvs(g, rng)
        sep = three_way_separation(g, f, rng)
        w = draw_weights(g, rng)
        pins = [v for v in g.vertices() if rng.random() < 0.25]
        exp = brute_cut_objects_trace(g, omega_prime(g, w), {v: 0 for v in pins})
        assert full_tables(g, f, sep, w, pins) == _ring_reduce(exp, g.n)


_NO = frozenset()


@pytest.mark.parametrize("decide, sep", [
    (count_simple_separation, Separation(frozenset({0}), frozenset({1}), frozenset({2}))),
    (count_three_way, ThreeWaySeparation(frozenset({0}), frozenset({1}), _NO, _NO, _NO, _NO,
                                         frozenset({2}))),
    (count_three_way, ThreeWaySeparation(_NO, _NO, frozenset({1}), frozenset({0}), _NO, _NO,
                                         frozenset({2}))),
])
def test_deciders_reject_an_edge_between_disjoint_classes(decide, sep):
    g = mg(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        decide(g, frozenset(), 1, 99.0, sep, random.Random(0))


def test_deciders_agree_on_decisions(rng):
    for _ in range(40):
        g = random_multigraph(rng, n_max=7)
        kmin, f = brute_min_fvs(g)
        k = kmin + rng.randrange(0, 2)
        seed = rng.randrange(1 << 30)
        a = count_simple_separation(g, f, k, 99.0,
                                    two_way_separation(g, f, rng),
                                    random.Random(seed), draws=1)
        b = count_three_way(g, f, k, 99.0,
                            three_way_separation(g, f, rng),
                            random.Random(seed), draws=1)
        # the weight draw is each decider's first use of its rng, so both see
        # the same weights; same modulus test: identical verdicts and keys
        assert a.accepted == b.accepted
        assert a.key == b.key


# ------------------------------------------------- caps and the mirror

_BUILDERS = (
    (two_way_separation, cutcount._Layout, "count_tables_two_way"),
    (three_way_separation, cutcount._Layout, "count_tables_three_way"),
)


def _unpacked(table, packer):
    return {packer.unpack(p): cnt for p, cnt in table.items()}


@pytest.mark.parametrize("sep_fn, layout_cls, builder", _BUILDERS)
def test_capped_tables_are_the_uncapped_tables_cut_to_the_caps(rng, sep_fn, layout_cls,
                                                               builder):
    # decision mode drops partial keys beyond the caps as it goes, and counts
    # each mirrored labelling once with weight 2; the full table filtered to
    # the caps afterwards must come out the same
    build = getattr(cutcount, builder)
    checked = 0
    while checked < 40:
        g = random_multigraph(rng, n_max=8)
        f = _superset_fvs(g, rng)
        if not f:
            continue
        checked += 1
        layout = layout_cls(g, f, sep_fn(g, f, rng).by_index())
        w = draw_weights(g, rng)
        two_m = sum(layout.degs.values())
        pins = frozenset(v for v in g.vertices() if rng.random() < 0.25)
        for forced in (frozenset(), pins):
            full, full_packer = build(layout, w, c_cap=g.n, d_cap=max(1, two_m),
                                      e_cap=max(1, g.m), forced=forced)
            caps = dict(c_cap=rng.randrange(len(f)), d_cap=rng.randrange(0, 5),
                        e_cap=rng.randrange(0, 3))
            capped, packer = build(layout, w, forced=forced, **caps)
            expected = {
                (i, d, c, e): cnt for (i, d, c, e), cnt in _unpacked(full, full_packer).items()
                if i <= packer.i_cap and d <= caps["d_cap"] and c <= caps["c_cap"]
                and e <= caps["e_cap"]
            }
            assert _unpacked(capped, packer) == expected


@given(caps=st.tuples(*(st.one_of(st.just(0), st.integers(0, 600)),) * 4), data=st.data())
def test_packer_ok_is_the_per_field_cap_check(caps, data):
    packer = cutcount._Packer(*caps)
    parts = data.draw(st.lists(st.tuples(*(st.integers(0, cap) for cap in caps)),
                               min_size=2, max_size=4))
    key = sum(packer.pack(*p) for p in parts)
    fields = tuple(sum(col) for col in zip(*parts))
    assert packer.unpack(key) == fields  # no carry across fields
    assert packer.ok(key) == all(v <= cap for v, cap in zip(fields, caps))


@pytest.mark.parametrize("caps", [(0, 0, 0, 0), (0, 7, 3, 9), (1, 1, 1, 1), (600, 255, 256, 8)])
def test_packer_ok_at_the_edge_of_the_caps(caps):
    # four keys at their caps sum to 4 * cap per field, the most a sum can
    # reach; one more in any field is over the cap
    packer = cutcount._Packer(*caps)
    at_caps = packer.pack(*caps)
    assert packer.ok(at_caps)
    assert packer.unpack(4 * at_caps) == tuple(4 * cap for cap in caps)
    assert packer.ok(4 * at_caps) == (max(caps) == 0)
    for field in range(4):
        one = [0, 0, 0, 0]
        one[field] = 1
        assert not packer.ok(at_caps + packer.pack(*one))
        assert packer.unpack(4 * at_caps + packer.pack(*one))[field] == 4 * caps[field] + 1


@pytest.mark.parametrize("field", range(4))
def test_packer_rejects_negative_caps(field):
    caps = [3, 3, 3, 3]
    caps[field] = -1
    with pytest.raises(ValueError):
        cutcount._Packer(*caps)


def _mirror(labels):
    return tuple((0, 2, 1)[x] for x in labels)


def test_canon_picks_one_member_of_each_mirrored_pair():
    for size in range(5):
        for labels in itertools.product((0, 1, 2), repeat=size):
            canon = cutcount._canon(labels)
            assert cutcount._canon(canon) == canon
            assert cutcount._canon(_mirror(labels)) == canon
            # the member whose first non-F label is L (L = 1 < R = 2)
            assert canon == min(labels, _mirror(labels))
    assert cutcount._canon((0, 0, 0)) == (0, 0, 0)


def _side_reads(side):
    """Every label a side table reads outside the side's own f-vertices."""
    reads = set(side.term_verts)
    for u, v, _ in side.owned:
        reads.update((u, v))
    for comp in side.comps:
        reads.update(comp.iface)
    return sorted(reads - set(side.f_side))


@pytest.mark.parametrize("sep_fn, layout_cls, builder", _BUILDERS)
def test_each_side_table_is_built_once_per_canonical_labelling(monkeypatch, sep_fn,
                                                                layout_cls, builder):
    g = random_gnm(11, 20, random.Random(3), allow_loops=False, allow_multi=False)
    _, f = brute_min_fvs(g)
    layout = layout_cls(g, f, sep_fn(g, f, random.Random(3)).by_index())
    reads = [_side_reads(side) for side in layout.sides]
    built = []
    real = cutcount._side_table

    def counting(idx, side, labels, *args):
        read = tuple(labels[t] for t in reads[idx])
        built.append((idx, min(read, _mirror(read))))
        return real(idx, side, labels, *args)

    monkeypatch.setattr(cutcount, "_side_table", counting)
    w = draw_weights(g, random.Random(2))
    getattr(cutcount, builder)(layout, w, c_cap=len(f), d_cap=40, e_cap=g.m)
    assert len(built) > len(layout.sides)
    assert len(built) == len(set(built))


# ------------------------------------------------------ triangle sums


def test_combine3_matches_a_triple_loop_capped_on_the_final_key():
    # counts past 2^63 stay exact, and keys one past a cap are dropped only
    # where the final key is over
    r = random.Random(5)
    packer = cutcount._Packer(i_cap=6, d_cap=5, c_cap=3, e_cap=4)
    for _ in range(60):
        per_side, dims = random_side_tables(r, packer)
        assert cutcount._combine3(per_side, packer) == triangle_loop(per_side, dims, packer)


def test_readers_reduce_counts_modulo_2_to_the_n_plus_1():
    # count_tables hands back plain counts; the accept scan and the key table
    # read them in the ring modulo 2^(n+1)
    n = 4
    ring = 1 << (n + 1)
    packer = cutcount._Packer(i_cap=2 * n * n, d_cap=12, c_cap=n, e_cap=n)
    key = packer.pack(1, 3, 1, 0)  # accepts on a nonzero count modulo 2^(n - 1 - 0 + 1)
    accepted = (n * n * 1 + 3, 1, 0, 3)
    assert cutcount._scan_accept({key: ring}, packer, n) is None
    assert cutcount._table_to_keys({key: ring}, packer, n) == {}
    assert cutcount._scan_accept({key: ring + 1}, packer, n) == accepted
    assert cutcount._table_to_keys({key: ring + 1}, packer, n) == {(n * n + 3, 1, 0): 1}
    # zero at the key's own modulus, nonzero in the ring
    assert cutcount._scan_accept({key: ring // 2}, packer, n) is None
    assert cutcount._table_to_keys({key: ring // 2}, packer, n) == {(n * n + 3, 1, 0): ring // 2}
    # c + e > n leaves no residue to read, so an odd count there is skipped
    over = packer.pack(0, 0, 2, 3)
    assert over < key
    assert cutcount._scan_accept({over: 1}, packer, n) is None
    assert cutcount._scan_accept({over: 1, key: ring + 1}, packer, n) == accepted


# --------------------------------------------------- witness extraction


def test_reconstruct_witness_finds_valid_set(rng):
    for _ in range(25):
        g = random_multigraph(rng, n_max=8)
        kmin, f = brute_min_fvs(g)
        sep = two_way_separation(g, f, rng)

        def decide(forced=frozenset(), draws=None):
            return count_simple_separation(g, f, kmin, 99.0, sep, rng,
                                           draws=draws, forced=forced)

        wit = reconstruct_witness(decide, g, kmin, 99.0)
        assert wit is not None
        assert len(wit) <= kmin
        assert is_forest(minus(g, wit))


def test_reconstruct_witness_rejects_infeasible(rng):
    g = mg(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    _, f = brute_min_fvs(g)
    sep = two_way_separation(g, f, rng)

    def decide(forced=frozenset(), draws=None):
        return count_simple_separation(g, f, 1, 9.0, sep, rng,
                                       draws=draws or 6, forced=forced)

    assert reconstruct_witness(decide, g, 1, 9.0) is None
