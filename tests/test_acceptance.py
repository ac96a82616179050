"""Acceptance campaign.

Eight end-to-end properties, each printed as its own PASS/FAIL line.  All
randomness is seeded; every claimed bound is checked at the stated tolerance
against the brute-force layer or a closed-form threshold.
"""
from __future__ import annotations

import itertools
import math
import random
import statistics
import time
from collections import Counter

import pytest

import conftest

from fvskit import cutcount
from fvskit.cutcount import (
    count_simple_separation,
    count_three_way,
    draw_weights,
    forest_dp_table,
)
from fvskit.generate import disjoint_cycles, planted_fvs, random_gnm
from fvskit.multigraph import MultiGraph, is_forest, minus
from fvskit.oracle import brute_cut_objects, brute_cut_objects_trace, brute_min_fvs
from fvskit.reductions import reduce_exhaustive
from fvskit.separators import (
    _check_classes,
    three_way_separation,
    tree_decomposition_from_fvs,
    two_way_separation,
    validate_decomposition,
)
from fvskit.solver import DEFAULT_EPSILON, SolverConfig, dbar_for, degree_load, fvs_trial, solve

EPS = DEFAULT_EPSILON["simple"]
DBAR = dbar_for(EPS)
C_EPS = 2.8446


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def _ring(raw, n):
    mask = (1 << (n + 1)) - 1
    return {k: v & mask for k, v in raw.items() if v & mask}


def _random_multigraph(rng, n, m):
    g = MultiGraph.from_edges(range(n), [])
    for _ in range(m):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    return g


# ---------------------------------------------------------------------
# 1. oracle equivalence at k_min / k_min - 1


def test_criterion_1_oracle_equivalence():
    rng = random.Random(0xACC1)
    instances = []
    while len(instances) < 300:
        n = rng.randrange(6, 15)
        m = n + rng.randrange(-2, 5)
        g = _random_multigraph(rng, n, max(0, m))
        kmin, _ = brute_min_fvs(g)
        if 1 <= kmin <= 4:
            instances.append((g, kmin))
    t0 = time.time()
    config = lambda s: SolverConfig(seed=s, ic_threshold=0, trials_factor=8.0)
    agree = 0
    for i, (g, kmin) in enumerate(instances):
        res = solve(g, kmin, config(7000 + i))
        ok_pos = (res.status == "fvs" and len(res.fvs) <= kmin
                  and is_forest(minus(g, res.fvs)))
        res_neg = solve(g, kmin - 1, config(9000 + i))
        ok_neg = res_neg.status == "infeasible"
        if ok_pos and ok_neg:
            agree += 1
        else:
            print(f"  disagreement at instance {i}: edges={list(g.edges())} "
                  f"kmin={kmin} pos={res.status} neg={res_neg.status}")
    dt = time.time() - t0
    ok = agree == 300 and dt <= 600
    _report(1, ok, f"{agree}/300 instances agree with the oracle in {dt:.1f}s (cap 600s)")
    assert ok


# ---------------------------------------------------------------------
# 2. per-key counting exactness


def _connected_multigraphs_upto3():
    """Every connected multigraph on n <= 3 vertices with edge multiplicity
    <= 2 and at most one loop per vertex."""
    out = []
    # n = 1
    for loop in (0, 1):
        g = MultiGraph.from_edges(range(1), [(0, 0)] * loop)
        out.append(g)
    # n = 2
    for m01 in (0, 1, 2):
        for l0 in (0, 1):
            for l1 in (0, 1):
                g = MultiGraph.from_edges(range(2), [])
                if m01:
                    g.add_edge(0, 1, m01)
                for _ in range(l0):
                    g.add_edge(0, 0)
                for _ in range(l1):
                    g.add_edge(1, 1)
                if m01:
                    out.append(g)
    # n = 3
    for m01 in (0, 1, 2):
        for m02 in (0, 1, 2):
            for m12 in (0, 1, 2):
                for loops in itertools.product((0, 1), repeat=3):
                    g = MultiGraph.from_edges(range(3), [])
                    for (u, v, mm) in ((0, 1, m01), (0, 2, m02), (1, 2, m12)):
                        if mm:
                            g.add_edge(u, v, mm)
                    for v, l in enumerate(loops):
                        if l:
                            g.add_edge(v, v)
                    from fvskit.multigraph import connected_components
                    if len(connected_components(g)) == 1:
                        out.append(g)
    return out


def _atlas_connected_upto6():
    import networkx as nx
    from fvskit.multigraph import connected_components
    out = []
    for gx in nx.graph_atlas_g():
        n = gx.number_of_nodes()
        if not (1 <= n <= 6):
            continue
        if not nx.is_connected(gx):
            continue
        out.append(MultiGraph.from_edges(range(n), gx.edges()))
    return out


def test_criterion_2_counting_exactness():
    rng = random.Random(0xACC2)
    pool = _atlas_connected_upto6() + _connected_multigraphs_upto3()
    exhaustive = len(pool)
    for _ in range(100):
        n = rng.randrange(1, 10)
        pool.append(_random_multigraph(rng, n, rng.randrange(0, 2 * n + 1)))
    checked = 0
    for g in pool:
        w = draw_weights(g, rng)
        w_prime = conftest.omega_prime(g, w)
        exp = _ring(brute_cut_objects(g, w_prime), g.n)
        kmin, f = brute_min_fvs(g)
        # forestDP with the minimum solution pinned as the trace
        got_dp = forest_dp_table(g, w, f, (), ())
        exp_dp = _ring(brute_cut_objects_trace(g, w_prime, {v: 0 for v in f}), g.n)
        assert got_dp == exp_dp, f"forestDP mismatch on {list(g.edges())}"
        sep2 = two_way_separation(g, f, rng)
        got2 = conftest.full_tables(g, f, sep2, w)
        assert got2 == exp, f"two-way mismatch on {list(g.edges())}"
        sep3 = three_way_separation(g, f, rng)
        got3 = conftest.full_tables(g, f, sep3, w)
        assert got3 == exp, f"three-way mismatch on {list(g.edges())}"
        checked += 1
    _report(2, True,
            f"forestDP + both deciders exact on all keys of {checked} instances "
            f"({exhaustive} exhaustive, 100 random)")


# ---------------------------------------------------------------------
# 3. weight-ratio inequalities on reduced graphs


def test_criterion_3_weight_ratio_bounds():
    rng = random.Random(0xACC3)
    reduced = []
    attempts = 0
    while len(reduced) < 40 and attempts < 4000:
        attempts += 1
        n = rng.randrange(4, 13)
        g = _random_multigraph(rng, n, rng.randrange(n, 3 * n))
        out = reduce_exhaustive(g, n)
        h = out.graph
        if out.infeasible or not (1 <= h.n <= 12) or h.m == 0:
            continue
        reduced.append(h)
    assert len(reduced) == 40
    fvs_checked = 0
    violations = []
    for h in reduced:
        n, m = h.n, h.m
        verts = h.vertices()
        w = {v: h.degree(v) - 3 for v in verts}
        w_total = 2 * m - 3 * n
        if w_total == 0:
            continue  # all-zero weights: every bound below is vacuous
        for bits in range(1 << n):
            fset = {verts[i] for i in range(n) if bits >> i & 1}
            if not is_forest(minus(h, fset)):
                continue
            fvs_checked += 1
            k = len(fset)
            ratio = sum(w[v] for v in fset) / w_total
            if n >= 4 * k and ratio < 0.5:
                violations.append((h, fset, "n>=4k"))
            if 2 * m > 3 * n:
                bound = min(0.5, (m - n - 2 * k) / (2 * m - 3 * n))
                if ratio < bound - 1e-12:
                    violations.append((h, fset, "2m>3n"))
            if m >= 28 * k and ratio < 4 / 11:
                violations.append((h, fset, "m>=28k"))
    ok = not violations
    _report(3, ok, f"0 violations over {fvs_checked} solution sets on 40 reduced graphs"
            if ok else f"{len(violations)} violations")
    assert ok, violations[:3]


# ---------------------------------------------------------------------
# 4. isolation acceptance rate on feasible instances


def _bfvs_feasible(g, k, d_limit):
    for size in range(k + 1):
        for comb in itertools.combinations(g.vertices(), size):
            if degree_load(g, comb) <= d_limit and is_forest(minus(g, set(comb))):
                return True
    return False


def test_criterion_4_single_draw_acceptance():
    rng = random.Random(0xACC4)
    picked = []
    while len(picked) < 20:
        n = rng.randrange(4, 9)
        g = _random_multigraph(rng, n, rng.randrange(n - 1, 2 * n))
        kmin, f = brute_min_fvs(g)
        if kmin < 1:
            continue
        if _bfvs_feasible(g, kmin, math.floor(DBAR * kmin)):
            picked.append((g, kmin, f))
    rates = []
    for idx, (g, k, f) in enumerate(picked):
        sep = two_way_separation(g, f, rng)
        hits = 0
        for _ in range(2000):
            out = count_simple_separation(g, f, k, DBAR, sep, rng, draws=1)
            hits += out.accepted
        rates.append(hits / 2000)
    ok = all(r >= 0.45 for r in rates)
    _report(4, ok, f"min single-draw acceptance {min(rates):.3f} over 20 feasible "
                   f"instances x 2000 draws (floor 0.45)")
    assert ok, rates


# ---------------------------------------------------------------------
# 5. zero false positives on infeasible instances


def test_criterion_5_no_false_positives():
    rng = random.Random(0xACC5)
    k4 = MultiGraph.from_edges(range(4), list(itertools.combinations(range(4), 2)))
    two_tri = disjoint_cycles([3, 3])
    k5 = MultiGraph.from_edges(range(5), list(itertools.combinations(range(5), 2)))
    jobs = [
        # (graph, f, k): k strictly below the instance minimum
        (k4, brute_min_fvs(k4)[1], 1, "two"),
        (two_tri, brute_min_fvs(two_tri)[1], 1, "two"),
        (k5, brute_min_fvs(k5)[1], 2, "three"),
    ]
    stats = Counter()
    target = 100_000
    i = 0
    while stats["decider_draws"] < target:
        g, f, k, kind = jobs[i % len(jobs)]
        i += 1
        batch = 200
        if kind == "two":
            sep = two_way_separation(g, f, rng)
            out = count_simple_separation(g, f, k, DBAR, sep, rng, draws=batch, stats=stats)
        else:
            sep = three_way_separation(g, f, rng)
            out = count_three_way(g, f, k, DBAR, sep, rng, draws=batch, stats=stats)
        assert not out.accepted
    draws = stats["decider_draws"]
    accepts = stats["decider_accepts"]
    ok = draws >= target and accepts == 0
    _report(5, ok, f"{draws} decider draws on infeasible instances, {accepts} accepts")
    assert ok


# ---------------------------------------------------------------------
# 6. structural validity and decomposition width


def test_criterion_6_structures_and_width():
    rng = random.Random(0xACC6)
    # sweep: separations and decompositions on mixed random instances
    swept = 0
    for _ in range(80):
        g = _random_multigraph(rng, rng.randrange(2, 11), rng.randrange(0, 20))
        _, f = brute_min_fvs(g)
        _check_classes(g, two_way_separation(g, f, rng).by_index())
        _check_classes(g, three_way_separation(g, f, rng).by_index())
        k_eff = max(1, len(f))
        td = tree_decomposition_from_fvs(g, f, rng, budget=k_eff)
        rep = validate_decomposition(g, td)
        assert rep.ok, rep.violation
        assert td.width <= k_eff + len(td.s_eps) + 1
        swept += 1
    # planted width statistics
    k = 40
    dbar_target = 3.0
    widths = []
    for run in range(50):
        g, hubs = planted_fvs(forest_size=130, k=k, dbar_target=dbar_target,
                              rng=random.Random(0xACC6 + run))
        td = tree_decomposition_from_fvs(g, hubs, random.Random(777 + run), budget=k)
        rep = validate_decomposition(g, td)
        assert rep.ok, rep.violation
        assert td.width <= k + len(td.s_eps) + 1
        widths.append(td.width)
    med = statistics.median(widths)
    bound = (1 - 2 ** (-dbar_target) / 2) * k
    ok = med <= bound
    _report(6, ok, f"{swept + 50} structures valid; planted median width {med} "
                   f"<= {bound:.1f} (k={k})")
    assert ok


# ---------------------------------------------------------------------
# 7. triangle sums and decider agreement


def test_criterion_7_triangle_and_agreement():
    rng = random.Random(0xACC7)
    # the solver's own triangle sum against the x, y, z loop, on random caps
    for _ in range(100):
        packer = cutcount._Packer(rng.randint(0, 40), *(rng.randint(0, 8) for _ in range(3)))
        per_side, dims = conftest.random_side_tables(rng, packer)
        assert cutcount._combine3(per_side, packer) == \
            conftest.triangle_loop(per_side, dims, packer)
    agree = 0
    for _ in range(100):
        n = rng.randrange(2, 9)
        g = _random_multigraph(rng, n, rng.randrange(1, 2 * n))
        kmin, f = brute_min_fvs(g)
        k = min(n, kmin + rng.randrange(0, 2))
        # one draw each from equal seeds: both deciders see the same weights
        seed = rng.randrange(1 << 30)
        a = count_simple_separation(g, f, k, 99.0, two_way_separation(g, f, rng),
                                    random.Random(seed), draws=1)
        b = count_three_way(g, f, k, 99.0, three_way_separation(g, f, rng),
                            random.Random(seed), draws=1)
        assert a.accepted == b.accepted and a.key == b.key
        agree += 1
    _report(7, True, "100 triangle sums exact, 100/100 decider verdicts agree")


# ---------------------------------------------------------------------
# 8. trial success rate with the faithful coin


def test_criterion_8_trial_rate():
    rng = random.Random(0xACC8)
    cases = []
    cases.append(("3xC3", disjoint_cycles([3, 3, 3]), 3))
    cases.append(("C9", disjoint_cycles([9]), 1))
    k5 = MultiGraph.from_edges(range(5), list(itertools.combinations(range(5), 2)))
    cases.append(("K5", k5, 3))
    heavy = MultiGraph.from_edges(range(4), [(0, 1), (0, 1), (0, 2), (0, 2),
                                             (0, 3), (0, 3), (1, 2), (2, 3)])
    cases.append(("hub", heavy, 1))
    gg = random_gnm(9, 12, random.Random(4242))
    cases.append((f"gnm-9-12 (k={brute_min_fvs(gg)[0]})", gg, brute_min_fvs(gg)[0]))
    config = SolverConfig(seed=0, faithful_coin=True)
    n_trials = 400
    details = []
    ok = True
    for name, g, k in cases:
        assert k <= 6
        hits = 0
        for t in range(n_trials):
            res = fvs_trial(g, k, config, random.Random(rng.randrange(1 << 60)))
            if res is not None:
                assert len(res) <= k and is_forest(minus(g, res))
                hits += 1
        p_hat = hits / n_trials
        p0 = C_EPS ** (-k) / k
        sigma = math.sqrt(p0 * (1 - p0) / n_trials)
        threshold = p0 - 3 * sigma
        details.append(f"{name}: {p_hat:.3f}>={threshold:.4f}")
        if p_hat < threshold:
            ok = False
    _report(8, ok, "; ".join(details))
    assert ok
