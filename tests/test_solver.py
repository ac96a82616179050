from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

import fvskit.solver
from fvskit.generate import disjoint_cycles
from fvskit.multigraph import MultiGraph, is_forest, minus
from fvskit.oracle import brute_min_fvs
from fvskit.reductions import reduce_exhaustive
from fvskit.solver import (
    DEFAULT_EPSILON,
    BudgetExceeded,
    SolverConfig,
    _make_ic_runner,
    dbar_for,
    degree_load,
    fvs_trial,
    growth_base,
    iterative_compression,
    solve,
    trial_budget,
)

from conftest import hubs_over_path, mg, random_multigraph

PETERSEN = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]


def test_derived_constants():
    eps = DEFAULT_EPSILON["simple"]
    assert math.isclose(dbar_for(eps), (4 - 2 * eps) / (1 - eps))
    assert 4.36 < dbar_for(eps) < 4.38
    assert 2.84 < growth_base(eps) < 2.85
    # at the default epsilon both branches of the max coincide (that is what
    # the balance condition picks epsilon for)
    assert math.isclose(3 - eps, 3 ** (1 - 2 ** (-dbar_for(eps))), rel_tol=1e-4)
    # the mm variant's epsilon trades sampling mass for heavier compression;
    # the trial budget tracks the coin exponent, so with a cubic contraction
    # its base sits above the simple variant's (the split only pays off once
    # the contraction itself is sub-cubic, which is out of scope here)
    eps_mm = DEFAULT_EPSILON["mm"]
    assert 2.88 < growth_base(eps_mm) < 2.89
    assert math.isclose(growth_base(eps_mm), 3 ** (1 - 2 ** (-dbar_for(eps_mm))), rel_tol=1e-9)


def test_budget_growth():
    cfg = SolverConfig(seed=0)
    assert trial_budget(0, cfg) >= 1
    assert trial_budget(5, cfg) > trial_budget(4, cfg) * 2.5
    assert trial_budget(3, cfg) == math.ceil(8.0 * growth_base(cfg.eps) ** 3 * 3)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(variant="fast")


def test_solve_forest_needs_nothing():
    g = mg(5, [(0, 1), (1, 2), (3, 4)])
    res = solve(g, 0, SolverConfig(seed=1))
    assert res.status == "fvs" and res.fvs == frozenset()


def test_solve_rejects_bad_k():
    g = mg(2, [])
    with pytest.raises(ValueError):
        solve(g, -1, SolverConfig(seed=1))
    with pytest.raises(BudgetExceeded):
        solve(g, 25, SolverConfig(seed=1))


def test_solve_matches_oracle_on_random_instances():
    rng = random.Random(12)
    for trial in range(35):
        g = random_multigraph(rng, n_max=10)
        kmin, _ = brute_min_fvs(g)
        cfg = SolverConfig(seed=300 + trial, ic_threshold=4)
        res = solve(g, kmin, cfg)
        assert res.status == "fvs", (list(g.edges()), kmin)
        assert len(res.fvs) <= kmin
        assert is_forest(minus(g, res.fvs))
        if kmin:
            res2 = solve(g, kmin - 1, SolverConfig(seed=900 + trial, ic_threshold=4))
            assert res2.status == "infeasible"


def test_solve_mm_variant_matches_oracle():
    rng = random.Random(13)
    for trial in range(12):
        g = random_multigraph(rng, n_max=9)
        kmin, _ = brute_min_fvs(g)
        res = solve(g, kmin, SolverConfig(variant="mm", seed=40 + trial, ic_threshold=4))
        assert res.status == "fvs" and is_forest(minus(g, res.fvs))


def test_solve_deterministic_under_seed():
    g = MultiGraph.from_edges(range(10), PETERSEN)
    a = solve(g, 3, SolverConfig(seed=77))
    b = solve(g, 3, SolverConfig(seed=77))
    assert a.fvs == b.fvs and a.trials == b.trials


def test_solve_jobs_match_sequential():
    g = MultiGraph.from_edges(range(10), PETERSEN)
    seq = solve(g, 3, SolverConfig(seed=123, jobs=1))
    par = solve(g, 3, SolverConfig(seed=123, jobs=3))
    assert seq.status == par.status == "fvs"
    assert seq.fvs == par.fvs
    assert seq.trials == par.trials


def test_three_regular_forces_compression():
    g = MultiGraph.from_edges(range(10), PETERSEN)
    res = solve(g, 3, SolverConfig(seed=5, ic_threshold=0))
    # the coinless config would never compress, but 3-regular graphs leave
    # no degree mass to sample, so compression must have been forced
    assert res.status == "fvs"
    assert res.stats.get("forced_ic", 0) + res.stats.get("ic_memo_hits", 0) >= 1
    assert is_forest(minus(g, res.fvs))


def test_petersen_below_minimum_is_infeasible():
    g = MultiGraph.from_edges(range(10), PETERSEN)
    runs = []
    for jobs in (1, 2):
        res = solve(g, 2, SolverConfig(seed=6, jobs=jobs))
        assert res.status == "infeasible"
        assert res.trials == res.budget == trial_budget(2, SolverConfig(seed=6))
        # every compression asks the decider at least once and every call
        # draws at least once; worker counters must reach the result
        st = res.stats
        assert st["decider_draws"] >= st["decider_calls"] >= st["compressions"] >= 1, jobs
        runs.append(res)
    # the workers start from trial 0's compression memo, so the top-level
    # compression every trial asks for runs once, whatever the job count
    seq, par = runs
    assert par.stats == seq.stats
    assert par.trials == seq.trials


def test_faithful_coin_still_solves():
    g = mg(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6), (6, 0)])
    kmin, _ = brute_min_fvs(g)
    res = solve(g, kmin, SolverConfig(seed=8, faithful_coin=True))
    assert res.status == "fvs" and is_forest(minus(g, res.fvs))


def test_iterative_compression_direct():
    rng = random.Random(21)
    for trial in range(15):
        g = random_multigraph(rng, n_max=8)
        kmin, _ = brute_min_fvs(g)
        cfg = SolverConfig(seed=trial)
        got = iterative_compression(g, kmin, cfg, random.Random(trial))
        # dbar * kmin can genuinely exclude all witnesses, but when it
        # admits one the result must be a valid solution
        d_limit = math.floor(cfg.dbar * kmin)
        admitted = any(
            degree_load(g, set(comb)) <= d_limit and is_forest(minus(g, set(comb)))
            for comb in itertools.combinations(g.vertices(), kmin)
        )
        if got is not None:
            assert len(got) <= kmin
            assert is_forest(minus(g, got))
            assert degree_load(g, got) <= d_limit
            assert admitted
        else:
            assert not admitted


HEAVY_HUB = [(0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (0, 3), (1, 2), (2, 3)]
# hub 0 carries three doubled edges (degree 6) over the path 1-2-3; the only
# size-1 solution is the hub, and no reduction rule touches the graph


def test_iterative_compression_respects_load_cap():
    # floor(dbar * 1) = 4 < 6 = deg(hub): under the load cap the instance
    # has no admissible witness at k=1 even though it has a plain one
    g = mg(4, HEAVY_HUB)
    cfg = SolverConfig(seed=2)
    assert iterative_compression(g, 1, cfg, random.Random(2)) is None


def test_trial_falls_back_to_sampling_when_compression_capped():
    # a config that insists on compressing first must still find the hub,
    # through the sampling fallback after compression comes back empty
    g = mg(4, HEAVY_HUB)
    res = solve(g, 1, SolverConfig(seed=3, ic_threshold=24))
    assert res.status == "fvs" and res.fvs == frozenset({0})
    assert res.stats.get("ic_infeasible", 0) >= 1


def test_solve_reduces_the_input_once(monkeypatch):
    kernels = []

    def recording(g, k):
        out = reduce_exhaustive(g, k)
        kernels.append((out, out.graph.copy()))
        return out

    monkeypatch.setattr(fvskit.solver, "reduce_exhaustive", recording)
    # four disjoint triangles at k=3: the kernel is infeasible, so every
    # trial fails at once and only the kernel computation is left to count
    res = solve(disjoint_cycles([3, 3, 3, 3]), 3, SolverConfig(seed=1))
    assert res.status == "infeasible"
    assert res.trials == res.budget == 553
    assert len(kernels) == 1

    # trials that compress, sample and descend share the top-level kernel
    # and must leave its graph as they found it
    kernels.clear()
    res = solve(mg(4, HEAVY_HUB), 1, SolverConfig(seed=3, ic_threshold=24))
    assert res.status == "fvs"
    assert len(kernels) > 1  # the descents reduce their own graphs
    shared, snapshot = kernels[0]
    assert shared.graph == snapshot


def test_parallel_solve_found_by_trial_zero_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(fvskit.solver, "ProcessPoolExecutor", no_pool)
    g = mg(4, HEAVY_HUB)
    res = solve(g, 1, SolverConfig(seed=3, ic_threshold=24, jobs=2))
    assert res.status == "fvs" and res.trials == 1


def test_simple_solve_above_62_vertices_reaches_the_decider():
    # the two-way tables are Python ints, so simple has no size cap: at k = 1
    # compression runs the decider on the whole 64-vertex kernel
    g = hubs_over_path(62)
    assert reduce_exhaustive(g, 1).graph.n == 64
    res = solve(g, 1, SolverConfig(seed=1))
    assert res.status == "infeasible"
    assert res.stats["decider_calls"] >= 1
    # no single vertex is an FVS: either hub keeps triangles on the path
    assert not any(is_forest(minus(g, {v})) for v in g.vertices())


def test_fvs_trial_budget_zero_on_cyclic_graph():
    g = mg(3, [(0, 1), (1, 2), (0, 2)])
    assert fvs_trial(g, 0, SolverConfig(seed=0), random.Random(0)) is None


def test_compression_memo_tells_apart_graphs_on_one_vertex_set():
    # K5 plus a vertex 5 (double edge to 6, single edges to 0 and 1) and a
    # vertex 6 (edge to 2): deleting 5 reduces to K5, deleting 6 to K5 with
    # a doubled 0-1 edge - same vertex set, same budget, different graphs
    k5 = list(itertools.combinations(range(5), 2))
    g = mg(7, k5 + [(5, 6), (5, 6), (5, 0), (5, 1), (6, 2)])
    plain = reduce_exhaustive(minus(g, {5}), 3)
    doubled = reduce_exhaustive(minus(g, {6}), 3)
    assert plain.budget == doubled.budget == 3
    assert plain.graph.vertex_set() == doubled.graph.vertex_set()
    assert plain.graph != doubled.graph
    cfg = SolverConfig(seed=0)
    stats = Counter()
    runner = _make_ic_runner(cfg, 0, {}, stats)
    assert runner(plain.graph, 3) is not None
    got = runner(doubled.graph, 3)
    assert stats["ic_memo_hits"] == 0
    assert got is not None and is_forest(minus(doubled.graph, got))
    assert got == _make_ic_runner(cfg, 0, {}, Counter())(doubled.graph, 3)
    # the same graph again is answered from the memo
    assert runner(doubled.graph, 3) == got and stats["ic_memo_hits"] == 1


def test_stats_shape():
    g = mg(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    res = solve(g, 1, SolverConfig(seed=4))
    for key in ("decider_calls", "decider_draws", "decider_accepts"):
        assert key in res.stats
