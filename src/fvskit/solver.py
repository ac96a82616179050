"""Randomized exact solver: reductions, sampling, compression, trial budget.

One trial takes the reduced instance, then either compresses (grow the graph
one vertex at a time, re-solving through the counting decider whenever the
carried solution stops fitting) or deletes one sampled vertex, reduces again
and recurses with the budget lowered.  Success probability per trial is at
least c^(-k) / poly, so ``solve`` runs ceil(trials_factor * c^k * k)
independent trials; exhausting them is the solver's answer for infeasibility.

The degree-load constraint rides along everywhere: a solution must satisfy
|F| <= k and sum of degrees over F <= floor(dbar * k), where dbar is fixed
by epsilon.  The load cap is what makes degree-weighted sampling hit a
solution vertex with constant probability on reduced graphs.

The kernel rules use no randomness, so ``solve`` reduces the input once and
every top-level trial starts from that kernel; the trials only read it.

Determinism: every trial draws its own random.Random seeded by mixing the
master seed with the trial index, and compression runs are memoized under a
seed derived from the reduced graph itself, so results are reproducible and
independent of the number of worker processes.  With jobs > 1, trial 0 runs
in the calling process first, and the workers running trials 1 to budget - 1
start from a copy of its compression memo; without ``faithful_coin`` that
memo holds the top-level compression every trial asks for, so it runs once.
Compressions further down a descent are memoized per worker chunk, so a
chunk can repeat one that another chunk ran, and so can the top-level one
under ``faithful_coin``, where trial 0 may not compress at the top.
"""
from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from .cutcount import (MAX_THREE_WAY_N, count_simple_separation, count_three_way,
                       reconstruct_witness)
from .multigraph import MultiGraph, induced, is_forest, minus
from .reductions import (
    ReductionOutcome,
    reduce_exhaustive,
    sample_degree_weighted,
    sample_uniform,
)
from .separators import three_way_separation, two_way_separation

DEFAULT_EPSILON = {"simple": 0.155433, "mm": 0.3000237}


class BudgetExceeded(Exception):
    """Raised when k is above the configured ceiling for exact solving, or
    when an mm solve's kernel has more than MAX_THREE_WAY_N vertices."""


def dbar_for(epsilon: float) -> float:
    return (4.0 - 2.0 * epsilon) / (1.0 - epsilon)


def growth_base(epsilon: float) -> float:
    """Per-k base of the trial budget: max(3 - eps, 3^(1 - 2^-dbar))."""
    d = dbar_for(epsilon)
    return max(3.0 - epsilon, 3.0 ** (1.0 - 2.0 ** (-d)))


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    variant: str = "simple"            # "simple" | "mm"
    epsilon: Optional[float] = None    # None -> variant default
    trials_factor: float = 8.0
    seed: Optional[int] = None
    faithful_coin: bool = False        # coin-flip branch choice vs threshold
    ic_threshold: int = 8              # compress when k' <= threshold (coin off)
    max_k: int = 24
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.variant not in DEFAULT_EPSILON:
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def eps(self) -> float:
        return self.epsilon if self.epsilon is not None else DEFAULT_EPSILON[self.variant]

    @property
    def dbar(self) -> float:
        return dbar_for(self.eps)

    @property
    def base(self) -> float:
        return growth_base(self.eps)


@dataclasses.dataclass(frozen=True)
class SolveResult:
    status: str                       # "fvs" | "infeasible"
    fvs: Optional[FrozenSet[int]]
    trials: int
    budget: int
    stats: Dict[str, int]


def degree_load(g: MultiGraph, vs: Iterable[int]) -> int:
    return sum(g.degree(v) for v in vs)


_M64 = (1 << 64) - 1


def _mix(a: int, b: int) -> int:
    """splitmix-style stable mixing of two ints into a seed."""
    x = (a * 0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E019) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def iterative_compression(
    g: MultiGraph,
    k: int,
    config: SolverConfig,
    rng: random.Random,
    stats: Optional[Counter] = None,
) -> Optional[FrozenSet[int]]:
    """Exact bounded search via compression.

    Vertices enter in id order.  The carried set stays untouched while it
    remains a valid solution of the current prefix; when the incoming vertex
    breaks it, the decider is asked to re-solve the prefix below the k / load
    caps, steered by a fresh separation built from the (k+1)-sized set.  A
    None means the prefix - hence the graph - has no solution under the caps.
    """
    if k < 0:
        return None
    dbar = config.dbar
    d_limit = math.floor(dbar * k)
    order = g.vertices()
    current: Set[int] = set()
    for i, v in enumerate(order):
        prefix = induced(g, order[: i + 1])
        cand = current | {v} if not is_forest(minus(prefix, current)) else current
        if len(cand) <= k and degree_load(prefix, cand) <= d_limit:
            current = cand
            continue
        if stats is not None:
            stats["compressions"] += 1
        fat = current | {v}  # always a solution of the prefix, size <= k+1
        if config.variant == "mm":
            sep = three_way_separation(prefix, fat, rng, budget=k)
            decider = count_three_way
        else:
            sep = two_way_separation(prefix, fat, rng, budget=k)
            decider = count_simple_separation

        def decide(forced: FrozenSet[int] = frozenset(),
                   draws: Optional[int] = None):
            return decider(prefix, fat, k, dbar, sep, rng,
                           draws=draws, forced=forced, stats=stats)

        found = reconstruct_witness(decide, prefix, k, dbar, rng)
        if found is None:
            return None
        current = set(found)
    return frozenset(current)


IcRunner = Callable[[MultiGraph, int], Optional[FrozenSet[int]]]


def fvs_trial(
    g: MultiGraph,
    k: int,
    config: SolverConfig,
    rng: random.Random,
    *,
    ic_allowed: bool = True,
    ic_runner: Optional[IcRunner] = None,
    stats: Optional[Counter] = None,
    kernel: Optional[ReductionOutcome] = None,
) -> Optional[FrozenSet[int]]:
    """One randomized descent.  Returns a solution or None (failed trial).

    ``kernel`` is ``reduce_exhaustive(g, k)`` when the caller already has it;
    the descent only reads its graph, never mutates it.
    """
    eps = config.eps
    dbar = config.dbar
    red = kernel if kernel is not None else reduce_exhaustive(g, k)
    if red.infeasible:
        return None
    h, k2, forced = red.graph, red.budget, red.forced
    if h.n == 0 or is_forest(h):
        return forced
    if k2 <= 0:
        return None

    def run_ic() -> Optional[FrozenSet[int]]:
        if stats is not None:
            stats["ic_runs"] += 1
        if ic_runner is not None:
            return ic_runner(h, k2)
        return iterative_compression(h, k2, config, rng, stats)

    if config.faithful_coin:
        heads = rng.random() < 3.0 ** (-(1.0 - 2.0 ** (-dbar)) * k2)
    else:
        heads = k2 <= config.ic_threshold
    take_ic = heads and ic_allowed

    uniform_regime = h.n <= (3.0 - eps) * k2

    def sample() -> Optional[int]:
        # None only for degree-weighted sampling on a 3-regular graph
        return sample_uniform(h, rng) if uniform_regime else sample_degree_weighted(h, rng)

    v: Optional[int] = None
    if not take_ic:
        v = sample()
        if v is None:
            # 3-regular graph: no degree mass to sample, compression is the
            # only move regardless of the coin
            if stats is not None:
                stats["forced_ic"] += 1
            take_ic = True

    if take_ic:
        res = run_ic()
        if res is not None:
            return forced | res
        if stats is not None:
            stats["ic_infeasible"] += 1
        # The caps make compression stricter than plain feasibility, so a
        # failed compression must not kill the trial: fall back to sampling
        # (and stop compressing below this point).
        v = sample()
        if v is None:
            return None  # 3-regular and unsampleable: nothing left to try
        ic_allowed = False

    assert v is not None
    if stats is not None:
        stats["uniform_samples" if uniform_regime else "weighted_samples"] += 1
    rest = fvs_trial(minus(h, {v}), k2 - 1, config, rng,
                     ic_allowed=ic_allowed, ic_runner=ic_runner, stats=stats)
    if rest is None:
        return None
    return forced | {v} | rest


def trial_budget(k: int, config: SolverConfig) -> int:
    return max(1, math.ceil(config.trials_factor * (config.base ** k) * max(1, k)))


def _make_ic_runner(
    config: SolverConfig,
    seed_base: int,
    memo: Dict[Tuple, Optional[FrozenSet[int]]],
    stats: Counter,
) -> IcRunner:
    """Compression entry point with memoization under graph-derived seeds.

    The memo is keyed on the reduced graph itself - vertex set, edges with
    multiplicity, budget - and the rng for a compression run is derived from
    its vertex set and budget, not from the calling trial, so every trial
    (and every worker process) that reaches the same reduced instance gets
    the same answer.
    """

    def runner(h: MultiGraph, k2: int) -> Optional[FrozenSet[int]]:
        verts = h.vertex_set()
        key = (verts, tuple(h.edges()), k2)
        if key in memo:
            stats["ic_memo_hits"] += 1
            return memo[key]
        token = hash((tuple(sorted(verts)), k2)) & _M64
        rng = random.Random(_mix(seed_base, token))
        memo[key] = res = iterative_compression(h, k2, config, rng, stats)
        return res

    return runner


def _run_trial_range(payload) -> Tuple[Optional[int], Optional[FrozenSet[int]], Dict[str, int]]:
    g, k, config, seed_base, kernel, memo, start, stop = payload
    stats: Counter = Counter()
    runner = _make_ic_runner(config, seed_base, memo, stats)
    for idx in range(start, stop):
        rng = random.Random(_mix(seed_base, idx))
        res = fvs_trial(g, k, config, rng, ic_runner=runner, stats=stats, kernel=kernel)
        if res is not None:
            return idx, res, dict(stats)
    return None, None, dict(stats)


def solve(g: MultiGraph, k: int, config: Optional[SolverConfig] = None) -> SolveResult:
    """Budgeted exact decision-plus-witness.

    Returns status "fvs" with a verified solution, or "infeasible" after the
    full trial budget came up empty.  Raises BudgetExceeded, before any
    trial, when k is above config.max_k or when the variant is mm and the
    feasible kernel has more than MAX_THREE_WAY_N vertices.
    """
    config = config or SolverConfig()
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > config.max_k:
        raise BudgetExceeded(f"k={k} above configured ceiling {config.max_k}")
    seed_base = config.seed if config.seed is not None else random.SystemRandom().randrange(1 << 63)
    budget = trial_budget(k, config)
    # the decider counters are reported even when no decider ran
    stats: Counter = Counter(decider_calls=0, decider_draws=0, decider_accepts=0)
    kernel = reduce_exhaustive(g, k)
    if config.variant == "mm" and not kernel.infeasible and kernel.graph.n > MAX_THREE_WAY_N:
        raise BudgetExceeded(f"mm kernel has {kernel.graph.n} vertices, above the "
                             f"{MAX_THREE_WAY_N} its int64 tables support")

    parallel = config.jobs > 1 and budget >= 2 * config.jobs
    # in parallel, trial 0 runs here and fills the memo the workers start from
    memo: Dict = {}
    idx, found, own_stats = _run_trial_range(
        (g, k, config, seed_base, kernel, memo, 0, 1 if parallel else budget))
    stats.update(own_stats)
    if found is None and parallel:
        chunk = max(1, min(128, math.ceil((budget - 1) / (config.jobs * 4))))
        payloads = [(g, k, config, seed_base, kernel, memo, s, min(s + chunk, budget))
                    for s in range(1, budget, chunk)]
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(_run_trial_range, p) for p in payloads]
            for fut in futures:
                idx, found, wstats = fut.result()
                stats.update(wstats)
                if found is not None:
                    for other in futures:
                        other.cancel()
                    break

    if found is not None:
        if len(found) > k or not is_forest(minus(g, found)):
            raise RuntimeError("internal error: produced an invalid solution")
        return SolveResult("fvs", found, idx + 1, budget, dict(stats))
    return SolveResult("infeasible", None, budget, budget, dict(stats))
