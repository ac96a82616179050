"""Instance generators for tests, benchmarks and the command line."""
from __future__ import annotations

import math
import random
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .multigraph import MultiGraph


def cycle(n: int) -> MultiGraph:
    """The n-cycle; n=1 is a loop, n=2 a doubled edge."""
    if n < 1:
        raise ValueError("cycle needs n >= 1")
    g = MultiGraph.from_edges(range(n), [])
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def disjoint_cycles(lengths: Sequence[int]) -> MultiGraph:
    g = MultiGraph()
    offset = 0
    for ln in lengths:
        if ln < 1:
            raise ValueError("cycle lengths must be >= 1")
        for i in range(ln):
            g.add_vertex(offset + i)
        for i in range(ln):
            g.add_edge(offset + i, offset + (i + 1) % ln)
        offset += ln
    return g


def random_gnm(
    n: int,
    m: int,
    rng: random.Random,
    allow_loops: bool = True,
    allow_multi: bool = True,
) -> MultiGraph:
    """n vertices, m edges drawn uniformly with replacement over pairs.  The
    flags allow n(n-1)/2 edges, plus n loops when allowed; a multigraph with an
    allowed pair, any m.  ValueError, before any draw, on an m they forbid."""
    pairs = max(n, 0) * (max(n, 0) - 1 + 2 * allow_loops) // 2
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > pairs and not (allow_multi and pairs):
        raise ValueError(f"{n} vertices allow at most {pairs} edges here, got m={m}")
    g = MultiGraph.from_edges(range(n), [])
    for _ in range(m):
        for _attempt in range(10 * (m + n) + 10):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if (u != v or allow_loops) and (allow_multi or not g.multiplicity(u, v)):
                break
        else:  # near saturation: draw among the pairs still open
            u, v = rng.choice([(u, v) for u in range(n) for v in range(u + (not allow_loops), n)
                               if allow_multi or not g.multiplicity(u, v)])
        g.add_edge(u, v)
    return g


def planted_fvs(
    forest_size: int,
    k: int,
    dbar_target: float,
    rng: random.Random,
) -> Tuple[MultiGraph, FrozenSet[int]]:
    """Graph with a planted solution of k hubs over a scattered forest.

    The forest is split into many components of 2-4 vertices.  Each hub gets
    about dbar_target tree edges: two into one component (closing a private
    cycle, so the hub genuinely needs deleting) and the rest into distinct
    other components.  No component absorbs more than 3 hub edges in total,
    which keeps every component light enough that balanced-separator peeling
    finds nothing to peel - the interesting regime for the decomposition
    width statistics.
    """
    if k < 1 or forest_size < 2:
        raise ValueError("need at least one hub and two forest vertices")
    if not math.isfinite(dbar_target * k):  # inf, nan, or too large to round
        raise ValueError(f"dbar_target * k must be finite, got {dbar_target} * {k}")
    total_edges = round(dbar_target * k)
    if total_edges < 2 * k:
        raise ValueError("dbar_target must be at least 2 to close hub cycles")
    hubs = list(range(k))
    g = MultiGraph.from_edges(range(k + forest_size), [])

    # 3 hub edges per component at most; every hub needs its own double-edge
    # component, and a hub with quota q touches q - 1 distinct components.
    max_quota = -(-total_edges // k)
    needed_comps = max(k, -(-total_edges // 3), max_quota - 1)
    if needed_comps * 2 > forest_size:
        raise ValueError(
            f"forest too small: {total_edges} hub edges need "
            f"{needed_comps} components of >= 2 vertices"
        )
    comps: List[List[int]] = []
    pool = list(range(k, k + forest_size))
    rng.shuffle(pool)
    i = 0
    while i < len(pool):
        remaining = len(pool) - i
        # never draw a component so large that the rest cannot still supply
        # enough two-vertex components
        slack_cap = remaining - 2 * max(0, needed_comps - len(comps) - 1)
        size = min(rng.randrange(2, 5), remaining, max(2, slack_cap))
        if remaining - size == 1:  # fold a would-be singleton into this comp
            size += 1
        comps.append(pool[i:i + size])
        i += size
    for comp in comps:
        for j in range(1, len(comp)):
            g.add_edge(comp[j], comp[rng.randrange(j)])
    assert len(comps) >= needed_comps
    load = [0] * len(comps)
    quota = [total_edges // k] * k
    for j in range(total_edges - sum(quota)):
        quota[j % k] += 1

    def pick_comp(avoid: set, need: int) -> int:
        # Doubles go to the freshest components, singles top off the fullest
        # ones; mixing the two orders starves later doubles of load<=1 comps.
        sign = 1 if need == 2 else -1
        order = sorted(
            range(len(comps)), key=lambda c: (sign * load[c], rng.random())
        )
        for c in order:
            if c not in avoid and load[c] + need <= 3 and len(comps[c]) >= need:
                return c
        raise ValueError("could not place hub edges; enlarge the forest")

    for h, q in zip(hubs, quota):
        used: set = set()
        c0 = pick_comp(used, 2)
        used.add(c0)
        load[c0] += 2
        a, b = rng.sample(comps[c0], 2)
        g.add_edge(h, a)
        g.add_edge(h, b)
        for _ in range(q - 2):
            c = pick_comp(used, 1)
            used.add(c)
            load[c] += 1
            g.add_edge(h, comps[c][rng.randrange(len(comps[c]))])
    return g, frozenset(hubs)
