"""Brute-force reference implementations, exact and slow.

``brute_min_fvs`` and ``verify_fvs`` also answer the CLI's ``oracle`` and
``verify`` commands.  The cut-object tallies, by full 3^n label enumeration,
are the references the tests pin the counting deciders to.  Hard size limits
keep accidental misuse loud.
"""
from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from .multigraph import MultiGraph, is_forest, minus

MAX_BRUTE_FVS_N = 16
MAX_BRUTE_CUT_N = 10

# keys are (W, s, m_prime): total F-weight, |F|, edges with both ends outside F
CutKey = Tuple[int, int, int]


def verify_fvs(g: MultiGraph, fvs: Iterable[int]) -> bool:
    """True iff removing ``fvs`` leaves a forest.  Unknown ids are an error."""
    fset = set(fvs)
    for v in fset:
        if not g.has_vertex(v):
            raise KeyError(f"vertex {v} not in graph")
    return is_forest(minus(g, fset))


def brute_min_fvs(g: MultiGraph, limit: int = MAX_BRUTE_FVS_N) -> Tuple[int, FrozenSet[int]]:
    """Minimum FVS by increasing-size subset enumeration.

    Returns (k_min, witness); the witness is the lexicographically first
    minimum solution, so results are reproducible.
    """
    if g.n > limit:
        raise ValueError(f"brute_min_fvs limited to n <= {limit}, got n={g.n}")
    verts = g.vertices()
    for size in range(g.n + 1):
        for cand in itertools.combinations(verts, size):
            if is_forest(minus(g, cand)):
                return size, frozenset(cand)
    raise AssertionError("unreachable: removing all vertices always works")


def _labelings(n: int):
    # base-3 counting in lexicographic order: digit 0 = F, 1 = L, 2 = R
    return itertools.product((0, 1, 2), repeat=n)


def _tally(
    g: MultiGraph,
    weight: Dict[int, int],
    fixed: Optional[Dict[int, int]],
) -> Dict[CutKey, int]:
    if g.n > MAX_BRUTE_CUT_N:
        raise ValueError(f"brute cut-object tally limited to n <= {MAX_BRUTE_CUT_N}, got n={g.n}")
    verts = g.vertices()
    edge_list = list(g.edges())
    out: Dict[CutKey, int] = {}
    for labels in _labelings(len(verts)):
        lab = dict(zip(verts, labels))
        if fixed is not None:
            if any(lab[v] != want for v, want in fixed.items()):
                continue
        ok = True
        m_prime = 0
        for u, v, mult in edge_list:
            lu, lv = lab[u], lab[v]
            if lu == 0 or lv == 0:
                continue
            if lu != lv:
                ok = False
                break
            m_prime += mult
        if not ok:
            continue
        w = sum(weight[v] for v in verts if lab[v] == 0)
        s = sum(1 for v in verts if lab[v] == 0)
        key = (w, s, m_prime)
        out[key] = out.get(key, 0) + 1
    return out


def brute_cut_objects(g: MultiGraph, weight: Dict[int, int]) -> Dict[CutKey, int]:
    """Exact tally of consistent (F, L, R) partitions per (W, s, m') key.

    A partition is consistent when no edge joins L to R.  W is the
    ``weight``-sum over F, s = |F|, and m' counts edges (with multiplicity)
    whose endpoints both avoid F.  Counts are exact big ints.
    """
    return _tally(g, weight, None)


def brute_cut_objects_trace(
    g: MultiGraph,
    weight: Dict[int, int],
    fixed_labels: Dict[int, int],
) -> Dict[CutKey, int]:
    """Same tally, restricted to partitions extending ``fixed_labels``.

    ``fixed_labels`` maps vertex -> 0/1/2 for F/L/R respectively.
    """
    for v in fixed_labels:
        if not g.has_vertex(v):
            raise KeyError(f"vertex {v} not in graph")
    return _tally(g, weight, dict(fixed_labels))
