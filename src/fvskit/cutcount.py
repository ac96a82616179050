"""Mod-2^t counting deciders over randomized separations.

The object being counted: partitions (F, L, R) of the vertex set with no
edge between L and R, bucketed by key (W, s, m') where W is the isolation
weight of F, s = |F| and m' = |E[L u R]| with multiplicity.  Summed over
the partitions extending a fixed F, the bucket total contributes 2^(#components
of g - F); a component count of exactly n - s - m' characterizes forests, so
a bucket is certified non-empty of forest solutions exactly when its total
is nonzero modulo 2^(n - s - m' + 1).  All arithmetic therefore lives in the
ring modulo 2^(n + 1), which contains every residue the accept test reads.

Isolation weights are drawn per attempt: omega uniform on 1..2n per vertex,
scaled as omega' = n^2 * omega + deg so that the degree of a minimum-weight
solution rides along in the key.  With a solution of size s present, some
bucket holds exactly one minimum solution with probability >= 1/2 per draw,
which makes its total odd at the scaled modulus - the accept event.

Tables are sparse dicts over packed (i, d, c, e) keys: i the plain
omega-sum of F so far, d its degree sum, c = |F| so far, e the edges counted
into m' so far.  Keys add componentwise, so convolution is integer addition
of packed keys.  Decision mode caps c at k and d at floor(dbar * k); buckets
beyond the caps can never be accepted, so dropping them early is sound.

Edge ownership is the load-bearing invariant of both deciders: every edge
and every vertex of the graph is accounted by exactly one stage (separator
assignment, one side's trace enumeration, or one anchored forest table), and
the stages couple only through the labels of the enumerated vertices.

One builder, ``count_tables``, serves both deciders; only its combine step
depends on the number of colors.  Two sides convolve dicts of Python ints, so
the two-way decider takes any n.  Three sides contract int64 stacks by two
``tensordot`` calls, exact modulo 2^(n+1), which divides 2^64, while the
counts fit: n <= MAX_THREE_WAY_N.

Swapping L and R maps a partition to its mirror, which has the same key, so
every table is unchanged by the swap.  The builder uses this twice.  It
enumerates only canonical labellings of the separator (two-way S, three-way
S_123): those whose first non-F label is L.  Each counts with weight 2 for
itself and its mirror, and the all-F labelling, its own mirror, with weight
1.  The side and component memos are keyed on the canonical form of the
labels a table reads, so a labelling and its mirror share one entry.

The cap check is one add and one and.  Every field has 3 guard bits above
what its cap needs, so a sum of up to four in-cap keys neither carries out of
a field nor reaches the field's top bit.  Adding ``_Packer.bias`` sets that
top bit exactly in the fields that exceed their caps, and ``_Packer.guard``
masks the top bits: a key is in cap when ``(key + bias) & guard`` is 0.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import random
from collections import Counter
from typing import (Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence,
                    Set, Tuple, Union)

import numpy as np

from .multigraph import MultiGraph, induced, is_forest, minus, rooted_forest
from .separators import Separation, ThreeWaySeparation

F_LBL, L_LBL, R_LBL = 0, 1, 2
_LABELS = (F_LBL, L_LBL, R_LBL)

# the largest n whose three-way counts, all below 2^(n+1), fit int64
MAX_THREE_WAY_N = 62


@dataclasses.dataclass(frozen=True)
class IsolationWeights:
    omega: Dict[int, int]
    omega_prime: Dict[int, int]
    n: int


def draw_weights(g: MultiGraph, rng: random.Random) -> IsolationWeights:
    """omega uniform on {1..2n}; omega' = n^2 * omega + deg."""
    n = g.n
    omega = {v: rng.randint(1, 2 * n) for v in g.vertices()}
    omega_prime = {v: n * n * omega[v] + g.degree(v) for v in g.vertices()}
    return IsolationWeights(omega, omega_prime, n)


@dataclasses.dataclass(frozen=True)
class DeciderOutcome:
    accepted: bool
    key: Optional[Tuple[int, int, int, int]]  # (W, s, m_prime, d)
    draws_used: int


class _Packer:
    """Packs (i, d, c, e) into one int with enough headroom per field that
    packed keys from different stages add without carrying across fields."""

    __slots__ = ("i_cap", "d_cap", "c_cap", "e_cap",
                 "e_bits", "c_bits", "d_bits", "e_mask", "c_mask", "d_mask",
                 "c_shift", "d_shift", "i_shift", "bias", "guard")

    def __init__(self, i_cap: int, d_cap: int, c_cap: int, e_cap: int) -> None:
        if min(i_cap, d_cap, c_cap, e_cap) < 0:
            raise ValueError("packer caps must be >= 0")
        self.i_cap, self.d_cap, self.c_cap, self.e_cap = i_cap, d_cap, c_cap, e_cap
        self.e_bits = max(1, e_cap.bit_length()) + 3
        self.c_bits = max(1, c_cap.bit_length()) + 3
        self.d_bits = max(1, d_cap.bit_length()) + 3
        self.e_mask = (1 << self.e_bits) - 1
        self.c_mask = (1 << self.c_bits) - 1
        self.d_mask = (1 << self.d_bits) - 1
        self.c_shift = self.e_bits
        self.d_shift = self.e_bits + self.c_bits
        self.i_shift = self.e_bits + self.c_bits + self.d_bits
        i_bits = max(1, i_cap.bit_length()) + 3
        self.bias = self.guard = 0
        for cap, bits, shift in ((e_cap, self.e_bits, 0), (c_cap, self.c_bits, self.c_shift),
                                 (d_cap, self.d_bits, self.d_shift), (i_cap, i_bits, self.i_shift)):
            top = 1 << (bits - 1)
            self.bias |= (top - 1 - cap) << shift
            self.guard |= top << shift

    def pack(self, i: int, d: int, c: int, e: int) -> int:
        return (((i << self.d_bits | d) << self.c_bits | c) << self.e_bits) | e

    def unpack(self, p: int) -> Tuple[int, int, int, int]:
        e = p & self.e_mask
        c = (p >> self.c_shift) & self.c_mask
        d = (p >> self.d_shift) & self.d_mask
        return (p >> self.i_shift, d, c, e)

    def ok(self, p: int) -> bool:
        """Every field of ``p`` is within its cap; exact for sums of up to
        four in-cap keys.  The hot loops inline this test."""
        return not ((p + self.bias) & self.guard)


Table = Dict[int, int]


def _conv(ta: Table, tb: Table, packer: _Packer, mask: int) -> Table:
    if not ta or not tb:
        return {}
    if len(ta) < len(tb):
        ta, tb = tb, ta
    out: Table = {}
    bias, guard = packer.bias, packer.guard
    get = out.get
    for pb, cb in tb.items():
        for pa, ca in ta.items():
            key = pa + pb
            if not ((key + bias) & guard):
                out[key] = (get(key, 0) + ca * cb) & mask
    return {k: v for k, v in out.items() if v}


def _union_into(dst: Table, src: Table, mask: int) -> None:
    for k, v in src.items():
        nv = (dst.get(k, 0) + v) & mask
        if nv:
            dst[k] = nv
        elif k in dst:
            del dst[k]


def _merge3(tabs: Sequence[Table], mask: int) -> Table:
    out: Table = {}
    for t in tabs:
        _union_into(out, t, mask)
    return out


def _shift_e(t: Table, delta: int, packer: _Packer) -> Table:
    # e is the lowest field, so shifting it is plain integer addition
    return {k + delta: v for k, v in t.items() if packer.ok(k + delta)}


# ----------------------------------------------------------------------
# anchored forest tables


class _CompStructure:
    """Rooted layout of one forest component plus its trace interface."""

    __slots__ = ("postorder", "children", "iface", "trace_nbrs")

    def __init__(self, preorder: List[int], parent: Dict[int, Optional[int]],
                 trace_nbrs: Dict[int, List[Tuple[int, int]]]):
        self.postorder = preorder[::-1]  # children strictly before parents
        self.children: Dict[int, List[int]] = {v: [] for v in preorder}
        for v in preorder[1:]:  # preorder[0] is the root
            self.children[parent[v]].append(v)
        self.trace_nbrs = {v: trace_nbrs.get(v, []) for v in preorder}
        self.iface = tuple(sorted({t for v in preorder for t, _ in self.trace_nbrs[v]}))


def _component_table(
    comp: _CompStructure,
    labels: Dict[int, int],
    wts: IsolationWeights,
    degs: Dict[int, int],
    packer: _Packer,
    mask: int,
    forced: FrozenSet[int],
) -> Table:
    """Sum over label assignments of one forest component.

    Per vertex the three labels contribute:
      F: (omega, deg, 1, 0) regardless of surroundings,
      L: (0, 0, 0, multiplicity of edges to L-labelled trace), barred when any
         R-labelled trace neighbor exists (the edge would cross), and
      R: symmetrically.
    Tree edges are settled at the parent: same-side child adds one to e,
    F on either end adds nothing, opposite sides are barred.
    """
    tabs: Dict[int, Tuple[Table, Table, Table]] = {}
    for v in comp.postorder:
        e_to_l = e_to_r = 0
        for t, mult in comp.trace_nbrs[v]:
            lab = labels[t]
            if lab == L_LBL:
                e_to_l += mult
            elif lab == R_LBL:
                e_to_r += mult
        t_f: Table = {}
        if 1 <= packer.c_cap and wts.omega[v] <= packer.i_cap and degs[v] <= packer.d_cap:
            t_f = {packer.pack(wts.omega[v], degs[v], 1, 0): 1}
        t_l: Table = {}
        t_r: Table = {}
        if v not in forced:
            if e_to_r == 0 and e_to_l <= packer.e_cap:
                t_l = {packer.pack(0, 0, 0, e_to_l): 1}
            if e_to_l == 0 and e_to_r <= packer.e_cap:
                t_r = {packer.pack(0, 0, 0, e_to_r): 1}
        for u in comp.children[v]:
            cf, cl, cr = tabs.pop(u)
            any_side = _merge3((cf, cl, cr), mask)
            same_l = _merge3((cf, _shift_e(cl, 1, packer)), mask)
            same_r = _merge3((cf, _shift_e(cr, 1, packer)), mask)
            t_f = _conv(t_f, any_side, packer, mask)
            t_l = _conv(t_l, same_l, packer, mask)
            t_r = _conv(t_r, same_r, packer, mask)
        tabs[v] = (t_f, t_l, t_r)
    return _merge3(tabs[comp.postorder[-1]], mask)


def _trace_term(
    verts: Sequence[int],
    edges: Sequence[Tuple[int, int, int]],
    labels: Dict[int, int],
    wts: IsolationWeights,
    degs: Dict[int, int],
    packer: _Packer,
) -> Optional[int]:
    """Packed (i, d, c, e) of a fully-labelled trace slice; None when an
    owned edge crosses L-R or a cap is exceeded."""
    i = d = c = e = 0
    for v in verts:
        if labels[v] == F_LBL:
            i += wts.omega[v]
            d += degs[v]
            c += 1
    for u, v, mult in edges:
        lu = labels[u]
        lv = labels[v]
        if lu == F_LBL or lv == F_LBL:
            continue
        if lu != lv:
            return None
        e += mult
    if i > packer.i_cap or d > packer.d_cap or c > packer.c_cap or e > packer.e_cap:
        return None
    return packer.pack(i, d, c, e)


def _assignments(verts: Sequence[int], forced: FrozenSet[int]):
    """All label tuples for ``verts``, with forced vertices pinned to F."""
    domains = [(F_LBL,) if v in forced else _LABELS for v in verts]
    return itertools.product(*domains)


_MIRROR = (F_LBL, R_LBL, L_LBL)  # indexed by label


def _canon(labels: Tuple[int, ...]) -> Tuple[int, ...]:
    """The member of {labels, labels with L and R swapped} whose first non-F
    label is L; the all-F labelling is its own mirror."""
    for lab in labels:
        if lab == L_LBL:
            return labels
        if lab == R_LBL:
            return tuple(_MIRROR[x] for x in labels)
    return labels


def _canonical_assignments(verts: Sequence[int], forced: FrozenSet[int]):
    """(labels, weight) for the canonical label tuples of ``verts``: weight 2
    stands for the tuple and its mirror, weight 1 for the all-F tuple."""
    for labels in _assignments(verts, forced):
        if _canon(labels) == labels:
            yield labels, 2 if any(lab != F_LBL for lab in labels) else 1


def _build_forest_side(
    g: MultiGraph,
    forest_verts: List[int],
    trace: Set[int],
) -> List[_CompStructure]:
    """Component structures of g[forest_verts] plus each vertex's trace
    neighbor list (the anchors)."""
    order, parent = rooted_forest(induced(g, forest_verts))
    trace_nbrs: Dict[int, List[Tuple[int, int]]] = {}
    for v in forest_verts:
        lst = [(t, g.multiplicity(v, t)) for t in g.neighbors(v) if t in trace]
        if lst:
            trace_nbrs[v] = lst
    comps: List[List[int]] = []
    for v in order:
        if parent[v] is None:
            comps.append([])
        comps[-1].append(v)
    return [_CompStructure(comp, parent, trace_nbrs) for comp in comps]


class _Side(NamedTuple):
    """One side of a separation: its f-vertices, enumerated label by label;
    the vertices and edges its trace term settles; and its forest components,
    anchored on the trace."""

    f_side: List[int]
    term_verts: List[int]
    owned: List[Tuple[int, int, int]]
    comps: List[_CompStructure]


def _side_table(
    idx: int,
    side: _Side,
    labels: Dict[int, int],
    wts: IsolationWeights,
    degs: Dict[int, int],
    packer: _Packer,
    mask: int,
    forced: FrozenSet[int],
    comp_memo: Dict[Tuple, Table],
) -> Table:
    """Sum over the labellings of the side's f-vertices, with every other
    trace label already set: each labelling's trace term convolved with the
    anchored tables of the side's components.  A component table depends only
    on its interface labels, and not on their mirror, so ``comp_memo`` keeps
    it under (idx, component, canonical labels) for the whole draw."""
    out: Table = {}
    for assign in _assignments(side.f_side, forced):
        for v, lab in zip(side.f_side, assign):
            labels[v] = lab
        term = _trace_term(side.term_verts, side.owned, labels, wts, degs, packer)
        if term is None:
            continue
        acc: Table = {term: 1}
        for ci, comp in enumerate(side.comps):
            ck = (idx, ci, _canon(tuple([labels[t] for t in comp.iface])))
            tbl = comp_memo.get(ck)
            if tbl is None:
                tbl = _component_table(comp, labels, wts, degs, packer, mask, forced)
                comp_memo[ck] = tbl
            acc = _conv(acc, tbl, packer, mask)
            if not acc:
                break
        _union_into(out, acc, mask)
    return out


def _side_tables(
    layout: _Layout,
    labels: Dict[int, int],
    wts: IsolationWeights,
    packer: _Packer,
    mask: int,
    forced: FrozenSet[int],
) -> Callable[[int], Table]:
    """Side i's table under the current ``labels``, for one draw.  It depends
    only on the labels of ``layout.rels[i]``, and not on their mirror, so it
    is built once per canonical form of those labels."""
    comp_memo: Dict[Tuple, Table] = {}
    memos: List[Dict[Tuple[int, ...], Table]] = [{} for _ in layout.sides]

    def side_table(idx: int) -> Table:
        memo_key = _canon(tuple([labels[t] for t in layout.rels[idx]]))
        tbl = memos[idx].get(memo_key)
        if tbl is None:
            tbl = _side_table(idx, layout.sides[idx], labels, wts, layout.degs, packer, mask,
                              forced, comp_memo)
            memos[idx][memo_key] = tbl
        return tbl

    return side_table


# ----------------------------------------------------------------------
# plain anchored-forest counting (fixed trace labels, no enumeration)


def forest_dp_table(
    g: MultiGraph,
    wts: IsolationWeights,
    f_part: Iterable[int],
    l_part: Iterable[int],
    r_part: Iterable[int],
) -> Dict[Tuple[int, int, int], int]:
    """Per-key totals of partitions extending the given labels, keyed by
    (W, s, m') and reduced modulo 2^(n+1).

    The unlabelled remainder must induce a forest; otherwise ValueError
    (from ``rooted_forest``).
    """
    f_set, l_set, r_set = frozenset(f_part), frozenset(l_part), frozenset(r_part)
    trace = f_set | l_set | r_set
    if len(f_set) + len(l_set) + len(r_set) != len(trace):
        raise ValueError("F, L, R overlap")
    for v in trace:
        if not g.has_vertex(v):
            raise KeyError(f"vertex {v} not in graph")
    forest_verts = [v for v in g.vertices() if v not in trace]
    n = g.n
    mask = (1 << (n + 1)) - 1
    degs = {v: g.degree(v) for v in g.vertices()}
    two_m = sum(degs.values())
    packer = _Packer(i_cap=2 * n * n, d_cap=two_m, c_cap=n, e_cap=g.m)
    labels = {v: F_LBL for v in f_set}
    labels.update({v: L_LBL for v in l_set})
    labels.update({v: R_LBL for v in r_set})

    # one side with no f-vertices to enumerate: its term is the whole trace
    side = _Side([], sorted(trace),
                 [(u, v, mult) for u, v, mult in g.edges() if u in trace and v in trace],
                 _build_forest_side(g, forest_verts, set(trace)))
    table = _side_table(0, side, labels, wts, degs, packer, mask, frozenset(), {})
    return _table_to_keys(table, packer, n)


# ----------------------------------------------------------------------
# the layout both deciders share


class _Layout:
    """Vertex and edge ownership for one (graph, f, separation) triple.

    ``classes`` maps the non-empty subsets of the colors {1..c}, c = 2 or 3,
    to their vertex classes, as ``by_index()`` gives them.  Side i is the
    singleton class {i}; the global class is the all-colors class G.  At three
    colors, side i also owns the pairwise class P_i = {i, i mod 3 + 1}
    (S_12 -> side 1, S_23 -> side 2, S_13 -> side 3); at two colors the only
    two-color set is G, so there are no pairwise classes.

    Every vertex belongs to its class, and every edge uv to the class indexed
    by I(u) ∩ I(v), which a separation keeps non-empty.  The global stage
    settles G and its internal edges; side i settles what {i} and P_i own:
    the f-vertices of S_i label by label, the vertices of P_i in its trace
    term, and the forest part of S_i through tables anchored on the side's
    trace (its f-vertices, G and the pairwise classes containing i), which
    absorb every edge with a forest endpoint.  ``sides[i - 1]`` is side i,
    ``side_pairs[i - 1]`` names its pairwise classes, and ``rels[i - 1]``
    lists the vertices outside S_i whose labels its table depends on.
    """

    __slots__ = ("global_order", "global_edges", "pair_orders", "sides", "side_pairs", "rels",
                 "degs", "n")

    def __init__(self, g: MultiGraph, fset: FrozenSet[int],
                 classes: Dict[FrozenSet[int], FrozenSet[int]]):
        self.n = g.n
        self.degs = {v: g.degree(v) for v in g.vertices()}
        colors = max(map(len, classes))
        glob = frozenset(range(1, colors + 1))
        index_of = {v: ix for ix, verts in classes.items() for v in verts}
        # side i - 1 settles {i} and P_i; at two colors P_i is G
        own_pair = [frozenset({i, i % colors + 1}) for i in range(1, colors + 1)]
        side_of = {frozenset({i + 1}): i for i in range(colors)}
        side_of.update((p, i) for i, p in enumerate(own_pair) if p != glob)
        pairs = sorted((p for p in own_pair if p != glob), key=sorted)
        self.global_order = sorted(classes[glob])
        self.pair_orders = {ix: sorted(classes[ix]) for ix in pairs}
        self.global_edges: List[Tuple[int, int, int]] = []
        edges_by_side: List[List[Tuple[int, int, int]]] = [[] for _ in range(colors)]
        for u, v, mult in g.edges():
            shared = index_of[u] & index_of[v]
            if not shared:
                raise ValueError(f"edge {u}-{v} joins classes with disjoint index sets "
                                 f"{sorted(index_of[u])} / {sorted(index_of[v])}")
            if shared == glob:
                self.global_edges.append((u, v, mult))
            else:
                edges_by_side[side_of[shared]].append((u, v, mult))
        self.sides: List[_Side] = []
        self.side_pairs: List[Tuple[FrozenSet[int], ...]] = []
        self.rels: List[List[int]] = []
        for i in range(colors):
            own = classes[frozenset({i + 1})]
            f_side = sorted(own & fset)
            forest = own - fset
            side_pairs = tuple(ix for ix in pairs if i + 1 in ix)
            trace = set(f_side).union(self.global_order, *(classes[ix] for ix in side_pairs))
            comps = _build_forest_side(g, sorted(forest), trace)
            owned = [e for e in edges_by_side[i] if e[0] not in forest and e[1] not in forest]
            term_verts = f_side + self.pair_orders.get(own_pair[i], [])
            self.sides.append(_Side(f_side, term_verts, owned, comps))
            self.side_pairs.append(side_pairs)
            rel = set(term_verts).union(*(e[:2] for e in owned), *(c.iface for c in comps))
            self.rels.append(sorted(rel - set(f_side)))


# ----------------------------------------------------------------------
# the table builder


def _triangle(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray) -> np.ndarray:
    """(a, b, c) -> sum over x, y, z of a1[a, x, y] * a2[b, x, z] * a3[c, y, z],
    by two tensordot calls; int64 wraparound keeps it exact modulo 2^64."""
    return np.tensordot(np.tensordot(a1, a2, axes=(1, 1)), a3, axes=((1, 3), (1, 2)))


def _contract(per_side: List[Dict[Tuple[int, ...], Table]],
              shapes: List[Tuple[int, ...]]) -> List[Tuple[int, int]]:
    """(key, count) of every nonzero triangle-weighted sum of three sides.
    Each side's tables stack into one int64 (key, pair, pair) array over the
    sorted union of their keys."""
    stacks = []
    for tables, shape in zip(per_side, shapes):
        keys = sorted({key for t in tables.values() for key in t})
        index = {key: j for j, key in enumerate(keys)}
        stack = np.zeros((len(keys),) + shape, dtype=np.int64)
        for at, t in tables.items():
            for key, cnt in t.items():
                stack[(index[key],) + at] = cnt
        stacks.append((keys, stack))
    (keys1, a1), (keys2, a2), (keys3, a3) = stacks
    tri = _triangle(a1, a2, a3)
    nz = np.nonzero(tri)
    return [(keys1[a] + keys2[b] + keys3[c], cnt)
            for a, b, c, cnt in zip(*(ix.tolist() for ix in nz), tri[nz].tolist())]


def count_tables(
    layout: _Layout,
    wts: IsolationWeights,
    *,
    c_cap: int,
    d_cap: int,
    e_cap: int,
    forced: FrozenSet[int] = frozenset(),
) -> Tuple[Table, _Packer]:
    """One full per-key table for a fixed weight draw, at two or three colors.

    For each canonical labelling of the global class, weighted for its
    mirror, each side yields one table per labelling of its pairwise classes
    (at two colors there are none, so each side has one table, under ``()``).
    Two sides then convolve their tables; three sides contract theirs in
    ``_contract``.  Counts accumulate unreduced and are reduced modulo
    2^(n+1) once, at the end.
    """
    lay = layout
    n = lay.n
    mask = (1 << (n + 1)) - 1
    packer = _Packer(i_cap=2 * n * min(c_cap, n) if n else 0,
                     d_cap=d_cap, c_cap=c_cap, e_cap=e_cap)
    labels: Dict[int, int] = {}
    side_table = _side_tables(lay, labels, wts, packer, mask, forced)
    # fixed for the draw: each pairwise class's labellings as (vertex, label)
    # pairs, and per side their combinations, under the index tuple stacked at
    pair_settings = {ix: [list(zip(order, a)) for a in _assignments(order, forced)]
                     for ix, order in lay.pair_orders.items()}
    shapes = [tuple(len(pair_settings[ix]) for ix in pairs) for pairs in lay.side_pairs]
    side_combos = [[(at, [vl for ix, j in zip(pairs, at) for vl in pair_settings[ix][j]])
                    for at in itertools.product(*map(range, shape))]
                   for pairs, shape in zip(lay.side_pairs, shapes)]

    out: Table = {}
    get = out.get
    bias, guard = packer.bias, packer.guard
    for sigma, weight in _canonical_assignments(lay.global_order, forced):
        for v, lab in zip(lay.global_order, sigma):
            labels[v] = lab
        term = _trace_term(lay.global_order, lay.global_edges, labels, wts, lay.degs, packer)
        if term is None:
            continue
        per_side: List[Dict[Tuple[int, ...], Table]] = []
        for i, combos in enumerate(side_combos):
            tables: Dict[Tuple[int, ...], Table] = {}
            for at, setting in combos:
                for v, lab in setting:
                    labels[v] = lab
                tbl = side_table(i)
                if tbl:
                    tables[at] = tbl
            if not tables:
                break
            per_side.append(tables)
        else:
            if len(per_side) == 2:
                outer, inner = per_side[0][()].items(), per_side[1][()].items()
            else:
                # the contraction combined all three sides: convolve with the unit
                outer, inner = _contract(per_side, shapes), ((0, 1),)
            for base, ca in outer:
                base += term
                ca *= weight
                for pb, cb in inner:
                    key = base + pb
                    if not ((key + bias) & guard):
                        out[key] = get(key, 0) + ca * cb
    return {key: cnt & mask for key, cnt in out.items() if cnt & mask}, packer


# perfbench's tracer wraps each name, which its decider resolves at call time
count_tables_two_way = count_tables_three_way = count_tables


# ----------------------------------------------------------------------
# the deciders


def _scan_accept(
    table: Table,
    packer: _Packer,
    n: int,
    k: int,
    d_limit: int,
) -> Optional[Tuple[int, int, int, int]]:
    for p in sorted(table):
        i, d, c, e = packer.unpack(p)
        if c > k or d > d_limit:
            continue
        exp = n - c - e + 1
        if exp <= 0:
            continue
        if table[p] & ((1 << exp) - 1):
            return (n * n * i + d, c, e, d)
    return None


def _table_to_keys(table: Table, packer: _Packer, n: int) -> Dict[Tuple[int, int, int], int]:
    """Packed table to (W, s, m') totals modulo 2^(n+1)."""
    mask = (1 << (n + 1)) - 1
    out: Dict[Tuple[int, int, int], int] = {}
    for p, cnt in table.items():
        i, d, c, e = packer.unpack(p)
        key = (n * n * i + d, c, e)
        nv = (out.get(key, 0) + cnt) & mask
        if nv:
            out[key] = nv
        elif key in out:
            del out[key]
    return out


def _decide(
    tables: Callable[..., Tuple[Table, _Packer]],
    g: MultiGraph,
    f: Iterable[int],
    k: int,
    dbar: float,
    sep: Union[Separation, ThreeWaySeparation],
    rng: Optional[random.Random],
    *,
    draws: Optional[int],
    forced: Iterable[int],
    weights: Optional[IsolationWeights],
    full_tables: bool,
    stats: Optional[Counter],
):
    """The decision procedure both deciders share: guards, caps, the draw loop,
    the counters and the accept scan around the table builder ``tables``."""
    n = g.n
    layout = _Layout(g, frozenset(f), sep.by_index())
    if n > MAX_THREE_WAY_N and len(layout.sides) == 3:
        raise ValueError(f"the three-way decider supports n <= {MAX_THREE_WAY_N}")
    forced_set = frozenset(forced)
    two_m = sum(layout.degs.values())
    if full_tables:
        if weights is None:
            raise ValueError("full_tables mode needs explicit weights")
        table, packer = tables(layout, weights, c_cap=n, d_cap=max(1, two_m),
                               e_cap=max(1, g.m), forced=forced_set)
        return _table_to_keys(table, packer, n)

    if weights is None and rng is None:
        raise ValueError("decision mode needs an rng or explicit weights")
    stats = stats if stats is not None else Counter()
    stats["decider_calls"] += 1
    d_limit = math.floor(dbar * k)
    caps = {"c_cap": min(k, n), "d_cap": max(min(d_limit, two_m), 0), "e_cap": min(n, g.m)}
    total_draws = draws if draws is not None else max(1, 2 * n)
    used, key = 0, None
    while used < total_draws and key is None:
        wts = weights if weights is not None else draw_weights(g, rng)
        table, packer = tables(layout, wts, forced=forced_set, **caps)
        used += 1
        key = _scan_accept(table, packer, n, k, d_limit)
        if weights is not None:
            break  # fixed weights: further draws are identical
    stats["decider_draws"] += used
    stats["decider_accepts"] += key is not None
    return DeciderOutcome(key is not None, key, used)


def count_simple_separation(
    g: MultiGraph,
    f: Iterable[int],
    k: int,
    dbar: float,
    sep: Separation,
    rng: Optional[random.Random] = None,
    *,
    draws: Optional[int] = None,
    forced: Iterable[int] = (),
    weights: Optional[IsolationWeights] = None,
    full_tables: bool = False,
    stats: Optional[Counter] = None,
):
    """Two-way decider.

    Decision mode returns a DeciderOutcome after up to ``draws`` independent
    weight draws (default 2n), and adds the call, its draws and an accept to
    the ``decider_calls``, ``decider_draws`` and ``decider_accepts`` entries
    of ``stats`` when one is given.  With ``full_tables`` (requires
    ``weights``) it instead returns uncapped per-key totals for that single
    draw, the form the brute-force tally can be compared against.
    """
    return _decide(count_tables_two_way, g, f, k, dbar, sep, rng,
                   draws=draws, forced=forced, weights=weights,
                   full_tables=full_tables, stats=stats)


def count_three_way(
    g: MultiGraph,
    f: Iterable[int],
    k: int,
    dbar: float,
    sep: ThreeWaySeparation,
    rng: Optional[random.Random] = None,
    *,
    draws: Optional[int] = None,
    forced: Iterable[int] = (),
    weights: Optional[IsolationWeights] = None,
    full_tables: bool = False,
    stats: Optional[Counter] = None,
):
    """Three-way decider; same contract as count_simple_separation."""
    return _decide(count_tables_three_way, g, f, k, dbar, sep, rng,
                   draws=draws, forced=forced, weights=weights,
                   full_tables=full_tables, stats=stats)


# ----------------------------------------------------------------------
# witness extraction


WITNESS_PASSES = 4  # sweeps over the vertices before giving up
WITNESS_PROBE_DRAWS = 4  # weight draws per probe of one vertex


def reconstruct_witness(
    decide: Callable[..., DeciderOutcome],
    g: MultiGraph,
    k: int,
    dbar: float,
    rng: random.Random,
) -> Optional[FrozenSet[int]]:
    """Self-reduction: grow a forced set vertex by vertex, keeping a vertex
    exactly when the decider still accepts with it pinned into F.

    ``decide(forced=..., draws=...)`` must run the underlying decider with
    the given vertices pinned.  A vertex in every surviving solution is kept
    with probability >= 1 - 2^-WITNESS_PROBE_DRAWS per pass; up to
    WITNESS_PASSES passes mop up unlucky rejections.  The returned set is
    verified outright - forest check, size, degree load - so the caller can
    trust it.
    """
    d_limit = math.floor(dbar * k)

    def valid(cand: Set[int]) -> bool:
        return (
            len(cand) <= k
            and sum(g.degree(v) for v in cand) <= d_limit
            and is_forest(minus(g, cand))
        )

    if not decide(forced=frozenset(), draws=None).accepted:
        return None
    forced: Set[int] = set()
    for _ in range(WITNESS_PASSES):
        if valid(forced):
            return frozenset(forced)
        for v in g.vertices():
            if v in forced or len(forced) >= k:
                continue
            if decide(forced=frozenset(forced | {v}), draws=WITNESS_PROBE_DRAWS).accepted:
                forced.add(v)
                if valid(forced):
                    return frozenset(forced)
    return frozenset(forced) if valid(forced) else None
