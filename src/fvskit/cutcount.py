"""Mod-2^t counting deciders over randomized separations.

The object being counted: partitions (F, L, R) of the vertex set with no
edge between L and R, bucketed by key (W, s, m') where W is the isolation
weight of F, s = |F| and m' = |E[L u R]| with multiplicity.  Summed over
the partitions extending a fixed F, the bucket total contributes 2^(#components
of g - F); a component count of exactly n - s - m' characterizes forests, so
a bucket is certified non-empty of forest solutions exactly when its total
is nonzero modulo 2^(n - s - m' + 1).  Every residue the accept test reads
lives in the ring modulo 2^(n + 1), and no table builder reads one, so
tables hold plain non-negative counts.  A count is reduced into the ring only
where it is read: by the accept scan ``_scan_accept``, and by
``_table_to_keys``.

Isolation weights omega are drawn per attempt, uniform on 1..2n per vertex.
A key weighs F by omega' = n^2 * omega + deg, so the degree of a minimum-weight
solution rides along; no table stores omega', and W = n^2 * i + d is read off
the key.  With a solution of size s present, some bucket holds exactly one
minimum solution with probability >= 1/2 per draw, which makes its total odd
at the scaled modulus - the accept event.

Tables are sparse dicts over packed (i, d, c, e) keys: i the plain
omega-sum of F so far, d its degree sum, c = |F| so far, e the edges counted
into m' so far.  Keys add componentwise, so convolution is integer addition
of packed keys.  The deciders cap c at k and d at floor(dbar * k); buckets
beyond the caps can never be accepted, so dropping them early is sound.

Edge ownership is the load-bearing invariant of both deciders: every edge
and every vertex of the graph is accounted by exactly one stage (separator
assignment, one side's trace enumeration, or one anchored forest table), and
the stages couple only through the labels of the enumerated vertices.

One builder, ``count_tables``, serves both deciders; only its combine step
depends on the number of colors.  Two sides convolve their tables.  Three
sides join theirs in a triangle sum of nested convolutions, ``_combine3``,
which is capped at every step like every other convolution.  No step
multiplies matrices, so neither variant runs a fast matrix product; tables of
Python ints take any n, and MAX_THREE_WAY_N is only the mm variant's size
guard.

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

from .multigraph import MultiGraph, induced, is_forest, minus, rooted_forest
from .separators import Separation, ThreeWaySeparation

F_LBL, L_LBL, R_LBL = 0, 1, 2
_LABELS = (F_LBL, L_LBL, R_LBL)

# the mm variant's documented size guard: the three-way decider refuses graphs
# above this many vertices, and an mm solve refuses such a kernel
MAX_THREE_WAY_N = 62


def draw_weights(g: MultiGraph, rng: random.Random) -> Dict[int, int]:
    """omega per vertex, uniform on {1..2n}, in vertex order."""
    n = g.n
    return {v: rng.randint(1, 2 * n) for v in g.vertices()}


@dataclasses.dataclass(frozen=True)
class DeciderOutcome:
    accepted: bool
    key: Optional[Tuple[int, int, int, int]]  # (W, s, m_prime, d)


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
        four in-cap keys.  ``_conv``, the one hot loop, inlines this test."""
        return not ((p + self.bias) & self.guard)


Table = Dict[int, int]


def _conv(ta: Table, tb: Table, packer: _Packer) -> Table:
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
                out[key] = get(key, 0) + ca * cb
    return out


def _add(*tabs: Table) -> Table:
    out: Table = {}
    get = out.get
    for t in tabs:
        for k, v in t.items():
            out[k] = get(k, 0) + v
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
    wts: Dict[int, int],
    degs: Dict[int, int],
    packer: _Packer,
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
        if 1 <= packer.c_cap and wts[v] <= packer.i_cap and degs[v] <= packer.d_cap:
            t_f = {packer.pack(wts[v], degs[v], 1, 0): 1}
        t_l: Table = {}
        t_r: Table = {}
        if v not in forced:
            if e_to_r == 0 and e_to_l <= packer.e_cap:
                t_l = {packer.pack(0, 0, 0, e_to_l): 1}
            if e_to_l == 0 and e_to_r <= packer.e_cap:
                t_r = {packer.pack(0, 0, 0, e_to_r): 1}
        for u in comp.children[v]:
            cf, cl, cr = tabs.pop(u)
            t_f = _conv(t_f, _add(cf, cl, cr), packer)
            t_l = _conv(t_l, _add(cf, _shift_e(cl, 1, packer)), packer)
            t_r = _conv(t_r, _add(cf, _shift_e(cr, 1, packer)), packer)
        tabs[v] = (t_f, t_l, t_r)
    return _add(*tabs[comp.postorder[-1]])


def _trace_term(
    verts: Sequence[int],
    edges: Sequence[Tuple[int, int, int]],
    labels: Dict[int, int],
    wts: Dict[int, int],
    degs: Dict[int, int],
    packer: _Packer,
) -> Optional[int]:
    """Packed (i, d, c, e) of a fully-labelled trace slice; None when an
    owned edge crosses L-R or a cap is exceeded."""
    i = d = c = e = 0
    for v in verts:
        if labels[v] == F_LBL:
            i += wts[v]
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
    wts: Dict[int, int],
    degs: Dict[int, int],
    packer: _Packer,
    forced: FrozenSet[int],
    comp_memo: Dict[Tuple, Table],
) -> Table:
    """Sum over the labellings of the side's f-vertices, with every other
    trace label already set: each labelling's trace term convolved with the
    anchored tables of the side's components.  A component table depends only
    on its interface labels, and not on their mirror, so ``comp_memo`` keeps
    it under (idx, component, canonical labels) for the whole draw."""
    accs: List[Table] = []
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
                tbl = comp_memo[ck] = _component_table(comp, labels, wts, degs, packer, forced)
            acc = _conv(acc, tbl, packer)
            if not acc:
                break
        accs.append(acc)
    return _add(*accs)


# ----------------------------------------------------------------------
# plain anchored-forest counting (fixed trace labels, no enumeration)


def forest_dp_table(
    g: MultiGraph,
    wts: Dict[int, int],
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
    table = _side_table(0, side, labels, wts, degs, packer, frozenset(), {})
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


def _combine3(per_side: List[Dict[Tuple[int, ...], Table]], packer: _Packer) -> Table:
    """The triangle sum of three sides: over the labellings x, y, z of S_12,
    S_13 and S_23, side1[x, y] * side2[x, z] * side3[y, z], each product a
    convolution.  Fields only grow as keys add, so a sum is in cap only when
    its parts are, and capping each convolution drops only what the final
    cap test would."""
    t1s, t2s, t3s = per_side
    out: List[Table] = []
    for (x, y), t1 in t1s.items():
        inner = _add(*(_conv(t2, t3s[y, z], packer)
                       for (x2, z), t2 in t2s.items() if x2 == x and (y, z) in t3s))
        out.append(_conv(t1, inner, packer))
    return _add(*out)


def count_tables(
    layout: _Layout,
    wts: Dict[int, int],
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
    The labelling's trace term and weight are convolved into side 1's tables;
    then two sides convolve their tables, and three sides join theirs in the
    triangle sum of ``_combine3``, so every product is a capped ``_conv``.
    Side and component tables are memoized per draw; each side's table is
    built once per canonical form of the labels in ``layout.rels[i]``.  The
    returned counts are plain, unreduced; their readers reduce them.
    """
    lay = layout
    n = lay.n
    packer = _Packer(i_cap=2 * n * min(c_cap, n) if n else 0,
                     d_cap=d_cap, c_cap=c_cap, e_cap=e_cap)
    labels: Dict[int, int] = {}
    comp_memo: Dict[Tuple, Table] = {}
    side_memos: List[Dict[Tuple[int, ...], Table]] = [{} for _ in lay.sides]
    # fixed for the draw: each pairwise class's labellings as (vertex, label)
    # pairs, and per side their combinations, under the tuple of their indices
    pair_settings = {ix: [list(zip(order, a)) for a in _assignments(order, forced)]
                     for ix, order in lay.pair_orders.items()}
    side_combos = [[(at, [vl for ix, j in zip(pairs, at) for vl in pair_settings[ix][j]])
                    for at in itertools.product(*(range(len(pair_settings[ix])) for ix in pairs))]
                   for pairs in lay.side_pairs]

    out: Table = {}
    get = out.get
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
                memo_key = _canon(tuple([labels[t] for t in lay.rels[i]]))
                tbl = side_memos[i].get(memo_key)
                if tbl is None:
                    tbl = side_memos[i][memo_key] = _side_table(
                        i, lay.sides[i], labels, wts, lay.degs, packer, forced, comp_memo)
                if tbl:
                    tables[at] = tbl
            if not tables:
                break
            per_side.append(tables)
        else:
            # side 1 takes the term and weight in new tables; memoized ones stay as built
            unit = {term: weight}
            per_side[0] = {at: _conv(unit, t, packer) for at, t in per_side[0].items()}
            joined = (_conv(per_side[0][()], per_side[1][()], packer) if len(per_side) == 2
                      else _combine3(per_side, packer))
            for key, cnt in joined.items():
                out[key] = get(key, 0) + cnt
    return out, packer


# perfbench's tracer wraps each name, which its decider resolves at call time
count_tables_two_way = count_tables_three_way = count_tables


# ----------------------------------------------------------------------
# the deciders


def _scan_accept(table: Table, packer: _Packer, n: int) -> Optional[Tuple[int, int, int, int]]:
    # every key is within the caps _decide passes (c <= k, d <= floor(dbar * k)):
    # the builder drops the rest
    for p in sorted(table):
        i, d, c, e = packer.unpack(p)
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
        out[key] = out.get(key, 0) + cnt
    return {key: cnt & mask for key, cnt in out.items() if cnt & mask}


def _decide(
    tables: Callable[..., Tuple[Table, _Packer]],
    g: MultiGraph,
    f: Iterable[int],
    k: int,
    dbar: float,
    sep: Union[Separation, ThreeWaySeparation],
    rng: random.Random,
    *,
    draws: Optional[int],
    forced: Iterable[int],
    stats: Optional[Counter],
) -> DeciderOutcome:
    """The decision procedure both deciders share: guards, caps, the draw loop,
    the counters and the accept scan around the table builder ``tables``."""
    n = g.n
    layout = _Layout(g, frozenset(f), sep.by_index())
    if n > MAX_THREE_WAY_N and len(layout.sides) == 3:
        raise ValueError(f"the three-way decider supports n <= {MAX_THREE_WAY_N}")
    forced_set = frozenset(forced)
    two_m = sum(layout.degs.values())
    stats = stats if stats is not None else Counter()
    stats["decider_calls"] += 1
    d_limit = math.floor(dbar * k)
    caps = {"c_cap": min(k, n), "d_cap": max(min(d_limit, two_m), 0), "e_cap": min(n, g.m)}
    total_draws = draws if draws is not None else max(1, 2 * n)
    used, key = 0, None
    while used < total_draws and key is None:
        table, packer = tables(layout, draw_weights(g, rng), forced=forced_set, **caps)
        used += 1
        key = _scan_accept(table, packer, n)
    stats["decider_draws"] += used
    stats["decider_accepts"] += key is not None
    return DeciderOutcome(key is not None, key)


def count_simple_separation(
    g: MultiGraph,
    f: Iterable[int],
    k: int,
    dbar: float,
    sep: Separation,
    rng: random.Random,
    *,
    draws: Optional[int] = None,
    forced: Iterable[int] = (),
    stats: Optional[Counter] = None,
) -> DeciderOutcome:
    """Two-way decider.

    Draws fresh weights up to ``draws`` times (default 2n), stopping at the
    first draw whose table has an accepting key, and adds the call, its
    draws and an accept to the ``decider_calls``, ``decider_draws`` and
    ``decider_accepts`` entries of ``stats`` when one is given.
    """
    return _decide(count_tables_two_way, g, f, k, dbar, sep, rng,
                   draws=draws, forced=forced, stats=stats)


def count_three_way(
    g: MultiGraph,
    f: Iterable[int],
    k: int,
    dbar: float,
    sep: ThreeWaySeparation,
    rng: random.Random,
    *,
    draws: Optional[int] = None,
    forced: Iterable[int] = (),
    stats: Optional[Counter] = None,
) -> DeciderOutcome:
    """Three-way decider; same contract as count_simple_separation."""
    return _decide(count_tables_three_way, g, f, k, dbar, sep, rng,
                   draws=draws, forced=forced, stats=stats)


# ----------------------------------------------------------------------
# witness extraction


WITNESS_PASSES = 4  # sweeps over the vertices before giving up
WITNESS_PROBE_DRAWS = 4  # weight draws per probe of one vertex


def reconstruct_witness(
    decide: Callable[..., DeciderOutcome],
    g: MultiGraph,
    k: int,
    dbar: float,
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
