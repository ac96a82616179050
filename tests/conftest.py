from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from fvskit import cutcount
from fvskit.multigraph import MultiGraph


# one "criterion N: PASS/FAIL - ..." line per acceptance criterion; filled by
# tests/test_acceptance.py and replayed after capture shuts down so the lines
# land in plain `pytest -v` output
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xFEED)


def mg(n: int, edges) -> MultiGraph:
    return MultiGraph.from_edges(range(n), edges)


def hubs_over_path(path_len: int) -> MultiGraph:
    """A path on 0..path_len-1 plus two hubs joined to every path vertex.
    Every vertex keeps degree >= 3, so the kernel is the whole graph, and
    the two hubs are its minimum FVS."""
    hubs = (path_len, path_len + 1)
    return mg(path_len + 2, [(i, i + 1) for i in range(path_len - 1)]
              + [(h, i) for h in hubs for i in range(path_len)])


def random_multigraph(rng: random.Random, n_max: int = 9, m_max: int | None = None) -> MultiGraph:
    n = rng.randrange(1, n_max + 1)
    m = rng.randrange(0, (m_max if m_max is not None else 2 * n) + 1)
    g = MultiGraph.from_edges(range(n), [])
    for _ in range(m):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    return g


def omega_prime(g: MultiGraph, omega) -> dict:
    """The weight the deciders key on: n^2 * omega + deg per vertex."""
    n = g.n
    return {v: n * n * omega[v] + g.degree(v) for v in g.vertices()}


def full_tables(g: MultiGraph, f, sep, omega, forced=()) -> dict:
    """Uncapped per-key totals (W, s, m') of one weight draw over ``sep``,
    reduced modulo 2^(n+1): the form the brute-force tallies compare against."""
    layout = cutcount._Layout(g, frozenset(f), sep.by_index())
    table, packer = cutcount.count_tables(
        layout, omega, c_cap=g.n, d_cap=max(1, sum(layout.degs.values())),
        e_cap=max(1, g.m), forced=frozenset(forced))
    return cutcount._table_to_keys(table, packer, g.n)


def random_side_tables(r: random.Random, packer):
    """Per-side tables of one triangle sum, with (nx, ny, nz): side 1 under
    (x, y), side 2 under (x, z), side 3 under (y, z).  Counts run past 2^63,
    and about one key field in five is one past its cap; such keys sum three
    at a time without a carry, so ``ok`` on the final key stays exact."""
    caps = (packer.i_cap, packer.d_cap, packer.c_cap, packer.e_cap)

    def table():
        return {packer.pack(*(r.randint(0, cap + (r.random() < 0.2)) for cap in caps)):
                r.randrange(1 << 63, 1 << 70) for _ in range(r.randint(1, 4))}

    dims = nx, ny, nz = tuple(r.randint(1, 3) for _ in range(3))
    return [{at: table() for at in itertools.product(range(na), range(nb))
             if r.random() < 0.8}
            for na, nb in ((nx, ny), (nx, nz), (ny, nz))], dims


def triangle_loop(per_side, dims, packer) -> Counter:
    """The triangle sum by its definition: over every x, y, z and every key
    triple, side1[x, y] * side2[x, z] * side3[y, z], capped on the final key."""
    t1s, t2s, t3s = per_side
    nx, ny, nz = dims
    want: Counter = Counter()
    for x, y, z in itertools.product(range(nx), range(ny), range(nz)):
        for (k1, c1), (k2, c2), (k3, c3) in itertools.product(
                t1s.get((x, y), {}).items(), t2s.get((x, z), {}).items(),
                t3s.get((y, z), {}).items()):
            if packer.ok(k1 + k2 + k3):
                want[k1 + k2 + k3] += c1 * c2 * c3
    return want
