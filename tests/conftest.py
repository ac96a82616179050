from __future__ import annotations

import random

import pytest

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
