"""Seeded instance families and the per-run solve plan.

Every workload draws its instances from the benchmark seed alone and hands
the solver nothing but the generated graph, k and a solver seed derived from
the same seed.  Each family is pinned to one k_min, so that every refute
solve (k = k_min - 1) spends the same trial budget: otherwise a seed that
happens to draw more k_min = 5 graphs than k_min = 4 ones would move
``refute_s.p50`` by the 3.8x ratio of the two budgets, which is not a speed
change.  Candidates with another k_min are redrawn from the same stream.

Only the stable public API is used here: ``MultiGraph``, ``generate``,
``oracle`` and ``reduce_exhaustive``.
"""
from __future__ import annotations

import dataclasses
import math
import random
import statistics
import time
from typing import Callable, Dict, List, Tuple

from fvskit import MultiGraph, generate, oracle, reduce_exhaustive

#: the instances of a run are set up in this many equal batches; ``setup_s``
#: is the median batch time scaled back to the whole run
SETUP_BATCHES = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    family: str
    variant: str
    k_min: int
    #: instance pairs (one witness and one refute solve each) per measured
    #: second on a shared 2-CPU Xeon VM at the benchmark's first commit; sizes
    #: a run's plan so that it measures about ``--seconds``
    pairs_per_second: float


PLANTED_HUBS = 4
PLANTED_FOREST = 32
PLANTED_DBAR = 3.0
GNM_N = 16
GNM_M = round(1.7 * GNM_N)
CUBIC_N = 12

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # why each workload exists: BENCHMARK.json and perfbench/README.md
    Workload("planted", "planted", "simple", PLANTED_HUBS, 2.4),
    Workload("gnm", "gnm", "simple", 3, 4.8),
    Workload("cubic", "cubic", "simple", 4, 3.4),
    Workload("cubic-mm", "cubic", "mm", 4, 2.0),
)}


@dataclasses.dataclass(frozen=True)
class Instance:
    index: int
    graph: MultiGraph
    k_min: int
    kernel_n: int
    kernel_m: int
    witness_seed: int
    refute_seed: int

    def manifest(self) -> Dict[str, int]:
        return {
            "index": self.index, "n": self.graph.n, "m": self.graph.m,
            "kernel_n": self.kernel_n, "kernel_m": self.kernel_m,
            "k_min": self.k_min,
            "witness_seed": self.witness_seed, "refute_seed": self.refute_seed,
        }


class OracleMismatch(RuntimeError):
    """The kernel-based oracle witness failed verification on the original
    graph: either the kernel or the oracle is wrong."""


def random_cubic(n: int, rng: random.Random) -> MultiGraph:
    """Uniform simple 3-regular graph by the pairing model with rejection:
    3n half-edges are matched at random and the matching is redrawn until it
    has no loop and no repeated pair."""
    if n % 2 or n < 4:
        raise ValueError("a 3-regular graph needs an even n >= 4")
    points = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = sorted(points[i:i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            return MultiGraph.from_edges(range(n), sorted(edges))


def _generator(family: str) -> Callable[[random.Random], MultiGraph]:
    if family == "planted":
        return lambda rng: generate.planted_fvs(
            PLANTED_FOREST, PLANTED_HUBS, PLANTED_DBAR, rng)[0]
    if family == "gnm":
        return lambda rng: generate.random_gnm(
            GNM_N, GNM_M, rng, allow_loops=False, allow_multi=False)
    if family == "cubic":
        return lambda rng: random_cubic(CUBIC_N, rng)
    raise ValueError(f"unknown family {family!r}")


def kernel_k_min(g: MultiGraph) -> Tuple[int, MultiGraph, float]:
    """k_min of g as the brute-force minimum of its kernel plus the forced
    vertices, with that witness checked on g itself.  Also returns the
    kernel and the seconds spent in ``brute_min_fvs``."""
    red = reduce_exhaustive(g, g.n)
    t0 = time.perf_counter()
    k, sol = oracle.brute_min_fvs(red.graph)
    brute_s = time.perf_counter() - t0
    witness = sol | red.forced
    if len(witness) != k + len(red.forced) or not oracle.verify_fvs(g, witness):
        raise OracleMismatch(f"kernel witness {sorted(witness)} is not an FVS of g")
    return len(witness), red.graph, brute_s


@dataclasses.dataclass
class SetupTimes:
    batch_s: List[float]
    generate_s: float = 0.0
    oracle_s: float = 0.0
    candidates: int = 0

    @property
    def setup_s(self) -> float:
        return statistics.median(self.batch_s) * len(self.batch_s)


def plan_pairs(wl: Workload, seconds: float) -> int:
    """Instance pairs in a run of ``seconds``: a whole number of batches."""
    per_batch = max(1, math.ceil(seconds * wl.pairs_per_second / SETUP_BATCHES))
    return per_batch * SETUP_BATCHES


def set_up(wl: Workload, seed: int, pairs: int) -> Tuple[List[Instance], SetupTimes]:
    """Draw ``pairs`` instances of k_min = wl.k_min in SETUP_BATCHES batches.

    Batch b draws from its own stream seeded by (family, seed, b), so the
    cubic and cubic-mm workloads solve the same graphs for the same seed.
    """
    make = _generator(wl.family)
    per_batch = math.ceil(pairs / SETUP_BATCHES)
    times = SetupTimes(batch_s=[])
    out: List[Instance] = []
    clock = time.perf_counter
    for b in range(SETUP_BATCHES):
        rng = random.Random(f"{wl.family}:{seed}:{b}")
        t_batch = clock()
        for _ in range(per_batch):
            while True:
                t0 = clock()
                g = make(rng)
                times.generate_s += clock() - t0
                k_min, kernel, brute_s = kernel_k_min(g)
                times.oracle_s += brute_s
                times.candidates += 1
                if k_min == wl.k_min:
                    break
            out.append(Instance(
                len(out), g, k_min, kernel.n, kernel.m,
                rng.getrandbits(63), rng.getrandbits(63),
            ))
        times.batch_s.append(clock() - t_batch)
    return out, times
