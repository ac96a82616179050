"""Fingerprint of a checkout's seeded answers: solves, stats and decisions.

Usage: python tools/fingerprint.py <checkout> [out]

Imports the solver from ``<checkout>/src`` and the benchmark's instance
families from ``<checkout>/perfbench/workloads.py``, and nothing else of the
checkout.  One line per item:

* every instance of ``set_up(workload, seed 3, 6 pairs)`` on each benchmark
  workload, then its witness and its refute solve, as the benchmark runs
  them;
* 40 solves of ``random_gnm(12, 20)`` graphs (ten graphs, at k_min and
  k_min - 1, under simple and mm);
* 80 seeded decider outcomes on ``random_gnm(10, 16)`` graphs (twenty graphs,
  both deciders, at k = |f| and k = |f| - 1 for f a minimum FVS plus one
  vertex), with the decider counters.

Stats are written sorted by name, so a change of their insertion order does
not show.  Prints the line count and the SHA-256 of the lines; with ``out``,
also writes the lines there.  Two checkouts whose outputs are equal gave the
same answers, the same stats and the same decisions on every item.
"""
from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from pathlib import Path
from typing import List


def _load(checkout: Path):
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import fvskit
    import workloads
    for mod in (fvskit, workloads):
        if checkout not in Path(mod.__file__).resolve().parents:
            raise SystemExit(f"fingerprint: imported {mod.__file__}, not from {checkout}")
    return fvskit, workloads


def _solve_line(fvskit, tag: str, g, k: int, config) -> str:
    res = fvskit.solve(g, k, config)
    fvs = sorted(res.fvs) if res.fvs is not None else None
    return (f"{tag} k={k} {res.status} fvs={fvs} trials={res.trials}/{res.budget} "
            f"stats={sorted(res.stats.items())}")


def lines(checkout: Path) -> List[str]:
    fvskit, workloads = _load(checkout)
    from fvskit import generate as gen
    out: List[str] = []
    for name, wl in workloads.WORKLOADS.items():
        instances, _ = workloads.set_up(wl, 3, 6)
        for inst in instances:
            out.append(f"{name} instance {sorted(inst.manifest().items())}")
            for k, seed in ((inst.k_min, inst.witness_seed), (inst.k_min - 1, inst.refute_seed)):
                config = fvskit.SolverConfig(variant=wl.variant, seed=seed)
                out.append(_solve_line(fvskit, f"{name} #{inst.index}", inst.graph, k, config))
    for i in range(10):
        g = gen.random_gnm(12, 20, random.Random(i))
        k_min, _ = fvskit.brute_min_fvs(g)
        for variant in ("simple", "mm"):
            for k in (k_min, k_min - 1):
                config = fvskit.SolverConfig(variant=variant, seed=100 + i)
                out.append(_solve_line(fvskit, f"gnm12 #{i} {variant}", g, k, config))
    for i in range(20):
        g = gen.random_gnm(10, 16, random.Random(1000 + i))
        _, sol = fvskit.brute_min_fvs(g)
        f = sol | {min(set(g.vertices()) - sol)}
        for name, separation, decider in (
                ("two-way", fvskit.two_way_separation, fvskit.count_simple_separation),
                ("three-way", fvskit.three_way_separation, fvskit.count_three_way)):
            for k in (len(f), len(f) - 1):
                rng = random.Random(2000 + i)
                sep = separation(g, f, rng, budget=k)
                stats: Counter = Counter()
                got = decider(g, f, k, fvskit.SolverConfig().dbar, sep, rng, stats=stats)
                out.append(f"decide #{i} {name} k={k} {got.accepted} {got.key} "
                           f"stats={sorted(stats.items())}")
    return out


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    got = lines(Path(argv[0]).resolve())
    text = "".join(line + "\n" for line in got)
    if len(argv) == 2:
        Path(argv[1]).write_text(text)
    print(f"{len(got)} lines sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
