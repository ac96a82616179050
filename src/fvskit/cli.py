"""Command line: solve / gen / verify / oracle / bench.

Instance text format, 1-indexed:

    # optional comments
    n m
    u v        (m lines; u == v is a loop; repeated lines raise multiplicity)

Exit codes: 0 the question was answered (including INFEASIBLE and INVALID),
2 bad usage or unreadable input, 3 the requested k is above the exact-solve
ceiling, or an mm solve's kernel has more than 62 vertices.
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import random
import sys
import time
from typing import List, Optional, Sequence, Tuple

from . import generate
from .multigraph import MultiGraph, is_forest, minus
from .oracle import MAX_BRUTE_FVS_N, brute_min_fvs, verify_fvs
from .separators import decomposition_to_pace, tree_decomposition_from_fvs
from .solver import BudgetExceeded, SolverConfig, solve


class InstanceFormatError(ValueError):
    pass


def parse_instance(text: str) -> MultiGraph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InstanceFormatError("empty instance")
    head = lines[0].split()
    if len(head) != 2:
        raise InstanceFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InstanceFormatError(f"bad header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise InstanceFormatError("n and m must be non-negative")
    if len(lines) - 1 != m:
        raise InstanceFormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    g = MultiGraph.from_edges(range(n), [])
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InstanceFormatError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InstanceFormatError(f"bad edge line {ln!r}") from exc
        if not (1 <= u <= n and 1 <= v <= n):
            raise InstanceFormatError(f"edge {u} {v} out of range 1..{n}")
        g.add_edge(u - 1, v - 1)
    return g


def format_instance(g: MultiGraph, comments: Sequence[str] = ()) -> str:
    verts = g.vertices()
    index = {v: i + 1 for i, v in enumerate(verts)}
    out = [f"# {c}" for c in comments]
    out.append(f"{g.n} {g.m}")
    for u, v in g.edge_lines():
        out.append(f"{index[u]} {index[v]}")
    return "\n".join(out) + "\n"


def _read_instance(path: str) -> MultiGraph:
    if path == "-":
        return parse_instance(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _seed_from(args: argparse.Namespace) -> Optional[int]:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FVSKIT_SEED")
    return int(env) if env else None


def _config_from(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        variant=args.variant,
        epsilon=args.epsilon,
        trials_factor=args.trials_factor,
        seed=_seed_from(args),
        faithful_coin=args.faithful_coin,
        ic_threshold=args.ic_threshold,
        max_k=args.max_k,
        jobs=args.jobs,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _read_instance(args.instance)
    config = _config_from(args)
    try:
        res = solve(g, args.k, config)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    verts = g.vertices()
    index = {v: i + 1 for i, v in enumerate(verts)}
    if res.status == "fvs":
        chosen = sorted(index[v] for v in res.fvs)
        print(f"FVS {len(chosen)}")
        print(" ".join(map(str, chosen)))
        if args.emit_td:
            rng = random.Random(config.seed if config.seed is not None else 0)
            td = tree_decomposition_from_fvs(g, res.fvs, rng, budget=max(1, args.k))
            _write_text(args.emit_td, decomposition_to_pace(td, g.n))
    else:
        print("INFEASIBLE")
    if args.stats:
        print(f"trials={res.trials}")
        print(f"budget={res.budget}")
        for key in sorted(res.stats):
            print(f"{key}={res.stats[key]}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_instance(args.instance)
    verts = g.vertices()
    try:
        picks = [int(tok) for tok in args.set.replace(",", " ").split()]
    except ValueError:
        print("error: --set must be a list of integers", file=sys.stderr)
        return 2
    if any(not (1 <= p <= g.n) for p in picks):
        print("error: --set entries out of range", file=sys.stderr)
        return 2
    chosen = {verts[p - 1] for p in picks}
    if verify_fvs(g, chosen):
        print(f"VALID {len(chosen)}")
    else:
        print("INVALID")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _read_instance(args.instance)
    if g.n > args.limit:
        print(f"error: oracle limited to n <= {args.limit}", file=sys.stderr)
        return 2
    k, wit = brute_min_fvs(g, limit=args.limit)
    verts = g.vertices()
    index = {v: i + 1 for i, v in enumerate(verts)}
    print(f"MINFVS {k}")
    print(" ".join(str(index[v]) for v in sorted(wit)))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed if args.seed is not None else 0)
    comments = [f"family={args.family}", f"seed={args.seed}"]
    if args.family == "gnm":
        g = generate.random_gnm(args.n, args.m, rng,
                                allow_loops=not args.simple,
                                allow_multi=not args.simple)
    elif args.family == "cycle":
        g = generate.cycle(args.n)
    elif args.family == "cycles":
        lengths = [int(t) for t in args.lengths.split(",") if t]
        g = generate.disjoint_cycles(lengths)
    elif args.family == "planted":
        g, hubs = generate.planted_fvs(args.forest_size, args.k, args.dbar, rng)
        verts = g.vertices()
        index = {v: i + 1 for i, v in enumerate(verts)}
        comments.append("planted " + " ".join(str(index[h]) for h in sorted(hubs)))
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.family)
    _write_text(args.out, format_instance(g, comments))
    return 0


_BENCH_SUITE: List[Tuple[str, str]] = [
    ("cycle-5", "cycle:5"),
    ("cycle-8", "cycle:8"),
    ("cycles-3x3", "cycles:3,3,3"),
    ("gnm-8-10", "gnm:8:10"),
    ("gnm-10-13", "gnm:10:13"),
    ("gnm-12-15", "gnm:12:15"),
    ("gnm-13-17", "gnm:13:17"),
]


def _bench_instance(spec: str, rng: random.Random) -> MultiGraph:
    parts = spec.split(":")
    if parts[0] == "cycle":
        return generate.cycle(int(parts[1]))
    if parts[0] == "cycles":
        return generate.disjoint_cycles([int(t) for t in parts[1].split(",")])
    if parts[0] == "gnm":
        return generate.random_gnm(int(parts[1]), int(parts[2]), rng)
    raise AssertionError(spec)


def _cmd_bench(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed if args.seed is not None else 0)
    rows = []
    for name, spec in _BENCH_SUITE:
        g = _bench_instance(spec, rng)
        k, _ = brute_min_fvs(g)
        config = SolverConfig(variant=args.variant, seed=args.seed or 0,
                              ic_threshold=args.ic_threshold, jobs=args.jobs)
        t0 = time.perf_counter()
        res = solve(g, k, config)
        dt = time.perf_counter() - t0
        rows.append({
            "instance": name, "n": g.n, "m": g.m, "k": k,
            "variant": args.variant, "trials": res.trials,
            "wall_s": f"{dt:.4f}", "success": int(res.status == "fvs"),
        })
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _write_text(args.out, buf.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fvskit",
                                description="exact randomized feedback vertex set solver")
    sub = p.add_subparsers(dest="command", required=True)

    def add_solver_flags(sp):
        sp.add_argument("--variant", choices=("simple", "mm"), default="simple")
        sp.add_argument("--epsilon", type=float, default=None)
        sp.add_argument("--trials-factor", type=float, default=8.0)
        sp.add_argument("--seed", type=int, default=None,
                        help="defaults to FVSKIT_SEED, else nondeterministic")
        sp.add_argument("--faithful-coin", action="store_true")
        sp.add_argument("--ic-threshold", type=int, default=8)
        sp.add_argument("--max-k", type=int, default=24)
        sp.add_argument("--jobs", type=int, default=1)

    sp = sub.add_parser("solve", help="decide and report a solution of size <= k")
    sp.add_argument("instance", help="instance path or - for stdin")
    sp.add_argument("-k", type=int, required=True)
    add_solver_flags(sp)
    sp.add_argument("--stats", action="store_true")
    sp.add_argument("--emit-td", metavar="PATH",
                    help="write a tree decomposition of the solved instance")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("verify", help="check a vertex set on an instance")
    sp.add_argument("instance")
    sp.add_argument("--set", required=True, help="comma or space separated 1-indexed ids")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("oracle", help="brute-force minimum (small n only)")
    sp.add_argument("instance")
    sp.add_argument("--limit", type=int, default=MAX_BRUTE_FVS_N)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("gen", help="emit a generated instance")
    sp.add_argument("family", choices=("gnm", "cycle", "cycles", "planted"))
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--m", type=int, default=12)
    sp.add_argument("--lengths", default="3,4,5")
    sp.add_argument("--k", type=int, default=4)
    sp.add_argument("--forest-size", type=int, default=30)
    sp.add_argument("--dbar", type=float, default=3.0)
    sp.add_argument("--simple", action="store_true", help="no loops or parallel edges")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("bench", help="run the built-in suite, write CSV")
    sp.add_argument("--variant", choices=("simple", "mm"), default="simple")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--ic-threshold", type=int, default=8)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=_cmd_bench)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (InstanceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
