"""Layered solve benchmark for fvskit.

    python3 perfbench/run.py --workload gnm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the solver is imported from ``src/``.
A run sets up a seeded pool of instances, solves each at k_min (a verified
witness must come back) and at k_min - 1 (infeasible after the whole trial
budget), checks every answer, and prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics of an outside-in trace
(``--trace 1``) as the last line of standard output.  A fuller record -
environment, instance manifest, exact counts, every solve time - goes to
``perfbench/out/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
TAIL_BEYOND = 10   # refute_s.tail has at least this many solves beyond it
WITNESS_TRIM = 0.1  # witness_s.trimmed_mean drops this share at each end
TWIN_EVERY = 3     # trace.overhead also runs 1 in TWIN_EVERY solves untraced


def _import_solver():
    """Import fvskit from this checkout's src/, never from site-packages;
    exits non-zero when the checkout has no solver sources."""
    if "fvskit" in sys.modules:
        return sys.modules["fvskit"]
    src = ROOT / "src"
    if not (src / "fvskit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fvskit sources under {src}")
    sys.path.insert(0, str(src))
    import fvskit

    if Path(fvskit.__file__).resolve().parent != (src / "fvskit").resolve():
        raise SystemExit(f"perfbench: imported fvskit from {fvskit.__file__}, not {src}")
    return fvskit


# ----------------------------------------------------------------------
# environment


def _blas_threads() -> Optional[int]:
    """OpenBLAS thread count of the loaded numpy, when it can be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> Dict[str, Any]:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                             if k in os.environ},
    }


# ----------------------------------------------------------------------
# solving and the answer gate


class Solve:
    """One timed solve and its verdict."""

    __slots__ = ("instance", "kind", "k", "wall_s", "result", "error")

    def __init__(self, instance, kind: str, k: int) -> None:
        self.instance, self.kind, self.k = instance, kind, k
        self.wall_s = 0.0
        self.result = None
        self.error: Optional[str] = None


def _check(fvskit, s: Solve) -> Optional[str]:
    """Independent verdict on a solve's answer; None when it is right."""
    r = s.result
    g = s.instance.graph
    if s.kind == "witness":
        if r.status != "fvs" or r.fvs is None:
            return f"status {r.status!r} at k = k_min"
        if len(r.fvs) > s.k:
            return f"|F| = {len(r.fvs)} > k = {s.k}"
        if not fvskit.oracle.verify_fvs(g, r.fvs):
            return "returned set is not a feedback vertex set"
        return None
    if r.status != "infeasible" or r.fvs is not None:
        return f"status {r.status!r} at k = k_min - 1"
    if r.trials != r.budget:
        return f"infeasible after {r.trials} of {r.budget} trials"
    return None


def _solve_all(fvskit, variant: str, jobs: List[Solve], tracer=None) -> None:
    clock = time.perf_counter
    for s in jobs:
        config = fvskit.SolverConfig(variant=variant, seed=_seed_of(s), jobs=1)
        try:
            if tracer is None:
                t0 = clock()
                s.result = fvskit.solve(s.instance.graph, s.k, config)
                s.wall_s = clock() - t0
            else:
                s.result, s.wall_s = tracer.solve(
                    lambda: fvskit.solve(s.instance.graph, s.k, config))
        except Exception:  # a raising solve is a failed answer, never retried
            s.error = traceback.format_exc(limit=3)
            continue
        s.error = _check(fvskit, s)


def _jobs(instances) -> List[Solve]:
    jobs: List[Solve] = []
    for inst in instances:
        jobs.append(Solve(inst, "witness", inst.k_min))
        jobs.append(Solve(inst, "refute", inst.k_min - 1))
    return jobs


def _seed_of(s: Solve) -> int:
    return s.instance.witness_seed if s.kind == "witness" else s.instance.refute_seed


def _failures(jobs: List[Solve], seed: int) -> List[Dict[str, Any]]:
    return [{"instance": s.instance.index, "kind": s.kind, "k": s.k,
             "solver_seed": _seed_of(s), "benchmark_seed": seed, "error": s.error}
            for s in jobs if s.error is not None]


# ----------------------------------------------------------------------
# metrics


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def tail(values: List[float]) -> Tuple[float, Optional[float]]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    and which percentile that is (None when there are too few samples, in
    which case the maximum is reported)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], None
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def trimmed_mean(values: List[float]) -> float:
    """Mean of the values left after dropping WITNESS_TRIM of them at each
    end."""
    ordered = sorted(values)
    cut = int(len(ordered) * WITNESS_TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(jobs: List[Solve], setup_s: float) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    done = [s for s in jobs if s.result is not None]
    refute = [s.wall_s for s in done if s.kind == "refute"]
    witness = [s.wall_s for s in done if s.kind == "witness"]
    wall = sum(s.wall_s for s in done)
    trials = sum(s.result.trials for s in done)
    tail_s, tail_pct = tail(refute) if refute else (float("nan"), None)
    metrics = {
        "refute_s.p50": _metric(statistics.median(refute) if refute else float("nan"), "s"),
        "refute_s.tail": _metric(tail_s, "s"),
        "witness_s.trimmed_mean": _metric(trimmed_mean(witness) if witness else float("nan"), "s"),
        "trials_per_s": _metric(trials / wall if wall else 0.0, "1/s"),
        "solves_per_s": _metric(len(done) / wall if wall else 0.0, "1/s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed = sum(1 for s in jobs if s.error is not None)
    detail = {
        "refute_solves": len(refute),
        "witness_solves": len(witness),
        "witness_s_mean": statistics.fmean(witness) if witness else None,
        "witness_s_p50": statistics.median(witness) if witness else None,
        "refute_tail_percentile": tail_pct,
        "fail_share": failed / len(jobs) if jobs else 0.0,
        "trials": trials,
        "solve_wall_s": wall,
    }
    return metrics, detail


def stats_mismatches(jobs: List[Solve], per_solve: List[Dict[str, int]]) -> List[str]:
    """Wrapper counts against SolveResult.stats (jobs = 1), per solve."""
    out = []
    pairs = (("decider_calls", "cutcount.decide.calls"),
             ("decider_draws", "cutcount.table.calls"),
             ("decider_accepts", "cutcount.decide.accepts"),
             ("trials", "solver.trials"))
    for s, counts in zip(jobs, per_solve):
        if s.result is None:
            continue
        for stat_key, count_key in pairs:
            want = s.result.trials if stat_key == "trials" else s.result.stats.get(stat_key)
            got = counts.get(count_key)
            if want is None or got is None:
                continue  # the key or the hook is gone: nothing to compare
            if want != got:
                out.append(f"instance {s.instance.index} {s.kind}: {stat_key}={want} "
                           f"but the trace counted {count_key}={got}")
    return out


def per_layer(tracer, jobs: List[Solve], times, overhead: float) -> Tuple[Dict[str, Any], List[str]]:
    """Per-layer metrics of a traced run and the names left out as missing."""
    c = tracer.counts()
    m: Dict[str, Any] = {}
    missing: List[str] = []

    def put(name: str, value: Optional[float], unit: str) -> None:
        if value is None:
            missing.append(name)
        else:
            m[name] = _metric(value, unit)

    def calls(layer: str) -> Optional[int]:
        return c.get(f"{layer}.calls")

    def extra(layer: str, key: str) -> Optional[int]:
        if layer in tracer.missing or layer in tracer.extract_failed:
            return None
        return c.get(f"{layer}.{key}", 0)

    def ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    for layer in ("reductions.reduce_exhaustive", "multigraph.minus", "multigraph.induced",
                  "multigraph.is_forest", "reductions.sample", "solver.fvs_trial",
                  "solver.iterative_compression", "separators.separation"):
        put(f"{layer}.calls", calls(layer), "count")
        put(f"{layer}.self_s", tracer.layer_self_s(layer), "s")
    put("reductions.reduce_exhaustive.vertices_removed",
        extra("reductions.reduce_exhaustive", "vertices_removed"), "count")
    put("reductions.sample.drawn", extra("reductions.sample", "drawn"), "count")

    done = [s for s in jobs if s.result is not None]
    hits = sum(s.result.stats.get("ic_memo_hits", 0) for s in done)
    entries = sum(s.result.stats.get("ic_runs", 0) for s in done)
    put("solver.trials", None if "solver.fvs_trial" in tracer.missing else c["solver.trials"],
        "count")
    put("solver.ic_memo_hits", hits, "count")
    put("solver.ic_memo_hit_ratio", ratio(hits, entries), "ratio")
    put("separators.s_size.mean",
        ratio(extra("separators.separation", "s_size"), calls("separators.separation")),
        "vertices")

    draws = calls("cutcount.table")
    table_s = tracer.layer_self_s("cutcount.table")
    accepts = extra("cutcount.decide", "accepts")
    put("cutcount.draws", draws, "count")
    put("cutcount.accepts", accepts, "count")
    put("cutcount.table.self_s", table_s, "s")
    put("cutcount.table.s_per_draw", ratio(table_s, draws), "s")
    put("cutcount.table.entries.mean", ratio(extra("cutcount.table", "entries"), draws),
        "entries")
    put("cutcount.decide.calls", calls("cutcount.decide"), "count")
    put("cutcount.decide.self_s", tracer.layer_self_s("cutcount.decide"), "s")
    put("cutcount.accept_ratio", ratio(accepts, draws), "ratio")
    put("cutcount.reconstruct_witness.calls", calls("cutcount.reconstruct_witness"), "count")
    put("cutcount.reconstruct_witness.self_s",
        tracer.layer_self_s("cutcount.reconstruct_witness"), "s")
    put("cutcount.reconstruct_witness.decide_calls", extra("cutcount.decide", "probe_calls"),
        "count")
    graph_missing = any(g in tracer.missing for g in ("multigraph.minus", "multigraph.is_forest"))
    put("solver.verify.self_s", None if graph_missing else tracer.verify_ns / 1e9, "s")
    put("oracle.brute_min_fvs.self_s", times.oracle_s, "s")
    put("generate.self_s", times.generate_s, "s")
    put("trace.overhead", overhead, "ratio")
    put("trace.coverage", tracer.coverage(), "ratio")
    return m, missing


# ----------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool,
        pairs: Optional[int] = None) -> Dict[str, Any]:
    """One benchmark run; returns the full record (``result`` is the line
    the contract prints)."""
    fvskit = _import_solver()
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[workload]
    n_pairs = pairs if pairs is not None else workloads.plan_pairs(wl, seconds)
    instances, times = workloads.set_up(wl, seed, n_pairs)
    jobs = _jobs(instances)

    # warm-up outside the measurement: lazy imports and first-call set-up
    first = instances[0]
    fvskit.solve(first.graph, first.k_min,
                 fvskit.SolverConfig(variant=wl.variant, seed=seed, jobs=1))

    record: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "variant": wl.variant, "pairs": len(instances),
        "environment": environment(),
        "setup": {"batch_s": times.batch_s, "candidates": times.candidates,
                  "generate_s": times.generate_s, "oracle_s": times.oracle_s},
    }
    t_run = time.perf_counter()
    if not trace:
        _solve_all(fvskit, wl.variant, jobs)
        metrics, detail = end_to_end(jobs, times.setup_s)
        record.update(detail)
        mismatches: List[str] = []
        missing: List[str] = []
    else:
        tr = tracing.Tracer()
        per_solve: List[Dict[str, int]] = []
        traced_wall = plain_wall = 0.0
        with tr:
            for i, s in enumerate(jobs):
                if i % TWIN_EVERY == 0:
                    # the same solve untraced, right before its traced twin,
                    # so that host drift cancels out of trace.overhead
                    plain = Solve(s.instance, s.kind, s.k)
                    tr.uninstall()
                    try:
                        _solve_all(fvskit, wl.variant, [plain])
                    finally:
                        tr.install()
                before = tr.counts()
                _solve_all(fvskit, wl.variant, [s], tracer=tr)
                after = tr.counts()
                per_solve.append({k: v - before.get(k, 0) for k, v in after.items()})
                if i % TWIN_EVERY == 0:
                    plain_wall += plain.wall_s
                    traced_wall += s.wall_s
        overhead = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
        metrics, missing = per_layer(tr, jobs, times, overhead)
        mismatches = stats_mismatches(jobs, per_solve)
        record["counts"] = tr.counts()
        record["missing_hooks"] = tr.missing
        record["extract_failed"] = tr.extract_failed
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tr.save(str(OUT_DIR / f"spans-{workload}.npz"))
    record["measure_wall_s"] = time.perf_counter() - t_run

    failures = _failures(jobs, seed)
    record["failures"] = failures
    record["stats_mismatches"] = mismatches
    record["missing_metrics"] = missing
    record["instances"] = [inst.manifest() | {
        "witness_budget": w.result.budget if w.result else None,
        "refute_budget": r.result.budget if r.result else None,
    } for inst, w, r in zip(instances, jobs[0::2], jobs[1::2])]
    record["solve_s"] = [[s.instance.index, s.kind, s.wall_s] for s in jobs]
    record["result"] = {
        "correct": not failures and not mismatches,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": metrics,
    }
    return record


def _write_record(record: Dict[str, Any]) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


def _summary(record: Dict[str, Any]) -> str:
    res = record["result"]
    parts = [f"workload={record['workload']}", f"seed={record['seed']}",
             f"pairs={record['pairs']}", f"solves={res['attempted']}",
             f"failed={res['failed']}",
             f"fail_share={res['failed'] / res['attempted']:.4f}",
             f"measure_wall_s={record['measure_wall_s']:.1f}"]
    if "refute_tail_percentile" in record:
        pct = record["refute_tail_percentile"]
        parts.append(f"refute_tail=p{pct:.1f}" if pct is not None else "refute_tail=max")
    if record["stats_mismatches"]:
        parts.append(f"stats_mismatches={len(record['stats_mismatches'])}")
    if record["missing_metrics"]:
        parts.append("missing=" + ",".join(record["missing_metrics"]))
    return "perfbench: " + " ".join(parts)


# ----------------------------------------------------------------------
# self-check


def self_check() -> int:
    """Shape and answers on a tiny seed, never timings: every workload runs
    untraced once and traced twice on three instance pairs."""
    import workloads

    e2e = ("refute_s.p50", "refute_s.tail", "witness_s.trimmed_mean", "trials_per_s",
           "solves_per_s", "setup_s", "peak_rss_mb")
    problems: List[str] = []
    for name in workloads.WORKLOADS:
        before = len(problems)
        plain = run(name, 7, 1.0, trace=False, pairs=3)
        res = plain["result"]
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{name}: result keys {sorted(res)}")
        if sorted(res["metrics"]) != sorted(e2e):
            problems.append(f"{name}: end-to-end metrics {sorted(res['metrics'])}")
        traced = [run(name, 7, 1.0, trace=True, pairs=3) for _ in range(2)]
        for rec in (plain, *traced):
            if not rec["result"]["correct"]:
                problems.append(f"{name} trace={rec['trace']}: failures {rec['failures']} "
                                f"mismatches {rec['stats_mismatches']}")
        if traced[0]["counts"] != traced[1]["counts"]:
            problems.append(f"{name}: counts differ between two traced runs of one seed")
        if traced[0]["missing_metrics"]:
            problems.append(f"{name}: missing per-layer metrics {traced[0]['missing_metrics']}")
        verdict = "ok" if len(problems) == before else "FAILED"
        print(f"perfbench self-check: {name} {verdict}", flush=True)
    for p in problems:
        print("perfbench self-check: " + p, file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    _import_solver()
    if args.self_check:
        return self_check()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = _write_record(record)
    print(_summary(record))
    print(f"perfbench: full record in {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
