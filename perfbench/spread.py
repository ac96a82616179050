"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py --seeds 1-10 [--workloads gnm,cubic]
                                [--traced-seed 1] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time, and
reports per metric the median and the quartile spread (Q3 - Q1 over the
median, quartiles as ``statistics.quantiles(values, n=4)`` gives them)
against the metric's bound in BENCHMARK.json.  ``--traced-seed`` adds one
traced run per workload.  ``--out`` writes every value to a JSON file, the
form of the committed baselines under perfbench/baselines/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec: str) -> List[int]:
    out: List[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_wall_s"] = wall
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--traced-seed", type=int)
    p.add_argument("--out")
    args = p.parse_args()
    seeds = _seeds(args.seeds)
    record: Dict[str, Any] = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        runs = [_run(wl, seed, args.seconds, 0) for seed in seeds]
        entry: Dict[str, Any] = {
            "process_wall_s": [r["process_wall_s"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {},
        }
        ok &= entry["correct"]
        print(f"{wl}: {len(runs)} runs, correct={entry['correct']} "
              f"failed={entry['failed']}/{entry['attempted']} "
              f"longest run {max(entry['process_wall_s']):.1f} s")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            sp = (q3 - q1) / q2 if q2 else float("inf")
            verdict = "ok" if sp <= metric["bound"] / 3 else (
                "within bound" if sp <= metric["bound"] else "OVER BOUND")
            if name != "setup_s" and sp > metric["bound"]:
                ok = False
            entry["metrics"][name] = {"unit": metric["unit"], "values": values,
                                      "q1": q1, "median": q2, "q3": q3, "spread": sp}
            print(f"  {name:22s} median {q2:12.6g} {metric['unit']:5s} spread {sp:7.4f} "
                  f"bound {metric['bound']:.2f}  {verdict}")
        if args.traced_seed is not None:
            traced = _run(wl, args.traced_seed, args.seconds, 1)
            full = json.loads((ROOT / "perfbench" / "out" /
                               f"{wl}-seed{args.traced_seed}-trace1.json").read_text())
            record["environment"] = full["environment"]
            entry["traced"] = {"seed": args.traced_seed, "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                               "counts": full["counts"]}
            ok &= traced["correct"]
            print(f"  traced seed {args.traced_seed}: correct={traced['correct']}")
        record["workloads"][wl] = entry
        if args.out:
            Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
