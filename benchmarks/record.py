#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the figures.

    python3 benchmarks/record.py --seeds 1-10 --seconds 10 --trace --out benchmarks/records/BENCH_x.json

Each (workload, seed) pair is one fresh ``run.py`` process, run one after
another, seeds in the outer loop so that a slow spell of the machine is
shared among workloads. For every end-to-end metric the summary gives the
median, the first and third quartiles (``statistics.quantiles(n=4)``) and
the spread, (q3 - q1) / median. With ``--trace`` one traced run per
workload follows, on the first seed, and its per-layer metrics, self-time
shares and wrapper-reach report are kept too. The table is printed; the
JSON record, with every run's numbers and diagnostics, goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["diagnostics"] = json.loads(lines[-2][len("diagnostics "):])
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed list such as 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the JSON record here")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = run_once(w, seed, args.seconds, 0)
            runs[w].append({"seed": seed, **res})
            print(f"{w:13s} seed {seed:3d} correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    record: dict = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    print()
    for w in workloads:
        metrics = runs[w][0]["metrics"]
        summary = {
            name: {"unit": metrics[name]["unit"], **summarise([r["metrics"][name]["value"] for r in runs[w]])}
            for name in metrics
        }
        record["workloads"][w] = {"end_to_end": summary, "runs": runs[w]}
        for name, s in summary.items():
            print(f"{w:13s} {name:12s} median {s['median']:10.4g} {s['unit']:4s} "
                  f"q1 {s['q1']:10.4g} q3 {s['q3']:10.4g} spread {s['spread']:.4f}")
    if args.trace:
        for w in workloads:
            res = run_once(w, seeds[0], args.seconds, 1)
            diag = res["diagnostics"]
            record["workloads"][w]["trace"] = {
                "seed": seeds[0],
                "correct": res["correct"],
                "per_layer": {k: v["value"] for k, v in res["metrics"].items()},
                "self_time_shares": diag["self_time_shares"],
                "reach": diag["reach"],
                "pruned_mass": diag["pruned_mass"],
            }
            print(f"{w:13s} traced: correct={res['correct']} reach={diag['reach']} "
                  f"coverage={res['metrics']['trace.root_coverage']['value']:.4f} shares={diag['self_time_shares']}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
