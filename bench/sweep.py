#!/usr/bin/env python3
"""Run bench/run.py over several workloads and seeds, one process at a time.

    python3 bench/sweep.py --seeds 1-10 --out .bench_out/base.jsonl
    python3 bench/sweep.py --workloads fm-text --seeds 1-5 --trace 1 --out t.jsonl

Each result line of run.py is appended to --out as one JSON line with its
workload, seed and trace flag.  At the end the median of every metric and
its spread (distance between first and third quartile, as a share of the
median) are printed per workload.  Every run lasts BENCHMARK.json's
run_seconds, so any two result files compare like with like;
bench/compare.py compares them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def load_results(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(rows) -> dict:
    """(workload, trace) -> metric -> list of values, plus failure shares."""
    out = {}
    for row in rows:
        key = (row["workload"], row["trace"])
        metrics = out.setdefault(key, {})
        res = row["result"]
        for name, m in res["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
        metrics.setdefault("failed_share", []).append(res["failed"] / res["attempted"])
    return out


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    rows = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            row = {"workload": workload, "seed": seed, "trace": args.trace,
                   "result": result}
            rows.append(row)
            with open(args.out, "a") as fh:
                fh.write(json.dumps(row) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    for (workload, trace), metrics in summarize(rows).items():
        print(f"\n{workload} (trace {trace}, {len(parse_seeds(args.seeds))} runs)")
        for name, values in metrics.items():
            print(f"  {name:<36} median {statistics.median(values):14.6g}  "
                  f"spread {100 * spread(values):6.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
