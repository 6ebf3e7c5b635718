#!/usr/bin/env python3
"""Compare two result files written by bench/sweep.py.

    python3 bench/compare.py .bench_out/base.jsonl .bench_out/change.jsonl

For every workload and end-to-end metric it prints the median of each
file, the change of the second against the first (positive = worse, by
the metric's direction in BENCHMARK.json) and a verdict:

  ok          worse by no more than the metric's bound (or better)
  REGRESSION  worse by more than the bound
  unresolved  the spread of either file is wider than the bound, so the
              bound cannot be judged, unless every run of the second file
              is better than every run of the first (then: better)

It also compares the share of failed operations, which must not rise.
Exit code 1 when any regression is found.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from sweep import load_results, spread, summarize

ROOT = Path(__file__).resolve().parent.parent


def verdict(base, change, bound: float, lower_is_better: bool) -> tuple[float, str]:
    mb, mc = statistics.median(base), statistics.median(change)
    worse = (mc - mb) / abs(mb) if lower_is_better else (mb - mc) / abs(mb)
    if lower_is_better:
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if max(spread(base), spread(change)) > bound:
        return worse, "better" if all_better else "unresolved"
    return worse, "REGRESSION" if worse > bound else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, change = (summarize(load_results(p)) for p in argv)
    regressions = 0
    print(f"{'workload':<12} {'metric':<16} {'base':>12} {'change':>12} "
          f"{'worse':>8} {'bound':>6}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        if trace:
            continue
        b, c = base[key], change[key]
        for name, m in metrics.items():
            if name not in b or name not in c:
                continue
            worse, v = verdict(b[name], c[name], m["bound"], m["better"] == "lower")
            regressions += v == "REGRESSION"
            print(f"{workload:<12} {name:<16} {statistics.median(b[name]):12.6g} "
                  f"{statistics.median(c[name]):12.6g} {100 * worse:7.2f}% "
                  f"{100 * m['bound']:5.0f}%  {v}")
        fb, fc = statistics.median(b["failed_share"]), statistics.median(c["failed_share"])
        if fc > fb:
            regressions += 1
            print(f"{workload:<12} failed share rose from {fb:.6f} to {fc:.6f}  REGRESSION")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
