#!/usr/bin/env python3
"""Benchmark for apds: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload seq-zipf --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; apds is imported from ./src.
A run makes the workload's inputs from the seed, then runs whole passes
over the workload's operations, one after another in one thread.  Timed
builds of the structures (set-up) come before some passes, and timed loads
of their containers follow passes, dealt evenly over the run.  --seconds
sets the number of passes through the workload's nominal pass time, so a
run makes the same passes on any host.  The host's speed is probed all
along (bench/host.py), and every time is reported at the reference host's
full speed: the median of the scaled samples.
Every answer is checked against an oracle computed without apds, and one
`python -m apds.cli query` process is checked at the end.  The last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run wraps the public entry points of every layer, runs the operations
traced, replays the same operations untraced to measure the tracing
overhead, and reports the per-layer metrics named in BENCHMARK.json; the
full per-layer table is printed and written to
.bench_out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CLI_TIMEOUT_S = 60


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if "_us" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if "bits_per_" in name:
        return "bits"
    if name.endswith(("_per_op", "_per_call", "_per_occ", "rebuilds")):
        return "count"
    return "ratio"


@dataclass
class OpStats:
    passes: list = field(default_factory=list)  # per pass: per-op latencies (s)
    scaled: list = field(default_factory=list)  # the same, times the host's speed factor
    walls: list = field(default_factory=list)  # per pass: wall seconds
    results: list = field(default_factory=list)  # answers of the last pass
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def done(self) -> int:
        return sum(len(p) for p in self.passes)

    def best(self) -> np.ndarray:
        """Each operation's fastest latency over the passes (seconds)."""
        return np.min(np.array(self.passes), axis=0)

    def typical(self) -> np.ndarray:
        """Each operation's median scaled latency over the passes (seconds)."""
        return np.median(np.array(self.scaled), axis=0)


def pass_count(wl, seconds: float) -> int:
    """Passes that ``seconds`` buy at the workload's nominal pass time.  The
    count depends on the arguments alone, so every median is taken over the
    same number of samples on a fast host and on a slow one."""
    return max(1, round(seconds / wl.pass_s))


def evenly(total: int, slots: int) -> list:
    """``total`` events dealt over ``slots`` slots as evenly as integers allow."""
    return [(j + 1) * total // slots - j * total // slots for j in range(slots)]


def run_ops(wl, s, passes: int, tracer=None, into: OpStats | None = None,
            speed=None) -> OpStats:
    """Closed loop: ``passes`` whole passes over the workload's operations,
    one after another; appended to ``into`` when given.  A tracer is
    installed only while the operations of a pass run.  With a ``speed``
    (host.Speed), each latency is also kept times the speed factor probed
    before it."""
    from workloads import Failed

    st = OpStats() if into is None else into
    for _ in range(passes):
        wl.new_pass(s)
        results, lat, scaled = [], [], []
        with tracer.installed() if tracer else contextlib.nullcontext():
            ops = wl.pass_ops(s)  # bound after the wrappers are in place
            start = perf_counter()
            for label, fn, args in ops:
                if tracer is not None:
                    tracer.op = label
                f = speed.now() if speed else 1.0
                t0 = perf_counter()
                try:
                    r = fn(*args)
                except Exception as exc:  # a raising op is a failed op; keep going
                    r = Failed(exc)
                lat.append(perf_counter() - t0)
                scaled.append(lat[-1] * f)
                results.append(r)
        st.walls.append(perf_counter() - start)
        st.passes.append(lat)
        st.scaled.append(scaled)
        st.results = results
        st.failed += wl.check_pass(s, results)
        st.errors += [r for r in results if isinstance(r, Failed)][:3]
    return st


def spec_metrics(kind: str) -> dict:
    """name -> unit of the result line's metrics, from BENCHMARK.json
    (``kind`` is "end_to_end" or "per_layer")."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def timed(fn):
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out




def dump_all(wl, s):
    from apds.container import dump_structure

    return [(dump_structure(obj, fmt), elements)
            for _, obj, elements, fmt in wl.containers(s)]


def load_all(blobs):
    from apds.container import load_structure

    return [load_structure(blob)[0] for blob, _ in blobs]


def timed_loads(blobs) -> tuple[list, list, list]:
    """(seconds per container, the same scaled, loaded objects) of one load
    of every container."""
    from apds.container import load_structure
    from host import scaled_call

    times, scaled, objs = [], [], []
    for blob, _ in blobs:
        dt, sc, (obj, *_) = scaled_call(lambda: load_structure(blob))
        times.append(dt)
        scaled.append(sc)
        objs.append(obj)
    return times, scaled, objs


def check_properties(wl, s, loaded_objs) -> list:
    loaded = wl.with_loaded(loaded_objs)
    props = list(wl.properties(s, loaded))
    k = wl.loaded_check_ops
    if k:
        ops = wl.pass_ops(loaded)[:k]
        results = []
        for _, fn, args in ops:
            try:
                results.append(fn(*args))
            except Exception as exc:  # reported through the property below
                results.append(repr(exc))
        props.append((f"loaded container answers {k} ops as built",
                      wl.check_pass(loaded, results) == 0))
    return props


def run_cli(argv_tail, expected=None) -> tuple[float, bool]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv_tail], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    dt = perf_counter() - t0
    ok = proc.returncode == 0 and (expected is None or proc.stdout == expected)
    if not ok:
        print(f"cli {argv_tail}: exit {proc.returncode}, stdout {proc.stdout[:200]!r}, "
              f"stderr {proc.stderr[-400:]!r}", file=sys.stderr)
    return dt, ok


def cli_check(wl, s, blobs) -> bool:
    """Whether a `python -m apds.cli query` process against the containers of
    this run prints the right answer."""
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    try:
        paths = []
        for i, (blob, _) in enumerate(blobs):
            path = os.path.join(tmp, f"c{i}.apds")
            with open(path, "wb") as fh:
                fh.write(blob)
            paths.append(path)
        argv, expected = wl.cli_query(s, paths)
        return run_cli(["-m", "apds.cli", *argv], expected)[1]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def end_to_end(wl, seconds):
    """Op passes one after another, with the builds and the loads dealt
    evenly between them, so that the samples of every metric are spread
    over the whole run.  Every sample is scaled by the host's speed factor
    and each metric is a median of scaled samples; a load is timed per
    container."""
    from host import Speed, scaled_call

    passes = pass_count(wl, seconds)
    cycles = min(wl.cycles, passes)
    build_at = {j * passes // cycles for j in range(cycles)}
    loads_after = evenly(max(1, round(passes * wl.loads_per_pass)), passes)
    setups, loads, ssetups, sloads = [], [], [], []
    ops = OpStats()
    speed = Speed()
    for j in range(passes):
        if j in build_at:
            for _ in range(wl.builds_per_cycle):
                dt, sc, s = scaled_call(wl.build)
                setups.append(dt)
                ssetups.append(sc)
            blobs = None
        run_ops(wl, s, 1, into=ops, speed=speed)
        if loads_after[j]:
            blobs = blobs or dump_all(wl, s)  # after a pass: dsu-stream dumps its stream
            for _ in range(loads_after[j]):
                times, sc, loaded = timed_loads(blobs)
                loads.append(times)
                sloads.append(sc)
    props = check_properties(wl, s, loaded)
    props.append(("cli answers", cli_check(wl, s, blobs)))
    typical_us = ops.typical() * 1e6
    best_us = ops.best() * 1e6
    bits = sum(8 * len(blob) for blob, _ in blobs) / sum(el for _, el in blobs)
    metrics = {
        "setup_s": float(np.median(ssetups)),
        "load_s": float(np.median(np.array(sloads), axis=0).sum()),
        "ops_per_s": typical_us.size / typical_us.sum() * 1e6,
        "op_us_p50": float(np.median(typical_us)),
        "bits_per_symbol": bits,
    }
    # p99 and the unscaled figures are printed, not reported: see bench/README.md
    print(f"{wl.name}: {len(ops.passes)} passes of {best_us.size} ops, "
          f"op_us_p99 {np.percentile(typical_us, 99):.1f}; unscaled fastest: "
          f"setup_s {min(setups):.4g}, load_s {np.min(np.array(loads), axis=0).sum():.4g}, "
          f"ops_per_s {best_us.size / best_us.sum() * 1e6:.4g}, "
          f"op_us_p50 {np.median(best_us):.4g}; pass walls {[round(x, 3) for x in ops.walls]}")
    return ops, props, {name: (metrics[name], unit)
                        for name, unit in spec_metrics("end_to_end").items()}


def traced(wl, seconds, seed):
    from tracer import Tracer
    from layers import common_metrics

    phase = {name: Tracer() for name in ("build", "ops", "dump", "load")}
    with phase["build"].installed():
        s = wl.build()
    passes = max(2, pass_count(wl, seconds) // 4)  # counts are exact; few passes do
    ops = run_ops(wl, s, passes, tracer=phase["ops"])
    plain = run_ops(wl, s, passes)
    with phase["dump"].installed():
        blobs = dump_all(wl, s)
    with phase["load"].installed():
        load_all(blobs)
    props = check_properties(wl, s, load_all(blobs))
    container_bits = sum(8 * len(blob) for blob, _ in blobs)
    m = common_metrics(phase, ops, container_bits, wl.payload_bits(s))
    m.update(wl.layer_metrics(phase, ops, plain, s))
    m["cli.import_s"] = min(run_cli(["-c", "import apds"])[0] for _ in range(3))
    m["trace.overhead_pct"] = (sum(ops.walls) / sum(plain.walls) - 1.0) * 100.0
    both = OpStats(passes=ops.passes + plain.passes, failed=ops.failed + plain.failed,
                   errors=ops.errors + plain.errors)

    width = max(len(k) for k in m)
    for name, value in m.items():
        print(f"  {name:<{width}}  {value:14.6g} {unit_of(name)}")
    OUT.mkdir(exist_ok=True)
    spans = {p: {name: {"calls": c, "total_s": tot, "self_s": own}
                 for name, (c, tot, own) in sorted(tr.spans.items())}
             for p, tr in phase.items()}
    with open(OUT / f"trace-{wl.name}-seed{seed}.json", "w") as fh:
        json.dump({"workload": wl.name, "seed": seed, "ops": ops.done,
                   "metrics": m, "spans": spans}, fh, indent=1)
    return both, props, {name: (m[name], unit)
                         for name, unit in spec_metrics("per_layer").items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "apds").is_dir():
        print(f"no apds sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    gen_s, wl = timed(lambda: WORKLOADS[args.workload](args.seed))
    print(f"{wl.name}: inputs and oracle made in {gen_s:.2f} s")
    if args.trace:
        ops, props, metrics = traced(wl, args.seconds, args.seed)
    else:
        ops, props, metrics = end_to_end(wl, args.seconds)
    for name, ok in props:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    for err in ops.errors:
        print(f"  failed op: {err!r}", file=sys.stderr)
    print(json.dumps({
        "correct": all(ok for _, ok in props),
        "attempted": ops.done,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
