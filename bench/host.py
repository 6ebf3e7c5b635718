"""The host's speed during a run, measured by a fixed probe loop.

The host this benchmark was written on is shared with other machines' work,
and its speed changes by up to 1.7x in phases of seconds to minutes; some
phases cover whole runs.  A probe is a short fixed loop of the kind apds runs
(numpy scalar reads, shifts and a dict store) that uses no apds code.  Its
time at full speed on the reference host is REF_S; at any moment the host's
speed factor is REF_S divided by the probe's time then.  A timing multiplied
by the factor measured right next to it is the time the same work takes on
the reference host at full speed.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

REF_S = 2.0e-4  # fastest probe on the reference host (2-core Xeon at 2.0 GHz)
EVERY_S = 0.05  # during op passes, probe again after this much time

_WORDS = np.arange(1, 4097, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def _probe_once() -> float:
    words, acc, seen = _WORDS, 0, {}
    t0 = perf_counter()
    for i in range(500):
        w, off = divmod(i * 13, 64)
        acc ^= (int(words[w]) >> off) & 0xFFFF
        seen[i & 255] = acc
    return perf_counter() - t0


def factor() -> float:
    """The host's speed factor now: fastest of three probes."""
    return REF_S / min(_probe_once(), _probe_once(), _probe_once())


class Speed:
    """The speed factor during op passes, probed again every EVERY_S."""

    def __init__(self):
        self.at = -1.0
        self.value = 1.0

    def now(self) -> float:
        if perf_counter() - self.at > EVERY_S:
            self.value = factor()
            self.at = perf_counter()
        return self.value


TICK_S = 0.05  # during a timed build or load, probe on a timer this often


def scaled_call(fn):
    """(seconds, scaled seconds, result) of ``fn()``.

    A timer interrupts the call every TICK_S to run a probe.  The probes'
    own time is taken out of both figures; each stretch of the call between
    probes is scaled by the mean of the factors at its two ends."""
    marks = []  # (probe start, probe end, factor)

    def tick(signum, frame):
        t0 = perf_counter()
        f = factor()
        marks.append((t0, perf_counter(), f))

    f0 = factor()
    old = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        a = perf_counter()
        out = fn()
        b = perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    edges = [(a, a, f0)] + [m for m in marks if m[0] <= b] + [(b, b, factor())]
    raw = scaled = 0.0
    for (_, end, fa), (start, _, fb) in zip(edges, edges[1:]):
        raw += start - end
        scaled += (start - end) * (fa + fb) / 2
    return raw, scaled, out
