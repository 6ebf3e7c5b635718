"""Run-compressed permutations with inverse and exponentiation.

A permutation is covered by monotone runs; the run-label strings (by
position and by value) reduce apply/inverse to rank/select on compressed
sequences.  Four run kinds are supported:

  interleaved-general  runs are increasing subsequences (patience cover)
  interleaved-strict   runs change by exactly +-1 (value chains)
  contiguous-general   maximal monotone segments
  contiguous-strict    maximal +-1 segments

Strict layouts replace the value-side label string with per-run records
(minimum, length, direction) plus a predecessor search over the sorted
run minima.  Contiguous-general mirrors the strict layout built for the
inverse permutation; contiguous-strict needs only two predecessor
searches.  Loading a strict layout checks that its run records tile
[1..n].  An optional cycle-marking companion answers pi^k with walks
bounded by twice its sampling step.

A container holds the layout tag, n, the layout and the companion.  The
tag gives the run kind, and load takes the run lengths and directions of
the decomposition from the layout, which keeps them in run order; the
labels, minima and starts of a loaded decomposition are None.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .apseq import ApSequence
from .bits import ByteReader, ByteWriter
from .bitvec import bitvector, read_bitvector
from .errors import InputError, NotFoundError, OutOfRangeError, UnsupportedOperationError
from .stats import h_runs

KINDS = (
    "interleaved-general",
    "interleaved-strict",
    "contiguous-general",
    "contiguous-strict",
)


def _validate_permutation(pi) -> np.ndarray:
    arr = np.asarray(pi, dtype=np.int64)
    if arr.size == 0:
        raise InputError("empty input")
    if not np.array_equal(np.sort(arr), np.arange(1, arr.size + 1)):
        raise InputError("input is not a bijection on [1..n]")
    return arr


@dataclass
class RunDecomposition:
    kind: str
    n: int
    labels: np.ndarray | None  # run id per position, 1..rho; None after load
    lengths: np.ndarray  # per run
    increasing: np.ndarray  # bool per run
    min_values: np.ndarray | None  # minimum value per run; None after load
    starts: np.ndarray | None = None  # first position, contiguous kinds only

    @property
    def rho(self) -> int:
        return int(self.lengths.size)

    def entropy(self) -> float:
        return h_runs(self.lengths)

    def check_entropy_facts(self):
        h = self.entropy()
        if h > math.log2(self.rho) + 1e-12:
            raise AssertionError(f"H(runs) = {h} exceeds lg rho")
        if self.n > 1 and self.n * h < (self.rho - 1) * math.log2(self.n) - 1e-9:
            raise AssertionError(f"n H(runs) = {self.n * h} below (rho - 1) lg n")


def _cover_interleaved_general(arr: np.ndarray):
    """Patience covering into increasing runs: each value goes to the run
    with the largest smaller last element (equivalently, the first
    compatible run in creation order), else opens a run."""
    neg_tops: list[int] = []  # -last per run, ascending = creation order
    labels = np.zeros(arr.size, dtype=np.int64)
    for pos, v in enumerate(arr.tolist()):
        idx = bisect_left(neg_tops, -v)
        if idx == len(neg_tops):
            neg_tops.append(-v)
        else:
            neg_tops[idx] = -v
        labels[pos] = idx + 1
    rho = len(neg_tops)
    lengths = np.bincount(labels, minlength=rho + 1)[1:]
    mins = np.full(rho, arr.size + 1, dtype=np.int64)
    np.minimum.at(mins, labels - 1, arr)
    return labels, lengths, np.ones(rho, dtype=bool), mins


def _cover_interleaved_strict(arr: np.ndarray):
    """Greedy covering into +-1 value chains; a singleton extends either
    way, committed runs keep their direction, earliest run wins ties."""
    tops: dict[int, int] = {}  # current last value -> run index
    direction: list[int] = []  # 0 unset, +1 incrementing, -1 decrementing
    first: list[int] = []
    labels = np.zeros(arr.size, dtype=np.int64)
    for pos, v in enumerate(arr.tolist()):
        up = tops.get(v - 1)
        down = tops.get(v + 1)
        cand = []
        if up is not None and direction[up] >= 0:
            cand.append((up, 1))
        if down is not None and direction[down] <= 0:
            cand.append((down, -1))
        if cand:
            r, d = min(cand)
            direction[r] = d
            del tops[v - d]
        else:
            r = len(direction)
            direction.append(0)
            first.append(v)
        tops[v] = r
        labels[pos] = r + 1
    rho = len(direction)
    lengths = np.bincount(labels, minlength=rho + 1)[1:]
    increasing = np.array([d >= 0 for d in direction])
    mins = np.array(
        [f if direction[r] >= 0 else f - int(lengths[r]) + 1
         for r, f in enumerate(first)],
        dtype=np.int64,
    )
    return labels, lengths, increasing, mins


def _cover_contiguous(arr: np.ndarray, strict: bool):
    """Maximal left-to-right monotone segments (steps +-1 when strict).

    A run takes the direction of its first step and ends before the first
    step that breaks it; that step joins no run.  A run ends where the
    block of equal steps holding its first step ends, so the loop makes
    one iteration per run."""
    n = arr.size
    d = np.diff(arr)
    step = np.where(d > 0, 1, 2)  # 1 up, 2 down, 0 not allowed (strict)
    if strict:
        step[np.abs(d) != 1] = 0
    cuts = np.append(np.flatnonzero(step[1:] != step[:-1]), n - 2)
    block_end = cuts[np.searchsorted(cuts, np.arange(n - 1))] + 1
    steps, ends_at = step.tolist(), block_end.tolist()
    starts, ends = [], []
    s = 0
    while s < n:
        e = s if s == n - 1 or steps[s] == 0 else ends_at[s]
        starts.append(s)
        ends.append(e)
        s = e + 1
    starts, ends = np.array(starts), np.array(ends)
    lengths = ends - starts + 1
    labels = np.repeat(np.arange(1, lengths.size + 1), lengths)
    increasing = arr[ends] >= arr[starts]
    mins = np.minimum(arr[starts], arr[ends])
    return labels, lengths, increasing, mins, starts + 1


def _relabel_by_min(labels, lengths, increasing, mins):
    """Renumber runs in order of minimum element."""
    order = np.argsort(mins, kind="stable")
    remap = np.empty(order.size + 1, dtype=np.int64)
    remap[order + 1] = np.arange(1, order.size + 1)
    return remap[labels], lengths[order], increasing[order], mins[order]


def decompose_runs(pi, kind: str) -> RunDecomposition:
    arr = _validate_permutation(pi)
    if kind not in KINDS:
        raise InputError(f"unknown run kind {kind!r}")
    starts = None
    if kind == "interleaved-general":
        labels, lengths, increasing, mins = _cover_interleaved_general(arr)
    elif kind == "interleaved-strict":
        labels, lengths, increasing, mins = _cover_interleaved_strict(arr)
        labels, lengths, increasing, mins = _relabel_by_min(
            labels, lengths, increasing, mins
        )
    else:
        labels, lengths, increasing, mins, starts = _cover_contiguous(
            arr, strict=(kind == "contiguous-strict")
        )
    dec = RunDecomposition(kind, arr.size, labels, lengths, increasing, mins, starts)
    dec.check_entropy_facts()
    return dec


class PredecessorStructure:
    """Sorted key array; query(x) returns the largest stored key <= x with
    its auxiliary value, found by binary search."""

    def __init__(self, keys, aux, universe: int):
        self.universe = max(1, universe)
        keys = np.asarray(keys, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order].tolist()
        self._aux = np.asarray(aux, dtype=np.int64)[order].tolist()

    def query(self, x: int):
        """(key, aux) of the largest key <= x, or None."""
        if not 1 <= x <= self.universe:
            raise OutOfRangeError(f"query {x} outside universe [1..{self.universe}]")
        idx = bisect_right(self._keys, x) - 1
        return None if idx < 0 else (self._keys[idx], self._aux[idx])


class CycleIndex:
    """Marked elements along permutation cycles with back/forward arrays,
    so pi^k resolves with at most 2*step applications of pi.

    Only the step, the cycle lengths and each cycle's marks are serialized;
    the mark bitvector and each mark's cycle and index come from
    ``_index_marks`` on build and on load."""

    def __init__(self, pi: np.ndarray, step: int):
        if step < 1:
            raise InputError("power step must be >= 1")
        self.step = step
        n = pi.size
        cycle_lengths: list[int] = []
        cycle_marks: list[np.ndarray] = []
        seen = np.zeros(n + 1, dtype=bool)
        for s in range(1, n + 1):  # ascending start = cycle minimum
            if seen[s]:
                continue
            cyc = []
            x = s
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = int(pi[x - 1])
            if len(cyc) >= step:
                cycle_lengths.append(len(cyc))
                cycle_marks.append(np.array(cyc[::step], dtype=np.int64))
        self._index_marks(n, np.array(cycle_lengths, dtype=np.int64), cycle_marks)

    def _index_marks(self, n: int, cycle_lengths: np.ndarray, cycle_marks: list):
        """Set the cycles, the mark bitvector over [1..n] and, in mark
        position order, each mark's cycle id and index within its cycle."""
        self.cycle_lengths = cycle_lengths
        self.cycle_marks = cycle_marks
        sizes = np.array([m.size for m in cycle_marks], dtype=np.int64)
        pos = np.concatenate([np.zeros(0, np.int64), *cycle_marks]) - 1
        order = np.argsort(pos, kind="stable")
        bits = np.zeros(n, dtype=np.uint8)
        bits[pos] = 1
        self.marked = bitvector(bits)
        self.mark_cycle = np.repeat(np.arange(sizes.size), sizes)[order]
        self.mark_index = (np.arange(pos.size) - np.repeat(np.cumsum(sizes) - sizes, sizes))[order]

    def payload_bits(self) -> int:
        w = max(1, (len(self.marked) - 1).bit_length())
        nmarks = self.mark_cycle.size
        return self.marked.payload_bits() + nmarks * 2 * w + nmarks * w

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u64(self.step)
        w.u64_array(self.cycle_lengths.astype(np.uint64))
        w.u64_array(np.concatenate([np.zeros(0, np.int64), *self.cycle_marks]).astype(np.uint64))
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes, n: int) -> "CycleIndex":
        """Load the companion of a permutation of [1..n]."""
        r = ByteReader(data)
        obj = cls.__new__(cls)
        obj.step = r.u64()
        lengths = r.u64_array().astype(np.int64)
        marks = r.u64_array().astype(np.int64)
        sizes = -(-lengths // max(1, obj.step))
        if (obj.step < 1 or lengths.sum() > n or (lengths < obj.step).any()
                or sizes.sum() != marks.size or ((marks < 1) | (marks > n)).any()):
            raise InputError("power companion: cycles and marks differ from their header")
        obj._index_marks(n, lengths, np.split(marks, np.cumsum(sizes))[:-1])
        return obj


# --- storage layouts -------------------------------------------------------


class _InterleavedGeneralLayout:
    def __init__(self, arr: np.ndarray, dec: RunDecomposition):
        labels_by_value = np.zeros(arr.size, dtype=np.int64)
        labels_by_value[arr - 1] = dec.labels  # s'[pi(i)] = s[i]
        self.s = ApSequence(dec.labels)
        self.sprime = ApSequence(labels_by_value)
        self.dirs = bitvector(dec.increasing.astype(np.uint8))

    def apply(self, i: int) -> int:
        r, j = self.s.access_rank(i)
        if not self.dirs.access(r):
            j = self.s.rank(r, len(self.s)) + 1 - j
        return self.sprime.select(r, j)

    def inverse(self, v: int) -> int:
        r, j = self.sprime.access_rank(v)
        if not self.dirs.access(r):
            j = self.sprime.rank(r, len(self.sprime)) + 1 - j
        return self.s.select(r, j)

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """(length, increasing) per run, in run order."""
        return self.s.partition.occ, self.dirs.to_bits().astype(bool)

    def payload_bits(self) -> int:
        return (
            self.s.payload_bits()
            + self.sprime.payload_bits()
            + self.dirs.payload_bits()
        )

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.blob(self.s.serialize())
        w.blob(self.sprime.serialize())
        w.blob(self.dirs.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "_InterleavedGeneralLayout":
        r = ByteReader(data)
        obj = cls.__new__(cls)
        obj.s = ApSequence.deserialize(r.blob())
        obj.sprime = ApSequence.deserialize(r.blob())
        obj.dirs = read_bitvector(ByteReader(r.blob()))
        if obj.s.alphabet_dict is not None or len(obj.dirs) != obj.s.sigma:
            raise InputError("interleaved layout: run directions differ from the label alphabet")
        return obj


def _check_tiling(keys: np.ndarray, lens: np.ndarray, n: int, what: str):
    """Raise InputError unless the intervals [key, key + len - 1], taken in
    the given order, tile [1..n] left to right."""
    if keys.size != lens.size or keys.size == 0 or lens.min() < 1:
        raise InputError(f"{what}: run records are empty or have a length < 1")
    ends = np.cumsum(lens)
    if ends[-1] != n or not np.array_equal(keys, ends - lens + 1):
        raise InputError(f"{what}: run intervals do not tile [1..{n}]")


class _InterleavedStrictLayout:
    """Label string + run records (min, direction) + predecessor search over
    minima; values inside a run are consecutive.  A run's length is its
    label's count in the label string."""

    def __init__(self, arr: np.ndarray, dec: RunDecomposition):
        # runs must be labelled in min-value order; arr is not needed
        self.s = ApSequence(dec.labels)
        self.mins = dec.min_values.astype(np.int64)
        self.lens = self.s.partition.occ
        self.incr = dec.increasing.copy()
        self._build_pred()

    def _build_pred(self):
        self.pred = PredecessorStructure(
            self.mins, np.arange(1, self.mins.size + 1), len(self.s)
        )

    def apply(self, i: int) -> int:
        r, j = self.s.access_rank(i)
        m, l = int(self.mins[r - 1]), int(self.lens[r - 1])
        return m + j - 1 if self.incr[r - 1] else m + l - j

    def inverse(self, v: int) -> int:
        hit = self.pred.query(v)
        if hit is None:
            raise InputError(f"no run minimum is <= {v}")
        m, r = hit
        l = int(self.lens[r - 1])
        j = v - m + 1 if self.incr[r - 1] else m + l - v
        return self.s.select(r, j)

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lens, self.incr

    def payload_bits(self) -> int:
        w = max(1, (len(self.s) - 1).bit_length())
        return self.s.payload_bits() + self.mins.size * (2 * w + 1)

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.blob(self.s.serialize())
        w.u64_array(self.mins.astype(np.uint64))
        w.blob(bitvector(self.incr.astype(np.uint8)).serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "_InterleavedStrictLayout":
        r = ByteReader(data)
        obj = cls.__new__(cls)
        obj.s = ApSequence.deserialize(r.blob())
        obj.mins = r.u64_array().astype(np.int64)
        dirs = read_bitvector(ByteReader(r.blob()))
        obj.incr = dirs.to_bits().astype(bool)
        obj.lens = obj.s.partition.occ
        if obj.s.alphabet_dict is not None or obj.incr.size != obj.s.sigma:
            raise InputError("strict layout: run records differ from the label alphabet")
        _check_tiling(obj.mins, obj.lens, len(obj.s), "strict layout")
        obj._build_pred()
        return obj


class _ContiguousGeneralLayout:
    """Mirror layout: the strict machinery built for the inverse
    permutation, with apply/inverse swapped."""

    def __init__(self, arr: np.ndarray, dec: RunDecomposition):
        # contiguous run [p..q] of pi appears in pi^-1 as the value chain
        # p..q located at positions pi(p)..pi(q), direction preserved
        inv = np.empty_like(arr)
        inv[arr - 1] = np.arange(1, arr.size + 1)
        inner_dec = RunDecomposition(
            kind="interleaved-strict",
            n=arr.size,
            labels=dec.labels[inv - 1],
            lengths=dec.lengths,
            increasing=dec.increasing,
            min_values=dec.starts,  # value of a chain element = pi position
        )
        self.inner = _InterleavedStrictLayout(inv, inner_dec)

    def apply(self, i: int) -> int:
        return self.inner.inverse(i)

    def inverse(self, v: int) -> int:
        return self.inner.apply(v)

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.inner.runs()

    def payload_bits(self) -> int:
        return self.inner.payload_bits()

    def serialize(self) -> bytes:
        return self.inner.serialize()

    @classmethod
    def deserialize(cls, data: bytes) -> "_ContiguousGeneralLayout":
        obj = cls.__new__(cls)
        obj.inner = _InterleavedStrictLayout.deserialize(data)
        return obj


class _ContiguousStrictLayout:
    """Per-run records (start, first value, direction) plus two predecessor
    searches: one keyed by run start position, one keyed by the minimum of
    the run's value interval.  Runs follow each other, so a run's length
    is the gap to the next start."""

    def __init__(self, arr: np.ndarray, dec: RunDecomposition):
        self.n = arr.size
        self.starts = dec.starts.astype(np.int64)
        self.incr = dec.increasing.copy()
        self.pi_start = arr[self.starts - 1].astype(np.int64)
        self._build_preds()

    @property
    def lens(self) -> np.ndarray:
        return np.diff(np.append(self.starts, self.n + 1))

    def _value_minima(self) -> np.ndarray:
        return np.where(self.incr, self.pi_start, self.pi_start - self.lens + 1)

    def _build_preds(self):
        aux = np.arange(1, self.starts.size + 1)
        self.pred_pos = PredecessorStructure(self.starts, aux, self.n)
        self.pred_val = PredecessorStructure(self._value_minima(), aux, self.n)

    def apply(self, i: int) -> int:
        j, r = self.pred_pos.query(i)
        d = i - j
        return int(self.pi_start[r - 1]) + (d if self.incr[r - 1] else -d)

    def inverse(self, v: int) -> int:
        _, r = self.pred_val.query(v)
        j, pv = int(self.starts[r - 1]), int(self.pi_start[r - 1])
        return j + (v - pv if self.incr[r - 1] else pv - v)

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lens, self.incr

    def payload_bits(self) -> int:
        w = max(1, (self.n - 1).bit_length())
        return self.starts.size * (3 * w + 1)

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u64(self.n)
        w.u64_array(self.starts.astype(np.uint64))
        w.u64_array(self.pi_start.astype(np.uint64))
        w.blob(bitvector(self.incr.astype(np.uint8)).serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "_ContiguousStrictLayout":
        r = ByteReader(data)
        obj = cls.__new__(cls)
        obj.n = r.u64()
        obj.starts = r.u64_array().astype(np.int64)
        obj.pi_start = r.u64_array().astype(np.int64)
        dirs = read_bitvector(ByteReader(r.blob()))
        obj.incr = dirs.to_bits().astype(bool)
        if not obj.starts.size == obj.pi_start.size == obj.incr.size:
            raise InputError("contiguous layout: run record arrays differ in size")
        _check_tiling(obj.starts, obj.lens, obj.n, "contiguous layout positions")
        vmin = obj._value_minima()
        order = np.argsort(vmin, kind="stable")
        _check_tiling(vmin[order], obj.lens[order], obj.n, "contiguous layout values")
        obj._build_preds()
        return obj


# one layout per run kind, in KINDS order; a container's layout tag is
# the kind's index in KINDS plus one
_LAYOUTS = (_InterleavedGeneralLayout, _InterleavedStrictLayout,
            _ContiguousGeneralLayout, _ContiguousStrictLayout)


class RunPermutation:
    """A permutation stored through its run decomposition."""

    def __init__(self, layout, decomposition: RunDecomposition, n: int,
                 companion: CycleIndex | None = None):
        self._layout = layout
        self.decomposition = decomposition
        self.n = n
        self.companion = companion
        self.last_power_walk = 0

    @classmethod
    def build(cls, pi, kind: str = "interleaved-general",
              power_step: int | None = None) -> "RunPermutation":
        arr = _validate_permutation(pi)
        dec = decompose_runs(arr, kind)
        return cls.from_decomposition(arr, dec, power_step=power_step)

    @classmethod
    def from_decomposition(cls, pi, dec: RunDecomposition,
                           power_step: int | None = None) -> "RunPermutation":
        arr = _validate_permutation(pi)
        layout = _LAYOUTS[KINDS.index(dec.kind)](arr, dec)
        companion = CycleIndex(arr, power_step) if power_step else None
        return cls(layout, dec, arr.size, companion)

    @property
    def rho(self) -> int:
        return self.decomposition.rho

    def apply(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        return self._layout.apply(i)

    def inverse(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise OutOfRangeError(f"value {v} out of [1..{self.n}]")
        return self._layout.inverse(v)

    def power(self, i: int, k: int) -> int:
        """pi^k(i); negative k is the inverse power.  Walks forward along
        the cycle, jumping through the companion's mark arrays."""
        if self.companion is None:
            raise UnsupportedOperationError(
                "permutation was built without a power companion"
            )
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        self.last_power_walk = 0
        if k == 0:
            return i
        ci = self.companion
        t = ci.step
        visited = [i]
        y = i
        for _ in range(t + 1):
            marked, r = ci.marked.access_rank(y)
            if marked:
                return self._power_from_mark(r, k, len(visited) - 1)
            y = self.apply(y)
            self.last_power_walk += 1
            if y == i:  # unmarked short cycle, fully walked
                L = len(visited)
                return visited[k % L]
            visited.append(y)
        raise AssertionError("mark not found within step bound")

    def _power_from_mark(self, r: int, k: int, d: int) -> int:
        """pi^k of the element d steps before the r-th marked position."""
        ci = self.companion
        t = ci.step
        cid = int(ci.mark_cycle[r - 1])
        idx = int(ci.mark_index[r - 1])
        L = int(ci.cycle_lengths[cid])
        marks = ci.cycle_marks[cid]
        target = (idx * t + (k - d) % L) % L
        q = min(target // t, marks.size - 1)
        y = int(marks[q])
        for _ in range(target - q * t):
            y = self.apply(y)
            self.last_power_walk += 1
        return y

    def payload_bits(self) -> int:
        bits = self._layout.payload_bits()
        if self.companion is not None:
            bits += self.companion.payload_bits()
        return bits

    # --- serialization ----------------------------------------------------------

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u8(KINDS.index(self.decomposition.kind) + 1)
        w.u64(self.n)
        w.blob(self._layout.serialize())
        w.u8(1 if self.companion is not None else 0)
        if self.companion is not None:
            w.blob(self.companion.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "RunPermutation":
        r = ByteReader(data)
        tag = r.u8()
        if not 1 <= tag <= len(_LAYOUTS):
            raise InputError(f"unknown permutation layout tag {tag}")
        n = r.u64()
        layout = _LAYOUTS[tag - 1].deserialize(r.blob())
        lengths, increasing = layout.runs()
        if lengths.sum() != n:
            raise InputError("permutation runs do not cover [1..n]")
        dec = RunDecomposition(KINDS[tag - 1], n, None, lengths, increasing, None)
        companion = CycleIndex.deserialize(r.blob(), n) if r.u8() else None
        return cls(layout, dec, n, companion)


def build_run_permutation(pi, kind: str = "interleaved-general",
                          power_step: int | None = None) -> RunPermutation:
    return RunPermutation.build(pi, kind, power_step)
