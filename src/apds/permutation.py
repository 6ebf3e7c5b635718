"""Run-compressed permutations with inverse and exponentiation.

A permutation pi of [1..n] is covered by rho monotone runs, labelled
1..rho, and stored through two sides: s, the runs by position, and
sprime, the runs by value.  Each side answers access_rank(x) = (r, j),
x being the j-th element of run r on that side, and select(r, j), its
converse.  Then

    pi(i)    = sprime.select(r, j'),  (r, j) = s.access_rank(i)
    pi^-1(v) = s.select(r, j'),       (r, j) = sprime.access_rank(v)

where j' = j in an increasing run and len_r + 1 - j in a decreasing one.
A side is a label string (an ``ApSequence``) where the runs interleave,
or a tiling where each run is an interval of [1..n]: its access_rank is
one predecessor search over the interval starts, its select
start_r + j - 1.  The four run kinds differ only in which side tiles:

  kind                 runs                             s        sprime
  interleaved-general  increasing subsequences          labels   labels
                       (patience cover)
  interleaved-strict   value chains with steps +-1      labels   tiling
  contiguous-general   maximal monotone segments        tiling   labels
  contiguous-strict    maximal +-1 segments             tiling   tiling

A tiling lays its runs out in label order, except the value side of
contiguous-strict, which keeps the runs' value order: contiguous runs are
labelled by position, interleaved-strict runs by value, as they are the
contiguous runs of pi^-1 (see ``decompose_runs``).  A run's interval
start is the sum of the lengths before it, so no run minimum, start or
first value is stored.

A container holds the layout tag (the kind's index in KINDS plus one),
the layout and the power step t (0 if none).  The layout stores its label
strings, in the order s, sprime, and one direction bit per run; the run
lengths are the label strings' symbol counts, so only contiguous-strict,
which has none, stores the lengths and the value order (less one) before
its directions; n is the lengths' sum.  A permutation keeps a run summary
(kind, n, run lengths and directions), which build and load both take
from the layout.  The cover's labels serve only to build the layout.

The power companion is a ``CycleIndex``, the package's one cycle shortcut
(Munro, Raman, Raman & Rao, ICALP 2003): it marks every t-th element of
each cycle of length >= t, in the walk order of ``cycle_order``, so its
``power`` answers pi^k in at most min(|k|, t - 1 + t // 2) steps.  Only t
is stored.  A build makes the companion from the pi it has checked; a
loaded permutation makes it on its first power from ``decode``, a
bijection on any layout that load accepts, so no stored mark can be
wrong.  ``RunPermutation.verify`` checks what a load trusts, the label
strings' sparse levels and permutation classes, in O(n), as the CLI does
before every query.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .apseq import ApSequence
from .bits import ByteReader, ByteWriter, int_param
from .bitvec import bitvector, bitvector_from_positions, load_bitvector
from .chunkseq import _validate_permutation
from .errors import InputError, OutOfRangeError, UnsupportedOperationError
from .stats import h_runs

KINDS = (
    "interleaved-general",
    "interleaved-strict",
    "contiguous-general",
    "contiguous-strict",
)


@dataclass
class RunSummary:
    """What a permutation keeps of its runs: the kind, n, and the length
    and direction of each run, in run order."""

    kind: str
    n: int
    lengths: np.ndarray  # per run
    increasing: np.ndarray  # bool per run

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


@dataclass
class RunDecomposition(RunSummary):
    """A run cover, with what a layout is built from."""

    labels: np.ndarray  # run id per position, 1..rho
    checked: np.ndarray | None = None  # the int64 pi found a bijection, read only


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
    return labels, lengths, np.ones(rho, dtype=bool)


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
    return labels, lengths, arr[ends] >= arr[starts]


def decompose_runs(pi, kind: str) -> RunDecomposition:
    """Cover pi with runs of ``kind``, labelled 1..rho.  Two covers serve
    the four kinds:

      interleaved-general  the patience cover into increasing subsequences
      contiguous-general   the contiguous cover: maximal left-to-right
                           monotone segments of pi
      contiguous-strict    the same, with steps +-1
      interleaved-strict   the contiguous cover of pi^-1, its labels carried
                           back to positions through pi

    A +-1 value chain of pi is a segment of consecutive values whose
    positions are monotone, that is a monotone segment of pi^-1.  So the
    last cover's runs are value intervals, labelled in value order.  Any
    part of a monotone segment is monotone, so the greedy cut, which takes
    the longest run from each start, ends its k-th run no earlier than any
    other cover does: no cover of pi by +-1 value chains has fewer runs."""
    arr = _validate_permutation(pi)
    if kind not in KINDS:
        raise InputError(f"unknown run kind {kind!r}")
    if kind == "interleaved-general":
        labels, lengths, increasing = _cover_interleaved_general(arr)
    elif kind == "interleaved-strict":
        inv = np.empty_like(arr)
        inv[arr - 1] = np.arange(1, arr.size + 1)
        labels, lengths, increasing = _cover_contiguous(inv, strict=False)
        labels = labels[arr - 1]
    else:
        labels, lengths, increasing = _cover_contiguous(arr, strict=(kind == "contiguous-strict"))
    checked = arr.view()  # so that no write through it undoes the check
    checked.flags.writeable = False
    dec = RunDecomposition(kind, arr.size, lengths, increasing, labels, checked)
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


def cycle_order(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk the cycles of the permutation x -> succ[x] of [0..n).  Each
    cycle starts at its least element, and the cycles come in the order of
    those.  Returns every element in walk order, and the cycle lengths.
    Fixed points are found in numpy and inserted by position, never
    walked."""
    is_fixed = succ == np.arange(succ.size)
    nxt, seen = succ.tolist(), bytearray(is_fixed.view(np.uint8))  # fixed: already walked
    order, lengths = [], []
    s = seen.find(0)
    while s >= 0:  # s is the least element not yet walked
        first = len(order)
        while not seen[s]:
            seen[s] = 1
            order.append(s)
            s = nxt[s]
        lengths.append(len(order) - first)
        s = seen.find(0, s)
    order, lengths = np.array(order, dtype=np.int64), np.array(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    # a fixed point, a cycle of one, goes before the walked cycles that start after it
    before = np.searchsorted(order[ends - lengths], fixed := np.flatnonzero(is_fixed))
    at = np.concatenate(([0], ends))[before]  # the walked elements before each fixed point
    return np.insert(order, at, fixed), np.insert(lengths, before, 1)


class CycleIndex:
    """The marks of a permutation of [1..n]: every step-th element of each
    cycle of length >= step, in walk order from the cycle's least element,
    and the walk index over them."""

    def __init__(self, pi: np.ndarray, step: int):
        """Marks and walk index in one pass over pi's cycles; pi is a
        checked permutation, or a layout's decode, which pairs two stable
        argsorts and so is one."""
        self.step = step = int_param(step, "power step")
        order, lengths = cycle_order(pi - 1)
        idx = np.arange(pi.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        keep = lengths >= step
        is_mark = (idx % step == 0) & np.repeat(keep, lengths)
        marks, cycle_lengths = order[is_mark] + 1, lengths[keep]
        sizes = -(-cycle_lengths // step)
        by_pos = np.argsort(marks)
        # memoryviews, as a walk reads them item by item: the marks and the
        # marked cycles' lengths, cycle by cycle; the walk index, that is
        # the mark bitvector over [1..n], each mark's cycle and index in it
        # in position order, and each cycle's first mark
        self.cycle_lengths, self.marks = memoryview(cycle_lengths), memoryview(marks)
        self._walk = (bitvector_from_positions(pi.size, marks[by_pos] - 1),
                      memoryview(np.repeat(np.arange(sizes.size), sizes)[by_pos]),
                      memoryview((idx[is_mark] // step)[by_pos]),
                      memoryview(np.cumsum(sizes) - sizes))

    def power(self, i: int, k: int, forward, backward) -> tuple[int, int]:
        """(pi^k(i), steps) for i in [1..n], given forward = pi and backward
        = pi^-1.  Walks |k| steps (backward if k < 0), or to a mark met
        first, and on from the target's mark before it, or the one after it
        if that is nearer backward: at most min(|k|, step - 1 + step // 2)
        steps."""
        if k == 0:
            return i, 0
        marked, mark_cycle, mark_index, cycle_first = self._walk
        # the target is ahead_of_i steps along the walk
        step, ahead_of_i = (backward, -k) if k < 0 else (forward, k)
        y, visited = i, [i]
        for d in range(self.step):
            bit, r = marked.access_rank(y)
            if bit:  # i is d steps before the mark in walk order
                offset = k - d if step is forward else k + d
                break
            y = step(y)
            if d + 1 == ahead_of_i or y == i:  # at the target, or round an unmarked short cycle
                return y if d + 1 == ahead_of_i else visited[ahead_of_i % (d + 1)], d + 1
            visited.append(y)
        else:
            raise InputError("cycle walk: no mark within the step bound")
        t, cid = self.step, mark_cycle[r - 1]
        length = self.cycle_lengths[cid]
        last = (length - 1) // t  # index of the cycle's last mark
        target = (mark_index[r - 1] * t + offset) % length
        q, ahead = divmod(target, t)
        behind = (length if q == last else (q + 1) * t) - target
        if ahead <= behind:
            step, steps = forward, ahead
        else:
            q, step, steps = (0 if q == last else q + 1), backward, behind
        y = self.marks[cycle_first[cid] + q]
        for _ in range(steps):
            y = step(y)
        return y, d + steps


# --- the two sides ---------------------------------------------------------


def _tiled_sides(kind: str) -> tuple[bool, bool]:
    """Whether the kind's position side and its value side are tilings."""
    return kind.startswith("contiguous"), kind.endswith("strict")


class _Tiling:
    """A side on which every run is an interval of [1..n]: the runs listed
    in ``order`` (labels 1..rho) lie left to right, each as long as its run.
    A run's interval start is the sum of the lengths before it."""

    def __init__(self, lengths: np.ndarray, order: np.ndarray):
        lens = lengths[order - 1]
        starts = np.empty(lengths.size, dtype=np.int64)
        starts[order - 1] = np.cumsum(lens) - lens + 1
        self.order = order
        self.starts = starts.tolist()
        self.pred = PredecessorStructure(starts, np.arange(1, lengths.size + 1),
                                         int(lengths.sum()))

    def access_rank(self, x: int) -> tuple[int, int]:
        start, r = self.pred.query(x)
        return r, x - start + 1

    def select(self, r: int, j: int) -> int:
        return self.starts[r - 1] + j - 1


def _load_labels(data: bytes) -> ApSequence:
    labels = ApSequence.deserialize(data)
    if labels.alphabet_dict is not None:
        raise InputError("run layout: a label string has a general alphabet")
    return labels


class _RunLayout:
    """The runs of a permutation by position (side ``s``) and by value (side
    ``sprime``), each side a label string or a ``_Tiling``, with each run's
    length and direction."""

    def __init__(self, s, sprime, lengths: np.ndarray, increasing: np.ndarray):
        self.s, self.sprime = s, sprime
        self.lengths, self.increasing = lengths, increasing
        # a decreasing run's j-th element on one side is its (len + 1 - j)-th
        # on the other; 0 marks an increasing run
        self._flip = np.where(increasing, 0, lengths + 1).tolist()

    @classmethod
    def build(cls, arr: np.ndarray, dec: RunDecomposition) -> "_RunLayout":
        contiguous, strict = _tiled_sides(dec.kind)
        lengths = np.asarray(dec.lengths, dtype=np.int64)
        labels = np.asarray(dec.labels, dtype=np.int64)
        s = _Tiling(lengths, np.arange(1, lengths.size + 1)) if contiguous else ApSequence(labels)
        by_value = np.empty_like(labels)
        by_value[arr - 1] = labels  # s'[pi(i)] = s[i]
        if not strict:
            sprime = ApSequence(by_value)
        elif contiguous:  # the runs' value order, read off one value of each
            sprime = _Tiling(lengths, np.argsort(arr[np.cumsum(lengths) - lengths]) + 1)
        elif (np.diff(by_value) < 0).any():
            raise InputError("interleaved-strict runs must be labelled in value order")
        else:
            sprime = _Tiling(lengths, np.arange(1, lengths.size + 1))
        return cls(s, sprime, lengths, np.asarray(dec.increasing, dtype=bool))

    def apply(self, i: int) -> int:
        r, j = self.s.access_rank(i)
        if f := self._flip[r - 1]:
            j = f - j
        return self.sprime.select(r, j)

    def inverse(self, v: int) -> int:
        r, j = self.sprime.access_rank(v)
        if f := self._flip[r - 1]:
            j = f - j
        return self.s.select(r, j)

    def payload_bits(self) -> int:
        rho = self.lengths.size
        bits = bitvector(self.increasing.astype(np.uint8)).payload_bits()
        labelled = [x for x in (self.s, self.sprime) if isinstance(x, ApSequence)]
        if not labelled:  # lengths and value order
            n = int(self.lengths.sum())
            bits += rho * (max(1, n.bit_length()) + max(1, (rho - 1).bit_length()))
        return bits + sum(x.payload_bits() for x in labelled)

    def serialize(self) -> bytes:
        w = ByteWriter()
        if isinstance(self.s, _Tiling) and isinstance(self.sprime, _Tiling):
            w.ints(self.lengths)
            w.ints(self.sprime.order - 1)
        for side in (self.s, self.sprime):
            if isinstance(side, ApSequence):
                w.blob(side.serialize())
        w.blob(bitvector(self.increasing.astype(np.uint8)).serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes, kind: str) -> "_RunLayout":
        """Load a layout; raises InputError unless its runs cover [1..n]."""
        contiguous, strict = _tiled_sides(kind)
        with ByteReader(data) as r:
            if contiguous and strict:
                lengths = r.ints().astype(np.int64)
                order = r.ints().astype(np.int64) + 1
                # a Python sum: an int64 one could wrap around below 2**63
                if (lengths.size == 0 or lengths.min() < 1 or sum(lengths.tolist()) >= 1 << 63
                        or not np.array_equal(np.sort(order), np.arange(1, lengths.size + 1))):
                    raise InputError("run layout: lengths do not sum to an int64 n or the "
                                     "value order is not a permutation of the runs")
            s = None if contiguous else _load_labels(r.blob())
            sprime = None if strict else _load_labels(r.blob())
            increasing = load_bitvector(r.blob()).to_bits().astype(bool)
        if s is not None or sprime is not None:
            lengths = (s if s is not None else sprime).partition.occ
            order = np.arange(1, lengths.size + 1)
        if s is not None and sprime is not None and not np.array_equal(
                s.partition.occ, sprime.partition.occ):
            raise InputError("run layout: the label strings count the runs differently")
        if increasing.size != lengths.size:
            raise InputError("run layout: one direction per run expected")
        if s is None:
            s = _Tiling(lengths, np.arange(1, lengths.size + 1))
        if sprime is None:
            sprime = _Tiling(lengths, order)
        return cls(s, sprime, lengths, increasing)


class RunPermutation:
    """A permutation stored through its run decomposition."""

    def __init__(self, layout: _RunLayout, kind: str, power_step: int | None = None,
                 pi: np.ndarray | None = None):
        """Build and load both end here: the run summary comes from the
        layout, whose runs cover [1..n].  A build passes the checked pi,
        from which the power companion is built now; a load passes none,
        and its first power derives the companion from ``decode``."""
        self._layout = layout
        self.n = int(layout.lengths.sum())
        self.decomposition = RunSummary(kind, self.n, layout.lengths, layout.increasing)
        self.power_step = None if power_step is None else int_param(power_step, "power step")
        if (self.power_step or 0) >= 1 << 63:  # stored as a varint
            raise InputError("power step must be < 2**63")
        self.companion = (None if pi is None or power_step is None
                          else CycleIndex(pi, self.power_step))
        self.last_power_walk = 0

    @classmethod
    def build(cls, pi, kind: str = "interleaved-general",
              power_step: int | None = None) -> "RunPermutation":
        dec = decompose_runs(pi, kind)
        return cls.from_decomposition(dec.checked, dec, power_step=power_step)

    @classmethod
    def from_decomposition(cls, pi, dec: RunDecomposition,
                           power_step: int | None = None) -> "RunPermutation":
        arr = pi if pi is dec.checked else _validate_permutation(pi)  # check pi once
        return cls(_RunLayout.build(arr, dec), dec.kind, power_step, arr)

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
        """pi^k(i); negative k is the inverse power: the companion's walk with
        the layout's apply and inverse."""
        if self.power_step is None:
            raise UnsupportedOperationError("permutation was built without a power companion")
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        if self.companion is None:  # a loaded permutation's first power
            self.companion = CycleIndex(self.decode(), self.power_step)
        y, self.last_power_walk = self.companion.power(
            i, k, self._layout.apply, self._layout.inverse)
        return y

    def decode(self) -> np.ndarray:
        """pi as an int64 array, from both sides at once: the positions and
        the values of each run, in run order, pair up, reversed on one side
        in a decreasing run."""
        lay, lens = self._layout, self._layout.lengths
        by_run = [np.argsort(side.decode() if isinstance(side, ApSequence)
                             else np.repeat(side.order, lens[side.order - 1]),
                             kind="stable") for side in (lay.s, lay.sprime)]
        ends = np.cumsum(lens)
        first, last = np.repeat(ends - lens, lens), np.repeat(ends - 1, lens)
        q = np.arange(self.n)
        # the j-th of a decreasing run's positions pairs with its (len + 1 - j)-th value
        down = ~np.repeat(lay.increasing, lens)
        q[down] = (first + last - q)[down]
        pi = np.empty(self.n, dtype=np.int64)
        pi[by_run[0]] = by_run[1][q] + 1
        return pi

    def verify(self):
        """``ApSequence.verify`` of each label-string side: what a load trusts."""
        for side in (self._layout.s, self._layout.sprime):
            if isinstance(side, ApSequence):
                side.verify()

    def payload_bits(self) -> int:
        return self._layout.payload_bits()

    # --- serialization ----------------------------------------------------------

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.uint(KINDS.index(self.decomposition.kind) + 1)
        w.blob(self._layout.serialize())
        w.uint(self.power_step or 0)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "RunPermutation":
        with ByteReader(data) as r:
            tag = r.uint()
            if not 1 <= tag <= len(KINDS):
                raise InputError(f"unknown permutation layout tag {tag}")
            layout = _RunLayout.deserialize(r.blob(), KINDS[tag - 1])
            return cls(layout, KINDS[tag - 1], r.uint() or None)


def build_run_permutation(pi, kind: str = "interleaved-general",
                          power_step: int | None = None) -> RunPermutation:
    return RunPermutation.build(pi, kind, power_step)
