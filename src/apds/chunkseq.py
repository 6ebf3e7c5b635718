"""The permutation layer: the bijection check, the cycle order, the cycle
shortcut and the store of a permutation class.  ``_validate_permutation``
is the one check that pi is a bijection on [1..n], ``cycle_order`` the one
walk over a permutation's cycles.

``CycleIndex`` is the cycle shortcut of Munro, Raman, Raman & Rao (ICALP
2003), the only one in the package: every step-th element of each cycle of
length >= step, in walk order from the cycle's least element (the order of
``cycle_order``), is marked, so ``power`` resolves pi^k in O(step) steps.
It serializes the step, the cycle lengths and the marks, and derives its
walk index on the first walk.  A load checks sizes only; ``verify`` checks
the marks in O(n).  ``RunPermutation``'s power companion is a CycleIndex.

``LargeSequence`` stores a class whose members each occur once, a
permutation pi of [1..sigma]: access(i) = pi(i), rank_a(i) = [pi^-1(a) <=
i] and select_a(1) = pi^-1(a).  It serializes sigma, pi at t = ceil(lg
sigma) bits per value and a ``CycleIndex`` of step t.  pi^-1(a) is
``power(a, -1, pi)``, and its answer y stands only if pi(y) = a, so a
corrupt store ends in ``InputError``, never in a wrong rank or select.

The module keeps its name because the benchmark's tracer wraps
``chunkseq.LargeSequence`` and ``chunkseq.get_fixed`` by name.
"""

from __future__ import annotations

import numpy as np

from .bits import (ByteReader, ByteWriter, get_fixed, int_param, pack_fixed, symbol_array,
                   unpack_fixed)
from .bitvec import bitvector_from_positions
from .errors import InputError, NotFoundError, OutOfRangeError


def _validate_permutation(pi) -> np.ndarray:
    """pi as an int64 array, unless it is not a bijection on [1..n]."""
    arr = symbol_array(pi)
    if arr.max() > arr.size or np.bincount(arr).max() > 1:
        raise InputError("not a permutation (a bijection on [1..n])")
    return arr


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
    cycle of length >= step, in walk order from the cycle's least element."""

    def __init__(self, pi: np.ndarray, step: int):
        step = int_param(step, "power step")
        order, lengths = cycle_order(pi - 1)
        idx = np.arange(pi.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        keep = lengths >= step
        self._set(pi.size, step, lengths[keep],
                  order[(idx % step == 0) & np.repeat(keep, lengths)] + 1)

    def _set(self, n: int, step: int, cycle_lengths: np.ndarray, marks: np.ndarray):
        """The marked cycles' lengths and their marks, ceil(length / step) each,
        cycle by cycle, as memoryviews: a walk reads them item by item."""
        self.n, self.step = n, step
        self.cycle_lengths, self.marks = memoryview(cycle_lengths), memoryview(marks)
        self._walk = None  # the walk index, derived on the first walk

    def _derive_walk(self):
        """Set and return the walk index: (mark bitvector over [1..n], each
        mark's cycle and index in it, in position order, each cycle's first
        mark).  Refuses a mark stored twice."""
        sizes = -(-np.asarray(self.cycle_lengths) // self.step)
        first = np.cumsum(sizes) - sizes
        order = np.argsort(marks := np.asarray(self.marks), kind="stable")
        if (np.diff(pos := marks[order] - 1) == 0).any():
            raise InputError("cycle index: a mark is stored twice")
        self._walk = (bitvector_from_positions(self.n, pos),
                      memoryview(np.repeat(np.arange(sizes.size), sizes)[order]),
                      memoryview((np.arange(pos.size) - np.repeat(first, sizes))[order]),
                      memoryview(first))
        return self._walk

    @property
    def marked(self):
        """The mark bitvector over [1..n]."""
        return (self._walk or self._derive_walk())[0]

    def power(self, i: int, k: int, forward, backward=None) -> tuple[int, int]:
        """(pi^k(i), steps) for i in [1..n], given forward = pi and maybe
        backward = pi^-1.  Walks |k| steps (backward if k < 0 and it can), or
        to a mark met first, and on from the target's mark before it, or the
        one after it if that is nearer backward: at most min(|k|, step - 1 +
        step // 2) steps with backward, 2 step - 2 without.  Trusts the marks."""
        if k == 0:
            return i, 0
        marked, mark_cycle, mark_index, cycle_first = self._walk or self._derive_walk()
        # the target is ahead_of_i steps along the walk
        step, ahead_of_i = (backward, -k) if k < 0 and backward is not None else (forward, k)
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
        if backward is None or ahead <= behind:
            step, steps = forward, ahead
        else:
            q, step, steps = (0 if q == last else q + 1), backward, behind
        y = self.marks[cycle_first[cid] + q]
        for _ in range(steps):
            y = step(y)
        return y, d + steps

    def verify(self, pi: np.ndarray, what: str = "cycle index"):
        """Raise InputError, naming ``what``, unless pi's cycles give these marks."""
        want = CycleIndex(pi, self.step)
        if not (np.array_equal(want.cycle_lengths, self.cycle_lengths)
                and np.array_equal(want.marks, self.marks)):
            raise InputError(f"{what}: its cycles or marks differ from the permutation's")

    def payload_bits(self) -> int:
        """Each marked cycle's length and each mark, at the bit length of n."""
        return (len(self.cycle_lengths) + len(self.marks)) * self.n.bit_length()

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.uint(self.step)
        w.ints(self.cycle_lengths)
        w.ints(np.asarray(self.marks) - 1)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes, n: int) -> "CycleIndex":
        """Load the cycle index of a permutation of [1..n]."""
        with ByteReader(data) as r:
            step = r.uint()
            lengths = r.ints().astype(np.int64)
            marks = r.ints().astype(np.int64) + 1
        sizes = -(-lengths // max(1, step))
        if (step < 1 or lengths.sum() > n or (lengths < step).any()
                or sizes.sum() != marks.size or ((marks < 1) | (marks > n)).any()):
            raise InputError("cycle index: cycles and marks differ from the header")
        obj = cls.__new__(cls)
        obj._set(n, step, lengths, marks)
        return obj


class LargeSequence:
    def __init__(self, seq, alphabet_size: int | None = None):
        arr = _validate_permutation(symbol_array(seq, alphabet_size))
        n = arr.size  # n values in [1..n], none twice
        if (alphabet_size or n) != n:
            raise InputError(f"a LargeSequence stores a permutation of [1..{n}]")
        width = max(1, (n - 1).bit_length())
        self._set(n, pack_fixed(arr - 1, width), CycleIndex(arr, width))

    def _set(self, sigma: int, fwd_words, cycles: CycleIndex):
        """sigma (= n), the width t, pi's words and the cycle index of step t."""
        self.n = self.sigma = sigma
        self.width = max(1, (sigma - 1).bit_length())
        self._fwd_words, self._fwd_view, self._cycles = fwd_words, memoryview(fwd_words), cycles

    def _apply(self, y: int) -> int:
        if (a := get_fixed(self._fwd_view, self.width, y - 1) + 1) > self.sigma:
            raise InputError(f"permutation value {a} past {self.sigma}: corrupt store")
        return a

    def _inverse(self, a: int) -> int:
        """pi^-1(a): a at a fixed point (all of an identity class), else a walk."""
        if get_fixed(self._fwd_view, self.width, a - 1) + 1 == a:
            return a
        y = self._cycles.power(a, -1, self._apply)[0]
        if self._apply(y) != a:
            raise InputError("cycle walk: pi of its answer is not the symbol: corrupt permutation")
        return y

    def __len__(self):
        return self.sigma

    def symbol_counts(self) -> np.ndarray:
        return np.ones(self.sigma, dtype=np.int64)

    def access(self, i: int) -> int:
        if not 1 <= i <= self.sigma:
            raise OutOfRangeError(f"position {i} out of [1..{self.sigma}]")
        if (a := get_fixed(self._fwd_view, self.width, i - 1) + 1) > self.sigma:
            raise InputError(f"permutation value {a} past {self.sigma}: corrupt store")
        return a

    def access_rank(self, i: int) -> tuple[int, int]:
        return self.access(i), 1

    def rank(self, a: int, i: int) -> int:
        if not 0 <= i <= self.sigma:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.sigma}]")
        return 1 if i and 1 <= a <= self.sigma and self._inverse(a) <= i else 0

    def select(self, a: int, j: int) -> int:
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        if j > 1 or not 1 <= a <= self.sigma:
            raise NotFoundError(f"fewer than {j} occurrences of symbol {a}")
        return self._inverse(a)

    def decode(self) -> np.ndarray:
        out = unpack_fixed(self._fwd_words, self.width, self.sigma).astype(np.int64) + 1
        if out.max() > self.sigma:
            raise InputError(f"permutation value past {self.sigma}: corrupt store")
        return out

    def verify(self):
        """Raise InputError unless pi is a permutation with these cycle marks."""
        self._cycles.verify(_validate_permutation(self.decode()))

    def payload_bits(self) -> int:
        return self.sigma * self.width + self._cycles.payload_bits()

    def directory_bits(self) -> int:
        return 0  # the walk index is derived on the first walk, and not counted

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.uint(self.sigma)
        w.ints(self._fwd_words)
        w.blob(self._cycles.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "LargeSequence":
        with ByteReader(data) as r:
            if (sigma := r.uint()) < 1:
                raise InputError("permutation store with an empty alphabet")
            words = r.ints()
            cycles = CycleIndex.deserialize(r.blob(), sigma)
        obj = cls.__new__(cls)
        obj._set(sigma, words, cycles)
        if words.size != -(-sigma * obj.width // 64) or cycles.step != obj.width:
            raise InputError("permutation words or cycle step differ from the header")
        return obj
