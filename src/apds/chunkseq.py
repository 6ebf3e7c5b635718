"""The store of a class whose members each occur once: a permutation of [1..sigma].

Its sub-sequence is a permutation pi: access(i) = pi(i), access_rank(i) =
(pi(i), 1), rank_a(i) = [pi^-1(a) <= i] and select_a(1) = pi^-1(a).  pi is
packed at t = ceil(lg sigma) bits per value.  pi^-1 walks a's cycle forward
to the element that pi maps to a (Munro, Raman, Raman & Rao, ICALP 2003):
every t-th element of a cycle longer than t, in walk order from its least
element, is marked and points back t steps, so the walk jumps back once, at
the first mark, and applies pi at most 2t + 2 times.  A walk that takes
more, or leaves [1..sigma], raises ``InputError``.  Only sigma, pi, the
marks and the back pointers are serialized (n = sigma, every count is 1);
load checks their sizes, and the walk finds a pi that is not a permutation.
"""

from __future__ import annotations

import numpy as np

from .bits import ByteReader, ByteWriter, get_fixed, pack_fixed, symbol_array, unpack_fixed
from .bitvec import bitvector, load_bitvector
from .errors import InputError, NotFoundError, OutOfRangeError


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


class LargeSequence:
    def __init__(self, seq, alphabet_size: int | None = None):
        arr = symbol_array(seq, alphabet_size)
        n = arr.size  # n values in [1..n], none twice
        if (alphabet_size or n) != n or arr.max() != n or np.bincount(arr).max() > 1:
            raise InputError(f"a LargeSequence stores a permutation of [1..{n}]")
        t = max(1, (n - 1).bit_length())
        order, lengths = cycle_order(arr - 1)
        start = np.repeat(np.cumsum(lengths) - lengths, lengths)
        size = np.repeat(lengths, lengths)
        idx = np.arange(n) - start
        mark = (idx % t == 0) & (size > t)
        pos = order[mark]
        back = order[(start + (idx - t) % size)[mark]][np.argsort(pos)]  # in mark rank order
        self._set(n, pack_fixed(arr - 1, t), bitvector(np.bincount(pos, minlength=n)),
                  pack_fixed(back, t))

    def _set(self, sigma: int, fwd_words, marks, back_words):
        """sigma (= n), the width t, pi's words, the marks, the back pointers
        and memoryviews of the words for get_fixed."""
        self.n = self.sigma = sigma
        self.width = max(1, (sigma - 1).bit_length())
        self._fwd_words, self._marks, self._back_words = fwd_words, marks, back_words
        self._fwd_view, self._back_view = memoryview(fwd_words), memoryview(back_words)

    def _inverse(self, a: int) -> int:
        """The position y with pi(y) = a, via the cycle walk."""
        y, jumped = a, False
        for _ in range(2 * self.width + 2):
            if y > self.sigma:
                break
            if (fy := get_fixed(self._fwd_view, self.width, y - 1) + 1) == a:
                return y
            if not jumped:
                marked, r = self._marks.access_rank(y)
                if marked:
                    y, jumped = get_fixed(self._back_view, self.width, r - 1) + 1, True
                    continue
            y = fy
        raise InputError("cycle walk exceeded its bound: corrupt permutation")

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

    def payload_bits(self) -> int:
        return (self.sigma + self._marks.count(1)) * self.width + self._marks.payload_bits()

    def directory_bits(self) -> int:
        return self._marks.directory_bits()

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.uint(self.sigma)
        w.ints(self._fwd_words)
        w.blob(self._marks.serialize())
        w.ints(self._back_words)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "LargeSequence":
        with ByteReader(data) as r:
            obj = cls.__new__(cls)
            if (sigma := r.uint()) < 1:
                raise InputError("permutation store with an empty alphabet")
            obj._set(sigma, r.ints(), load_bitvector(r.blob()), r.ints())
        if (obj._fwd_words.size != -(-sigma * obj.width // 64) or len(obj._marks) != sigma
                or obj._back_words.size != -(-obj._marks.count(1) * obj.width // 64)):
            raise InputError("permutation or back pointers differ from the header")
        return obj
