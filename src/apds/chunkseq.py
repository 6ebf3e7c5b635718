"""Rank/select sequences over large alphabets (sigma comparable to n).

The sequence is cut into K chunks of length sigma.  Each chunk stores the
permutation mapping chunk positions to stable-sorted-by-symbol order
(fixed-width ints).  The counts c(k, a) of symbol a in chunk k are kept
twice in ``bitvec``'s unary codec: chunk-major (``_hist``, run k * sigma +
a), whose count_before is a bucket start and count_owner the symbol at a
sorted index; and symbol-major (``_dist``, run (a - 1) * K + k + 1), whose
count_before counts a's occurrences before a chunk and count_owner gives
the chunk of a's j-th occurrence.  The inverse of the in-chunk permutation
is not stored: it is recovered by walking the permutation cycles, with
every step-th element of long cycles marked and given a back pointer,
bounding the walk to ~2*step applications.

The cumulative symbol counts are not serialized: build and load both read
them off the distribution (``_cumulative_counts``).
"""

from __future__ import annotations

import math

import numpy as np

from .bits import ByteReader, ByteWriter, get_fixed, pack_fixed, symbol_array, unpack_fixed
from .bitvec import (bitvector, count_before, count_owner, counts_before, load_bitvector,
                     load_unary_counts, unary_counts)
from .errors import InputError, NotFoundError, OutOfRangeError


def cycle_order(succ: list) -> tuple[np.ndarray, np.ndarray]:
    """Walk the cycles of the permutation x -> succ[x] of [0..n).  Each
    cycle starts at its least element, and the cycles come in the order of
    those.  Returns every element in walk order, and the cycle lengths."""
    seen = bytearray(len(succ))
    order, lengths = [], []
    for s in range(len(succ)):
        x, first = s, len(order)
        while not seen[x]:
            seen[x] = 1
            order.append(x)
            x = succ[x]
        if len(order) > first:
            lengths.append(len(order) - first)
    return np.array(order, dtype=np.int64), np.array(lengths, dtype=np.int64)


class LargeSequence:
    def __init__(self, seq, alphabet_size: int | None = None):
        arr = symbol_array(seq, alphabet_size)
        sigma = int(alphabet_size) if alphabet_size else int(arr.max())
        self.n = arr.size
        self.sigma = sigma
        self.chunks = (self.n + sigma - 1) // sigma
        self.width = max(1, (sigma - 1).bit_length())
        self.step = max(1, math.ceil(math.log2(sigma)) if sigma > 1 else 1)
        self._build(arr)

    # --- construction ---------------------------------------------------------

    def _build(self, arr: np.ndarray):
        n, sigma, K = self.n, self.sigma, self.chunks
        # key k * sigma + a - 1 for symbol a in chunk k: its bincount is the
        # histogram's counts, its stable sort each chunk's sorted order
        key = np.arange(n) // sigma * sigma + arr - 1
        counts = np.bincount(key, minlength=K * sigma)
        fwd = np.empty(n, dtype=np.int64)
        fwd[np.argsort(key, kind="stable")] = np.arange(n) % sigma
        self._hist = unary_counts(counts)
        self._dist = unary_counts(counts.reshape(K, sigma).T.ravel())
        self._cocc = self._cumulative_counts()

        self._set_words(pack_fixed(fwd.astype(np.uint64), self.width),
                        self._build_cycle_marks(fwd))

    def _set_words(self, fwd_words, back_words):
        """The packed permutation and back pointers (serialize and decode
        read the arrays), and memoryviews of them for get_fixed."""
        self._fwd_words, self._back_words = fwd_words, back_words
        self._fwd_view, self._back_view = memoryview(fwd_words), memoryview(back_words)

    def _cumulative_counts(self) -> np.ndarray:
        """Occurrences of the symbols < a, for a = 1..sigma+1: every K-th run's counts_before.
        A copy, as a strided view would keep all K * sigma + 1 counts alive."""
        return counts_before(self._dist)[:: self.chunks].copy()

    def _build_cycle_marks(self, fwd: np.ndarray) -> np.ndarray:
        """Set the cycle marks; return the packed back pointers."""
        # one walk over all chunks, as no cycle leaves its chunk
        n, sigma, t = self.n, self.sigma, self.step
        order, lengths = cycle_order((np.arange(n) // sigma * sigma + fwd).tolist())
        start = np.repeat(np.cumsum(lengths) - lengths, lengths)
        size = np.repeat(lengths, lengths)
        idx = np.arange(n) - start
        mark = (idx % t == 0) & (size > t)
        pos = order[mark]
        back = order[(start + (idx - t) % size)[mark]] % sigma
        self._marks = bitvector(np.bincount(pos, minlength=n))
        # back pointers must align with mark rank, i.e. mark position order
        return pack_fixed(back[np.argsort(pos)].astype(np.uint64), self.width)

    # --- low-level accessors ----------------------------------------------------

    def _chunk_of(self, i: int):
        k0 = (i - 1) // self.sigma
        return k0, i - k0 * self.sigma

    def _forward(self, k0: int, p: int) -> int:
        """Sorted-order index (1-based) of in-chunk position p."""
        return get_fixed(self._fwd_view, self.width, k0 * self.sigma + p - 1) + 1

    def _inverse(self, k0: int, q: int) -> int:
        """In-chunk position p with forward(p) == q, via the cycle walk."""
        base = k0 * self.sigma
        y = q
        jumped = False
        for _ in range(2 * self.step + 2):
            fy = self._forward(k0, y)
            if fy == q:
                return y
            if not jumped:
                marked, r = self._marks.access_rank(base + y)
                if marked:
                    y = get_fixed(self._back_view, self.width, r - 1) + 1
                    jumped = True
                    continue
            y = fy
        raise InputError("cycle walk exceeded its bound: corrupt in-chunk permutation")

    def _bucket_start(self, k0: int, a: int) -> int:
        """Elements with symbol < a in chunk k0, for a = 1..sigma+1; the
        chunks before it are full, so k0 * sigma elements precede it."""
        return count_before(self._hist, k0 * self.sigma + a) - k0 * self.sigma

    def _count_before_chunk(self, a: int, k0: int) -> int:
        """Occurrences of a in chunks [0..k0)."""
        if k0 == 0:
            return 0
        return count_before(self._dist, (a - 1) * self.chunks + k0 + 1) - int(self._cocc[a - 1])

    # --- queries -----------------------------------------------------------------

    def __len__(self):
        return self.n

    def occurrences(self, a: int) -> int:
        if not 1 <= a <= self.sigma:
            return 0
        return int(self._cocc[a] - self._cocc[a - 1])

    def symbol_counts(self) -> np.ndarray:
        """Occurrences of symbols 1..sigma, as one array."""
        return np.diff(self._cocc)

    def _access_in_chunk(self, i: int):
        """(chunk k0, sorted-order index q of position i, symbol at i)."""
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        k0, p = self._chunk_of(i)
        q = self._forward(k0, p)
        return k0, q, count_owner(self._hist, k0 * self.sigma + q) - k0 * self.sigma

    def access(self, i: int) -> int:
        return self._access_in_chunk(i)[2]

    def access_rank(self, i: int) -> tuple[int, int]:
        """(symbol a at i, rank_a(i)).  The in-chunk sort is stable, so
        position i is the (q - bucket start)-th a of its chunk."""
        k0, q, a = self._access_in_chunk(i)
        return a, self._count_before_chunk(a, k0) + q - self._bucket_start(k0, a)

    def rank(self, a: int, i: int) -> int:
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.n}]")
        if i == 0 or not 1 <= a <= self.sigma:
            return 0
        k0, p = self._chunk_of(i)
        s = self._bucket_start(k0, a)
        c = self._bucket_start(k0, a + 1) - s
        lo, hi = 0, c
        while lo < hi:  # largest j with position of j-th bucket element <= p
            mid = (lo + hi + 1) // 2
            if self._inverse(k0, s + mid) <= p:
                lo = mid
            else:
                hi = mid - 1
        return self._count_before_chunk(a, k0) + lo

    def select(self, a: int, j: int) -> int:
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        if j > self.occurrences(a):  # 0 for a symbol outside [1..sigma]
            raise NotFoundError(f"fewer than {j} occurrences of symbol {a}")
        k0 = count_owner(self._dist, int(self._cocc[a - 1]) + j) - (a - 1) * self.chunks - 1
        j_within = j - self._count_before_chunk(a, k0)
        q = self._bucket_start(k0, a) + j_within
        return k0 * self.sigma + self._inverse(k0, q)

    def decode(self) -> np.ndarray:
        """Reconstruct the whole sequence in one vectorized pass."""
        fwd = unpack_fixed(self._fwd_words, self.width, self.n).astype(np.int64)
        # every chunk's symbols in sorted order, chunk after chunk
        runs = np.arange(self.chunks * self.sigma)
        sorted_syms = np.repeat(runs % self.sigma + 1, np.diff(counts_before(self._hist)))
        return sorted_syms[np.arange(self.n) // self.sigma * self.sigma + fwd]

    # --- space accounting -----------------------------------------------------

    def payload_bits(self) -> int:
        return (
            self.n * self.width
            + self._hist.payload_bits()
            + self._dist.payload_bits()
            + self._marks.payload_bits()
            + self._marks.count(1) * self.width
        )

    def directory_bits(self) -> int:
        return (
            self._hist.directory_bits()
            + self._dist.directory_bits()
            + self._marks.directory_bits()
            + (self.sigma + 1) * 64
        )

    def per_chunk_overhead_bits(self) -> int:
        # the ones of the histogram and the distribution
        return 2 * (self.chunks * self.sigma + 1)

    # --- serialization -----------------------------------------------------------

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.uint(self.n)
        w.uint(self.sigma)
        w.ints(self._fwd_words)
        w.blob(self._hist.serialize())
        w.blob(self._dist.serialize())
        w.blob(self._marks.serialize())
        w.ints(self._back_words)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "LargeSequence":
        with ByteReader(data) as r:
            obj = cls.__new__(cls)
            obj.n = r.uint()
            obj.sigma = r.uint()
            if obj.sigma < 1 or obj.n < 1:
                raise InputError("large-alphabet store with an empty alphabet or sequence")
            obj.chunks = (obj.n + obj.sigma - 1) // obj.sigma
            obj.width = max(1, (obj.sigma - 1).bit_length())
            obj.step = max(1, math.ceil(math.log2(obj.sigma)) if obj.sigma > 1 else 1)
            fwd_words = r.ints()
            obj._hist = load_unary_counts(r.blob(), obj.n, obj.chunks * obj.sigma)
            obj._dist = load_unary_counts(r.blob(), obj.n, obj.chunks * obj.sigma)
            obj._cocc = obj._cumulative_counts()
            obj._marks = load_bitvector(r.blob())
            obj._set_words(fwd_words, r.ints())
        if (obj._fwd_words.size != -(-obj.n * obj.width // 64) or len(obj._marks) != obj.n
                or obj._back_words.size != -(-obj._marks.count(1) * obj.width // 64)):
            raise InputError("in-chunk permutation or back pointers differ from the header")
        return obj
