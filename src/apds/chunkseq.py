"""Rank/select sequences over large alphabets (sigma comparable to n).

The sequence is cut into chunks of length sigma.  Each chunk stores the
permutation mapping chunk positions to stable-sorted-by-symbol order
(fixed-width ints) plus a unary occurrence histogram; a per-symbol unary
chunk distribution locates occurrences across chunks.  The inverse of the
in-chunk permutation is not stored: it is recovered by walking the
permutation cycles, with every step-th element of long cycles marked and
given a back pointer, bounding the walk to ~2*step applications.

The cumulative symbol counts are not serialized: build and load both read
them off the chunk distribution bitvector (``_cumulative_counts``).
"""

from __future__ import annotations

import math

import numpy as np

from .bits import ByteReader, ByteWriter, get_fixed, pack_fixed
from .bitvec import bitvector, read_bitvector
from .errors import InputError, NotFoundError, OutOfRangeError


class LargeSequence:
    def __init__(self, seq, alphabet_size: int | None = None):
        arr = np.asarray(seq, dtype=np.int64)
        if arr.size == 0:
            raise InputError("cannot build a sequence from empty input")
        if arr.min() < 1:
            raise InputError("symbols must be positive integers")
        sigma = int(alphabet_size) if alphabet_size else int(arr.max())
        if arr.max() > sigma:
            raise InputError("symbol exceeds declared alphabet size")
        self.n = arr.size
        self.sigma = sigma
        self.chunks = (self.n + sigma - 1) // sigma
        self.width = max(1, (sigma - 1).bit_length())
        self.step = max(1, math.ceil(math.log2(sigma)) if sigma > 1 else 1)
        self._build(arr)

    # --- construction ---------------------------------------------------------

    def _build(self, arr: np.ndarray):
        n, sigma, K = self.n, self.sigma, self.chunks
        counts = np.zeros((K, sigma), dtype=np.int64)  # per chunk histogram
        chunk_idx = np.arange(n) // sigma
        np.add.at(counts, (chunk_idx, arr - 1), 1)

        # forward permutation per chunk: position -> stable sorted order
        fwd = np.empty(n, dtype=np.int64)
        for k0 in range(K):
            lo, hi = k0 * sigma, min((k0 + 1) * sigma, n)
            order = np.argsort(arr[lo:hi], kind="stable")  # sorted idx -> pos
            fwd[lo:hi][order] = np.arange(hi - lo)
        self._fwd_words = pack_fixed(fwd.astype(np.uint64), self.width)

        # unary histograms, one run of ones per symbol per chunk
        reps = np.empty(2 * K * sigma, dtype=np.int64)
        reps[0::2] = counts.ravel()
        reps[1::2] = 1
        self._hist = bitvector(np.repeat(np.tile([1, 0], K * sigma), reps))

        # per-symbol chunk distributions, zeros are occurrences
        repsd = np.empty(2 * K * sigma, dtype=np.int64)
        repsd[0::2] = counts.T.ravel()
        repsd[1::2] = 1
        self._dist = bitvector(np.repeat(np.tile([0, 1], K * sigma), repsd))
        self._cocc = self._cumulative_counts()

        self._build_cycle_marks(fwd)

    def _cumulative_counts(self) -> np.ndarray:
        """Occurrences of the symbols < a, for a = 1..sigma+1: the zeros of
        ``_dist`` before its (a-1)*K-th one, K the chunk count."""
        K = self.chunks
        ends = self._dist.ones()[K - 1 :: K]
        return np.concatenate([[0], ends - np.arange(K - 1, K * self.sigma, K)])

    def _build_cycle_marks(self, fwd: np.ndarray):
        n, sigma, K, t = self.n, self.sigma, self.chunks, self.step
        marks = np.zeros(n, dtype=np.uint8)
        mark_pos, back = [], []
        for k0 in range(K):
            lo = k0 * sigma
            L = min(sigma, n - lo)
            f = fwd[lo : lo + L]
            seen = np.zeros(L, dtype=bool)
            for s in range(L):  # ascending start = cycle minimum
                if seen[s]:
                    continue
                cyc = []
                x = s
                while not seen[x]:
                    seen[x] = True
                    cyc.append(x)
                    x = int(f[x])
                if len(cyc) > t:
                    for o in range(0, len(cyc), t):
                        marks[lo + cyc[o]] = 1
                        mark_pos.append(lo + cyc[o])
                        back.append(cyc[(o - t) % len(cyc)])
        self._marks = bitvector(marks)
        # back pointers must align with mark rank, i.e. mark position order
        order = np.argsort(np.asarray(mark_pos, dtype=np.int64), kind="stable")
        backarr = np.asarray(back, dtype=np.uint64)[order] if back else np.zeros(0, np.uint64)
        self._back_words = pack_fixed(backarr, self.width)

    # --- low-level accessors ----------------------------------------------------

    def _chunk_of(self, i: int):
        k0 = (i - 1) // self.sigma
        return k0, i - k0 * self.sigma

    def _chunk_len(self, k0: int) -> int:
        return min(self.sigma, self.n - k0 * self.sigma)

    def _forward(self, k0: int, p: int) -> int:
        """Sorted-order index (1-based) of in-chunk position p."""
        return get_fixed(self._fwd_words, self.width, k0 * self.sigma + p - 1) + 1

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
                    y = get_fixed(self._back_words, self.width, r - 1) + 1
                    jumped = True
                    continue
            y = fy
        raise InputError("cycle walk exceeded its bound: corrupt in-chunk permutation")

    def _bucket_start(self, k0: int, a: int) -> int:
        """Elements with symbol < a in chunk k0 (0 for a == 1)."""
        if a == 1:
            return 0
        off = k0 * 2 * self.sigma
        zpos = self._hist.select(k0 * self.sigma + (a - 1), 0)
        return (zpos - 1 - off) - (a - 2)

    def _count_before_chunk(self, a: int, k0: int) -> int:
        """Occurrences of a in chunks [0..k0)."""
        if k0 == 0:
            return 0
        off_a = int(self._cocc[a - 1]) + (a - 1) * self.chunks
        pos = self._dist.select((a - 1) * self.chunks + k0, 1)
        return (pos - 1 - off_a) - (k0 - 1)

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
        pos = self._hist.select(k0 * self.sigma + q, 1)
        zeros = (pos - 1 - k0 * 2 * self.sigma) - (q - 1)
        return k0, q, zeros + 1

    def access(self, i: int) -> int:
        return self._access_in_chunk(i)[2]

    def access_rank(self, i: int) -> tuple[int, int]:
        """(symbol a at i, rank_a(i)).  The in-chunk sort is stable, so
        position i is the (q - bucket start)-th a of its chunk."""
        k0, q, a = self._access_in_chunk(i)
        return a, self._count_before_chunk(a, k0) + q - self._bucket_start(k0, a)

    def rank(self, a: int, i: int) -> int:
        if not 1 <= a <= self.sigma:
            raise OutOfRangeError(f"symbol {a} out of [1..{self.sigma}]")
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.n}]")
        if i == 0:
            return 0
        k0, p = self._chunk_of(i)
        s = self._bucket_start(k0, a)
        if a < self.sigma:
            c = self._bucket_start(k0, a + 1) - s
        else:
            c = self._chunk_len(k0) - s
        lo, hi = 0, c
        while lo < hi:  # largest j with position of j-th bucket element <= p
            mid = (lo + hi + 1) // 2
            if self._inverse(k0, s + mid) <= p:
                lo = mid
            else:
                hi = mid - 1
        return self._count_before_chunk(a, k0) + lo

    def select(self, a: int, j: int) -> int:
        if not 1 <= a <= self.sigma:
            raise OutOfRangeError(f"symbol {a} out of [1..{self.sigma}]")
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        if j > self.occurrences(a):
            raise NotFoundError(f"fewer than {j} occurrences of symbol {a}")
        zpos = self._dist.select(int(self._cocc[a - 1]) + j, 0)
        off_a = int(self._cocc[a - 1]) + (a - 1) * self.chunks
        k0 = (zpos - 1 - off_a) - (j - 1)
        j_within = j - self._count_before_chunk(a, k0)
        q = self._bucket_start(k0, a) + j_within
        return k0 * self.sigma + self._inverse(k0, q)

    def decode(self) -> np.ndarray:
        """Reconstruct the whole sequence in one vectorized pass."""
        from .bits import unpack_fixed

        fwd = unpack_fixed(self._fwd_words, self.width, self.n).astype(np.int64)
        hbits = self._hist.to_bits()
        out = np.empty(self.n, dtype=np.int64)
        for k0 in range(self.chunks):
            L = self._chunk_len(k0)
            off = k0 * 2 * self.sigma
            chunk_bits = hbits[off : off + L + self.sigma]
            # counts per symbol from the unary runs
            zero_pos = np.flatnonzero(chunk_bits == 0)
            counts = np.diff(np.concatenate([[-1], zero_pos])) - 1
            sorted_syms = np.repeat(np.arange(1, self.sigma + 1), counts)
            lo = k0 * self.sigma
            out[lo : lo + L] = sorted_syms[fwd[lo : lo + L]]
        return out

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
        # unary terminators in the histogram and distribution structures
        return 2 * self.chunks * self.sigma

    # --- serialization -----------------------------------------------------------

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u64(self.n)
        w.u64(self.sigma)
        w.u64_array(self._fwd_words)
        w.blob(self._hist.serialize())
        w.blob(self._dist.serialize())
        w.blob(self._marks.serialize())
        w.u64_array(self._back_words)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "LargeSequence":
        r = ByteReader(data)
        obj = cls.__new__(cls)
        obj.n = r.u64()
        obj.sigma = r.u64()
        if obj.sigma < 1 or obj.n < 1:
            raise InputError("large-alphabet store with an empty alphabet or sequence")
        obj.chunks = (obj.n + obj.sigma - 1) // obj.sigma
        obj.width = max(1, (obj.sigma - 1).bit_length())
        obj.step = max(1, math.ceil(math.log2(obj.sigma)) if obj.sigma > 1 else 1)
        obj._fwd_words = r.u64_array()
        obj._hist = read_bitvector(ByteReader(r.blob()))
        obj._dist = read_bitvector(ByteReader(r.blob()))
        if obj._dist.count(0) != obj.n or obj._dist.count(1) != obj.chunks * obj.sigma:
            raise InputError("chunk distribution does not match the sequence header")
        obj._cocc = obj._cumulative_counts()
        obj._marks = read_bitvector(ByteReader(r.blob()))
        obj._back_words = r.u64_array()
        return obj
