"""Bit sequences with rank/select, in two encodings behind one interface.

PlainBitVector packs bits into 64-bit words with a two-level rank
directory and sampled select; SparseBitVector keeps only the positions of
the minority bit in an upper/lower split (Elias-Fano), so very skewed
vectors cost roughly k*lg(n/k) + 3k bits instead of n.  The
``bitvector()`` factory picks the encoding from the minority density.

All public positions are 1-based; rank accepts i = 0.
"""

from __future__ import annotations

import numpy as np

from .bits import (
    ByteReader,
    ByteWriter,
    WORD_BITS,
    get_fixed,
    pack_bits,
    pack_fixed,
    popcount_words,
    select_in_word,
    unpack_bits,
    unpack_fixed,
)
from .errors import InputError, NotFoundError, OutOfRangeError

# one select sample per this many occurrences of each bit value
SELECT_SAMPLE = 512
# minority-bit density below which the factory chooses the sparse encoding
SPARSE_DENSITY = 1.0 / 8.0
# sparse encoding is pointless for very short vectors
SPARSE_MIN_BITS = 256

_SB_WORDS = 64  # superblock: absolute counts, one u64 per 64 words
_BLK_WORDS = 4  # block: u16 counts relative to the superblock


class PlainBitVector:
    """Uncompressed bit-packed vector with O(1) rank and sampled select."""

    kind = "plain"

    def __init__(self, words: np.ndarray, n: int):
        if n > words.size * WORD_BITS:
            raise InputError("word payload shorter than declared bit length")
        self.n = n
        self.words = np.ascontiguousarray(words[: (n + 63) // 64], dtype="<u8")
        self._build_directories()

    @classmethod
    def from_bits(cls, bits) -> "PlainBitVector":
        arr = np.asarray(bits, dtype=np.uint8)
        return cls(pack_bits(arr), arr.size)

    def _build_directories(self):
        pc = popcount_words(self.words)
        cum = np.zeros(pc.size + 1, dtype=np.int64)
        np.cumsum(pc, out=cum[1:])
        self._ones = int(cum[-1])
        self._sb = cum[::_SB_WORDS].copy()
        blk = cum[::_BLK_WORDS]
        self._blk = (blk - self._sb[np.arange(blk.size) * _BLK_WORDS // _SB_WORDS]).astype(
            np.uint16
        )
        # select samples: word index holding every SAMPLE-th occurrence
        self._samp1 = self._sample_words(cum, self._ones)
        zc = np.full(pc.size, WORD_BITS, dtype=np.int64) - pc
        if self.n % WORD_BITS and pc.size:
            zc[-1] -= WORD_BITS - (self.n % WORD_BITS)
        zcum = np.zeros(zc.size + 1, dtype=np.int64)
        np.cumsum(zc, out=zcum[1:])
        self._samp0 = self._sample_words(zcum, self.n - self._ones)

    @staticmethod
    def _sample_words(cum, total):
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        targets = np.arange(1, total + 1, SELECT_SAMPLE, dtype=np.int64)
        return np.searchsorted(cum, targets, side="left") - 1

    def __len__(self):
        return self.n

    def count(self, bit: int = 1) -> int:
        return self._ones if bit else self.n - self._ones

    def _cum_to_word(self, w: int) -> int:
        base = int(self._sb[w // _SB_WORDS]) + int(self._blk[w // _BLK_WORDS])
        for x in range((w // _BLK_WORDS) * _BLK_WORDS, w):
            base += int(self.words[x]).bit_count()
        return base

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        p = i - 1
        return (int(self.words[p >> 6]) >> (p & 63)) & 1

    def access_rank(self, i: int) -> tuple[int, int]:
        """(bit at i, rank of that bit in [1..i]), reading the word that holds i once."""
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        w, r = divmod(i - 1, WORD_BITS)
        word = int(self.words[w])
        ones = self._cum_to_word(w) + (word & ((2 << r) - 1)).bit_count()
        return (1, ones) if (word >> r) & 1 else (0, i - ones)

    def rank(self, i: int, bit: int = 1) -> int:
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.n}]")
        w, r = divmod(i, WORD_BITS)
        ones = self._cum_to_word(w) if w < self.words.size else self._ones
        if r:
            ones += (int(self.words[w]) & ((1 << r) - 1)).bit_count()
        return ones if bit else i - ones

    def select(self, j: int, bit: int = 1) -> int:
        total = self.count(bit)
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        if j > total:
            raise NotFoundError(f"fewer than {j} {bit}-bits")
        samp = self._samp1 if bit else self._samp0
        w = int(samp[(j - 1) // SELECT_SAMPLE])
        before = self._cum_to_word(w)
        if not bit:
            before = w * WORD_BITS - before
        while True:
            word = int(self.words[w])
            if not bit:
                valid = min(WORD_BITS, self.n - w * WORD_BITS)
                word = ~word & ((1 << valid) - 1)
            c = word.bit_count()
            if before + c >= j:
                return w * WORD_BITS + select_in_word(word, j - before) + 1
            before += c
            w += 1

    def to_bits(self) -> np.ndarray:
        return unpack_bits(self.words, self.n)

    def ones(self) -> np.ndarray:
        """0-based positions of the one bits, ascending."""
        return np.flatnonzero(self.to_bits())

    def payload_bits(self) -> int:
        return self.words.size * WORD_BITS

    def directory_bits(self) -> int:
        return (
            self._sb.size * 64
            + self._blk.size * 16
            + (self._samp1.size + self._samp0.size) * 64
        )

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u8(1)
        w.u64(self.n)
        w.u64_array(self.words)
        return w.getvalue()


class SparseBitVector:
    """Positions of the minority bit in an upper/lower split.

    ``stored`` is the bit value whose positions are kept; queries about the
    other value are answered by complement.
    """

    kind = "sparse"

    def __init__(self, n: int, positions: np.ndarray, stored: int, low_width=None):
        self.n = n
        self.stored = stored
        pos = np.asarray(positions, dtype=np.int64)  # 0-based, sorted
        self.k = pos.size
        if self.k and (pos[0] < 0 or pos[-1] >= n):
            raise InputError("position outside universe")
        if low_width is None:
            low_width = max(0, int(np.log2(n / self.k))) if self.k else 0
        self.low_width = low_width
        if self.k:
            high = pos >> low_width
            low = pos & ((1 << low_width) - 1) if low_width else np.zeros_like(pos)
            nb = ((n - 1) >> low_width) + 1
            upper_bits = np.zeros(self.k + nb, dtype=np.uint8)
            upper_bits[high + np.arange(self.k)] = 1
            self._upper = PlainBitVector.from_bits(upper_bits)
            self._lows = pack_fixed(low.astype(np.uint64), low_width)
        else:
            self._upper = PlainBitVector.from_bits([])
            self._lows = np.zeros(0, dtype="<u8")

    def __len__(self):
        return self.n

    def count(self, bit: int = 1) -> int:
        return self.k if bit == self.stored else self.n - self.k

    def _stored_rank(self, i: int) -> int:
        """Number of stored positions < i (i.e. in the 1-based prefix of length i)."""
        if self.k == 0 or i == 0:
            return 0
        if i >= self.n:
            return self.k
        h = i >> self.low_width
        start = self._upper.select(h, 0) - h if h else 0
        nz = self._upper.count(0)
        end = self._upper.select(h + 1, 0) - (h + 1) if h + 1 <= nz else self.k
        if self.low_width == 0:
            return start
        target = i & ((1 << self.low_width) - 1)
        lo, hi = start, end
        while lo < hi:  # first index with low >= target
            mid = (lo + hi) // 2
            if get_fixed(self._lows, self.low_width, mid) < target:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _stored_select(self, j: int) -> int:
        pos1 = self._upper.select(j, 1)
        high = pos1 - j
        low = get_fixed(self._lows, self.low_width, j - 1)
        return ((high << self.low_width) | low) + 1

    def access(self, i: int) -> int:
        return self.access_rank(i)[0]

    def access_rank(self, i: int) -> tuple[int, int]:
        """(bit at i, rank of that bit in [1..i])."""
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        r = self._stored_rank(i)
        if r > self._stored_rank(i - 1):
            return self.stored, r
        return 1 - self.stored, i - r

    def rank(self, i: int, bit: int = 1) -> int:
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.n}]")
        r = self._stored_rank(i)
        return r if bit == self.stored else i - r

    def select(self, j: int, bit: int = 1) -> int:
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        if j > self.count(bit):
            raise NotFoundError(f"fewer than {j} {bit}-bits")
        if bit == self.stored:
            return self._stored_select(j)
        # binary search the smallest prefix holding j complement bits
        lo, hi = 1, self.n
        while lo < hi:
            mid = (lo + hi) // 2
            if mid - self._stored_rank(mid) < j:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _stored_positions(self) -> np.ndarray:
        """0-based positions of the stored bit value, ascending."""
        high = self._upper.ones() - np.arange(self.k)
        low = unpack_fixed(self._lows, self.low_width, self.k).astype(np.int64)
        return (high << self.low_width) | low

    def to_bits(self) -> np.ndarray:
        out = np.full(self.n, 1 - self.stored, dtype=np.uint8)
        if self.k:
            out[self._stored_positions()] = self.stored
        return out

    def ones(self) -> np.ndarray:
        """0-based positions of the one bits, ascending; no length-n array
        when the ones are the stored minority."""
        if self.stored == 1:
            return self._stored_positions()
        return np.flatnonzero(self.to_bits())

    def payload_bits(self) -> int:
        return self._lows.size * WORD_BITS + self._upper.payload_bits()

    def directory_bits(self) -> int:
        return self._upper.directory_bits()

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u8(2)
        w.u64(self.n)
        w.u64(self.k)
        w.u8(self.stored)
        w.u8(self.low_width)
        w.u64_array(self._lows)
        w.u64(self._upper.n)
        w.u64_array(self._upper.words)
        return w.getvalue()

    @classmethod
    def _from_reader(cls, r: ByteReader) -> "SparseBitVector":
        obj = cls.__new__(cls)
        obj.n = r.u64()
        obj.k = r.u64()
        obj.stored = r.u8()
        obj.low_width = r.u8()
        obj._lows = r.u64_array()
        un = r.u64()
        obj._upper = PlainBitVector(r.u64_array(), un)
        return obj


def bitvector(bits) -> "PlainBitVector | SparseBitVector":
    """Build from a 0/1 sequence, choosing the encoding automatically."""
    arr = np.asarray(bits, dtype=np.uint8)
    n = arr.size
    ones = int(arr.sum())
    minority = min(ones, n - ones)
    if n >= SPARSE_MIN_BITS and minority / n < SPARSE_DENSITY:
        stored = 1 if ones == minority else 0
        positions = np.flatnonzero(arr == stored)
        return SparseBitVector(n, positions, stored)
    return PlainBitVector.from_bits(arr)


def bitvector_from_positions(n: int, ones_positions) -> "PlainBitVector | SparseBitVector":
    """Build from sorted 0-based positions of the one bits."""
    pos = np.asarray(ones_positions, dtype=np.int64)
    if n >= SPARSE_MIN_BITS and pos.size / n < SPARSE_DENSITY:
        return SparseBitVector(n, pos, 1)
    bits = np.zeros(n, dtype=np.uint8)
    bits[pos] = 1
    return PlainBitVector.from_bits(bits)


def load_bitvector(data: bytes) -> "PlainBitVector | SparseBitVector":
    return read_bitvector(ByteReader(data))


def read_bitvector(r: ByteReader) -> "PlainBitVector | SparseBitVector":
    kind = r.u8()
    if kind == 1:
        n = r.u64()
        return PlainBitVector(r.u64_array(), n)
    if kind == 2:
        return SparseBitVector._from_reader(r)
    raise InputError(f"unknown bitvector encoding {kind}")


class SparseDictionary:
    """A sorted set over universe [1..m] with rank and access by rank.

    index_of maps a member to its 1-based rank among the stored values;
    value_of is the inverse.  Non-members map to None.
    """

    def __init__(self, values, universe_max=None):
        vals = np.unique(np.asarray(list(values), dtype=np.int64))
        if vals.size == 0:
            raise InputError("dictionary needs at least one value")
        if vals[0] < 1:
            raise InputError("dictionary values must be >= 1")
        self.universe_max = int(universe_max) if universe_max else int(vals[-1])
        if vals[-1] > self.universe_max:
            raise InputError("value exceeds declared universe")
        self.size = vals.size
        self._bv = bitvector_from_positions(self.universe_max, vals - 1)

    def __len__(self):
        return self.size

    def index_of(self, a: int):
        if not 1 <= a <= self.universe_max:
            raise OutOfRangeError(f"value {a} outside universe [1..{self.universe_max}]")
        r = self._bv.rank(a, 1)
        return r if r > self._bv.rank(a - 1, 1) else None

    def value_of(self, i: int) -> int:
        if not 1 <= i <= self.size:
            raise OutOfRangeError(f"rank {i} out of [1..{self.size}]")
        return self._bv.select(i, 1)

    def values(self) -> np.ndarray:
        return self._bv.ones() + 1

    def payload_bits(self) -> int:
        return self._bv.payload_bits()

    def directory_bits(self) -> int:
        return self._bv.directory_bits()

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u64(self.universe_max)
        w.blob(self._bv.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "SparseDictionary":
        r = ByteReader(data)
        obj = cls.__new__(cls)
        obj.universe_max = r.u64()
        obj._bv = load_bitvector(r.blob())
        obj.size = obj._bv.count(1)
        return obj
