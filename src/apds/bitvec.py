"""Bit sequences with rank/select, in two encodings behind one interface.

PlainBitVector packs bits into 64-bit words with a ones count per word
and sampled select; SparseBitVector keeps only the positions of the
minority bit in an upper/lower split (Elias-Fano), so very skewed
vectors cost roughly k*lg(n/k) + 3k bits instead of n.  The
``bitvector()`` factory picks the encoding from the minority density.

All public positions are 1-based; rank accepts i = 0.

A plain vector's directory is the ones count before each word (Vigna's
and sdsl-lite's rank directories flattened to one level: in Python a
query pays per read, not per bit), so rank is one read of it plus one
masked popcount.  A select binary-searches the words between the samples
of its bit (the word of every SELECT_SAMPLE-th occurrence) on the same
counts, zeros before word w being 64*w minus the ones, and
``select_in_word`` (a byte table) places the bit in its word.  Zero-selects
read the complemented word, whose padding reads as ones above every zero.
``PolySequence`` (wavelet.py) reads this directory inline, the words view
``_word_view`` and the counts ``_cum``, so a change to their layout must
change both modules; ``test_wavelet_reads_only_the_plain_directory_of_a_bitvector``
(tests/test_source_rules.py) keeps that contract at those two names.

A sparse rank(i) and access_rank(i) read the bucket of p = i - 1, the
stored positions with p's high part (p >> low_width), once: one
zero-select of the upper vector finds where the bucket starts, a scan of
the upper words to the next zero finds where it ends (a bucket holds
about one to two positions, so that zero is nearly always in the same
word), and a binary search for the first low part above p's gives the
stored count up to p.  The low part just before it says whether p itself
is stored, so access_rank makes no upper select1.  A select of the bit a
sparse vector does not store is one binary search over the upper bits
(``_stored_before_complement``).

``SparseDictionary`` (the alphabet of a general-alphabet sequence, text
index or function) keeps its sorted values in memory and a bitvector of
them on disk: the container holds the Elias-Fano form, queries a bisect.

``unary_counts`` writes counts c_1..c_m as 1 0^c_1 1 ... 0^c_m 1, the one
layout of every unary count vector (a function's delimiter bitmap, the
block relation's P): count_before(a) = select1(a) - a is c_1 + ... +
c_(a-1), count_owner(x) = select0(x) - x is the a whose run holds unit
(zero) x, and counts_before gives every count_before at once.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .bits import (
    ByteReader,
    ByteWriter,
    WORD_BITS,
    get_fixed,
    pack_bits,
    pack_fixed,
    select_in_word,
    symbol_array,
    unpack_bits,
    unpack_fixed,
)
from .errors import InputError, NotFoundError, OutOfRangeError

# one select sample per this many occurrences of each bit value
SELECT_SAMPLE = 256
# minority-bit density below which the factory chooses the sparse encoding
SPARSE_DENSITY = 1.0 / 8.0
# sparse encoding is pointless for very short vectors
SPARSE_MIN_BITS = 256

_WORD_MASK = (1 << WORD_BITS) - 1


def count_dtype(n: int) -> np.dtype:
    """Of an n-bit plain vector's counts and select samples: uint32 if they fit."""
    return np.dtype(np.uint32 if n < 1 << 32 else np.uint64)


class PlainBitVector:
    """Uncompressed bit-packed vector with a ones count per word, O(1) rank
    and sampled select."""

    kind = "plain"

    def __init__(self, words: np.ndarray, n: int):
        """The ceil(n/64) words that hold n bits, with zero padding."""
        self.n = n
        self.words = np.ascontiguousarray(words, dtype="<u8")
        self._build_directories()

    @classmethod
    def from_bits(cls, bits) -> "PlainBitVector":
        arr = np.asarray(bits, dtype=np.uint8)
        return cls(pack_bits(arr), arr.size)

    def _build_directories(self):
        cum = np.zeros(self.words.size + 1, dtype=np.int64)  # ones before each word
        np.cumsum(np.bitwise_count(self.words), out=cum[1:])
        self._ones = int(cum[-1])
        # zeros before each word; the last entry counts the padding too, but
        # it is past every zero's rank either way
        zcum = np.arange(0, WORD_BITS * cum.size, WORD_BITS) - cum
        dtype = count_dtype(self.n)
        samp1 = self._sample_words(cum, self._ones, dtype)
        samp0 = self._sample_words(zcum, self.n - self._ones, dtype)
        # queries read single items: a memoryview returns them as ints without
        # numpy's per-item cost (the words view needs the native byte order)
        self._cum = memoryview(cum.astype(dtype))
        self._samp1, self._samp0 = memoryview(samp1), memoryview(samp0)
        self._word_view = memoryview(self.words.astype(np.uint64, copy=False))

    def _sample_words(self, cum, total, dtype):
        """The word of occurrence 1, SELECT_SAMPLE + 1, ... by the counts
        ``cum``, then the last word, where the search from the last sample ends."""
        targets = np.arange(1, total + 1, SELECT_SAMPLE)
        samples = np.empty(targets.size + 1, dtype=dtype)
        samples[:-1] = np.searchsorted(cum, targets) - 1
        samples[-1] = max(self.words.size - 1, 0)
        return samples

    def __len__(self):
        return self.n

    def count(self, bit: int = 1) -> int:
        return self._ones if bit else self.n - self._ones

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        p = i - 1
        return (self._word_view[p >> 6] >> (p & 63)) & 1

    def access_rank(self, i: int) -> tuple[int, int]:
        """(bit at i, rank of that bit in [1..i]), reading the word that holds i once."""
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        p = i - 1
        w, r = p >> 6, p & 63
        word = self._word_view[w]
        ones = self._cum[w] + (word & ((2 << r) - 1)).bit_count()
        return (1, ones) if (word >> r) & 1 else (0, i - ones)

    def rank(self, i: int, bit: int = 1) -> int:
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.n}]")
        w, r = i >> 6, i & 63
        ones = self._cum[w]  # at i = n on a word boundary, the last entry
        if r:
            ones += (self._word_view[w] & ((1 << r) - 1)).bit_count()
        if bit == 1:
            return ones
        if bit == 0:
            return i - ones
        raise InputError(f"bit must be 0 or 1, got {bit!r}")

    def select(self, j: int, bit: int = 1) -> int:
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        if bit == 1:
            total = self._ones
        elif bit == 0:
            total = self.n - self._ones
        else:
            raise InputError(f"bit must be 0 or 1, got {bit!r}")
        if j > total:
            raise NotFoundError(f"fewer than {j} {bit}-bits")
        # the j-th bit lies in the words from this sample's to the next one's:
        # binary search them for the last word with fewer than j before it
        cum = self._cum
        k = (j - 1) // SELECT_SAMPLE
        if bit:
            lo, hi = self._samp1[k], self._samp1[k + 1]
            while lo < hi:
                mid = (lo + hi + 1) >> 1
                if cum[mid] < j:
                    lo = mid
                else:
                    hi = mid - 1
            word, j = self._word_view[lo], j - cum[lo]
        else:
            lo, hi = self._samp0[k], self._samp0[k + 1]
            while lo < hi:
                mid = (lo + hi + 1) >> 1
                if (mid << 6) - cum[mid] < j:
                    lo = mid
                else:
                    hi = mid - 1
            # the last word's padding complements to ones above all its zeros
            word, j = self._word_view[lo] ^ _WORD_MASK, j - ((lo << 6) - cum[lo])
        return (lo << 6) + select_in_word(word, j) + 1

    def to_bits(self) -> np.ndarray:
        return unpack_bits(self.words, self.n)

    def ones(self) -> np.ndarray:
        """0-based positions of the one bits, ascending."""
        # flatnonzero scans a bool view of the 0/1 bytes several times faster
        return np.flatnonzero(self.to_bits().view(bool))

    def payload_bits(self) -> int:
        return self.words.size * WORD_BITS

    def directory_bits(self) -> int:
        """The per-word ones counts and both bit values' select samples."""
        return (self._cum.nbytes + self._samp1.nbytes + self._samp0.nbytes) * 8

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.uint(1)  # the encoding: 1 plain, 2 sparse
        w.uint(self.n)
        w.ints(self.words)
        return w.getvalue()


class SparseBitVector:
    """Positions of the minority bit in an upper/lower split.

    ``stored`` is the bit value whose positions are kept; queries about the
    other value are answered by complement.  Load derives the stored
    count (the upper words' popcount), the low width and the upper length.
    """

    kind = "sparse"

    def __init__(self, n: int, positions: np.ndarray, stored: int):
        pos = np.asarray(positions, dtype=np.int64)  # 0-based, sorted
        k = pos.size
        if k and (pos[0] < 0 or pos[-1] >= n):
            raise InputError("position outside universe")
        low_width, upper_length = _sparse_shape(n, k)
        upper_bits = np.zeros(upper_length, dtype=np.uint8)
        upper_bits[(pos >> low_width) + np.arange(k)] = 1
        lows = pack_fixed((pos & ((1 << low_width) - 1)).astype(np.uint64), low_width)
        self._set(n, stored, PlainBitVector.from_bits(upper_bits), lows)

    def _set(self, n: int, stored: int, upper: PlainBitVector, lows: np.ndarray):
        self.n = n
        self.stored = stored
        self.k = upper.count(1)
        self.low_width = _sparse_shape(n, self.k)[0]
        self._upper = upper
        self._lows = lows
        self._low_view = memoryview(lows.astype(np.uint64, copy=False))

    def __len__(self):
        return self.n

    def count(self, bit: int = 1) -> int:
        return self.k if bit == self.stored else self.n - self.k

    def _stored_upto(self, p: int) -> tuple[int, int]:
        """(where the bucket of p starts among the low parts, the number of
        stored positions <= p), for 0 <= p < n and k > 0.

        Bucket h = p >> low_width holds the stored positions with high part
        h: the ones between the h-th and the (h+1)-th zero of the upper
        vector, which exists because p < n."""
        lw = self.low_width
        h = p >> lw
        z = self._upper.select(h, 0) if h else 0  # upper bits before the bucket
        start = z - h
        # the bucket ends at the next zero: count the ones from bit z up
        words = self._upper._word_view
        w, off = divmod(z, WORD_BITS)
        zeros = (words[w] ^ _WORD_MASK) >> off << off  # the word's zeros from bit off
        end = start - off
        while not zeros:
            end += WORD_BITS
            w += 1
            zeros = words[w] ^ _WORD_MASK
        hi = end + (zeros & -zeros).bit_length() - 1
        target = p & ((1 << lw) - 1)
        lo = start
        while lo < hi:  # first index with low > target
            mid = (lo + hi) // 2
            if get_fixed(self._low_view, lw, mid) <= target:
                lo = mid + 1
            else:
                hi = mid
        return start, lo

    def _stored_rank(self, i: int) -> int:
        """Number of stored positions < i (i.e. in the 1-based prefix of length i)."""
        if self.k == 0 or i == 0:
            return 0
        if i >= self.n:
            return self.k
        return self._stored_upto(i - 1)[1]

    def _stored_select(self, j: int) -> int:
        pos1 = self._upper.select(j, 1)
        high = pos1 - j
        low = get_fixed(self._low_view, self.low_width, j - 1)
        return ((high << self.low_width) | low) + 1

    def access(self, i: int) -> int:
        return self.access_rank(i)[0]

    def access_rank(self, i: int) -> tuple[int, int]:
        """(bit at i, rank of that bit in [1..i])."""
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        if self.k == 0:
            return 1 - self.stored, i
        # the last stored position <= i - 1, if in the same bucket, says
        # whether i - 1 is stored
        start, r = self._stored_upto(i - 1)
        lw = self.low_width
        if r > start and get_fixed(self._low_view, lw, r - 1) == (i - 1) & ((1 << lw) - 1):
            return self.stored, r
        return 1 - self.stored, i - r

    def rank(self, i: int, bit: int = 1) -> int:
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.n}]")
        if bit != 0 and bit != 1:
            raise InputError(f"bit must be 0 or 1, got {bit!r}")
        r = self._stored_rank(i)
        return r if bit == self.stored else i - r

    def select(self, j: int, bit: int = 1) -> int:
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        if bit != 0 and bit != 1:
            raise InputError(f"bit must be 0 or 1, got {bit!r}")
        if j > self.count(bit):
            raise NotFoundError(f"fewer than {j} {bit}-bits")
        if bit == self.stored:
            return self._stored_select(j)
        return j + self._stored_before_complement(j)

    def _stored_before_complement(self, j: int) -> int:
        """The number of stored positions before the j-th complement bit.

        Each upper bit marks a point of [0..n): a one the stored position
        it encodes, the h-th zero the start h << low_width of bucket h.
        The count of complement bits before each point, its key, rises
        with the upper bits, so the last bit with a key below j is found
        by binary search: a probe reads the per-word ones count, the word
        and, for a one, its low part.  The ones up to it are the answer.
        """
        upper, lw = self._upper, self.low_width
        cum, words, lows = upper._cum, upper._word_view, self._low_view
        # bits 0..lo have keys below j and bits above hi keys of j or more;
        # found counts the ones in bits 0..lo
        lo, hi, found = -1, upper.n - 1, 0
        while lo < hi:
            u = (lo + hi + 1) >> 1
            w, r = u >> 6, u & 63
            word = words[w]
            ones = cum[w] + (word & ((1 << r) - 1)).bit_count()  # before bit u
            if (word >> r) & 1:
                key = ((u - ones) << lw) + get_fixed(lows, lw, ones) - ones
                ones += 1
            else:
                key = ((u - ones + 1) << lw) - ones
            if key < j:
                lo, found = u, ones
            else:
                hi = u - 1
        return found

    def verify(self):
        """Raise InputError unless the stored positions rise, which a load trusts."""
        if (np.diff(self._stored_positions()) <= 0).any():
            raise InputError("sparse bitvector: stored positions do not rise")

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
        return np.flatnonzero(self.to_bits().view(bool))

    def payload_bits(self) -> int:
        return self._lows.size * WORD_BITS + self._upper.payload_bits()

    def directory_bits(self) -> int:
        return self._upper.directory_bits()

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.uint(2)
        w.uint(self.n)
        w.uint(self.stored)
        w.ints(self._lows)
        w.ints(self._upper.words)
        return w.getvalue()


def _sparse_shape(n: int, k: int) -> tuple[int, int]:
    """(low width, upper length): k ones and a zero per 2**(low width) positions."""
    low_width = max(0, (n // k).bit_length() - 1) if k else 0  # floor(lg(n/k))
    return low_width, k + ((n - 1) >> low_width) + 1 if k else 0


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


def unary_counts(counts) -> "PlainBitVector | SparseBitVector":
    """Counts c_1..c_m as the bits 1 0^c_1 1 ... 0^c_m 1."""
    counts = np.asarray(counts, dtype=np.int64)
    bits = np.zeros(int(counts.sum()) + counts.size + 1, dtype=np.uint8)
    bits[np.concatenate([[0], np.cumsum(counts + 1)])] = 1
    return bitvector(bits)


def count_before(bv, a: int) -> int:
    """c_1 + ... + c_(a-1) of a ``unary_counts`` vector, for a in 1..m+1."""
    return bv.select(a, 1) - a


def count_owner(bv, x: int) -> int:
    """The a whose run of a ``unary_counts`` vector holds unit x."""
    return bv.select(x, 0) - x


def count_runs(bv) -> int:
    """m, the number of counts of a ``unary_counts`` vector."""
    return bv.count(1) - 1


def counts_before(bv) -> np.ndarray:
    """``count_before(bv, a)`` for every a in 1..m+1; its differences are c_1..c_m."""
    return bv.ones() - np.arange(count_runs(bv) + 1)


def load_unary_counts(data: bytes, total: int, m: int | None = None):
    """A ``unary_counts`` vector of m counts (any m >= 1 if None) summing to total."""
    bv = load_bitvector(data)
    runs = count_runs(bv)
    if (bv.count(0) != total or runs < 1 or m not in (None, runs)
            or not bv.access(1) or not bv.access(len(bv))):
        raise InputError(f"unary counts: {bv.count(0)} units in {runs} runs, expected {total}")
    return bv


def _exact_words(words: np.ndarray, n: int) -> np.ndarray:
    """words, unless they are not the words of n bits with zero padding."""
    if words.size != -(-n // WORD_BITS) or (n % WORD_BITS and int(words[-1]) >> (n % WORD_BITS)):
        raise InputError("bitvector words do not match its length")
    return words


def load_bitvector(data: bytes) -> "PlainBitVector | SparseBitVector":
    with ByteReader(data) as r:
        kind, n = r.uint(), r.uint()
        if kind not in (1, 2):
            raise InputError(f"unknown bitvector encoding {kind}")
        if kind == 1:
            return PlainBitVector(_exact_words(r.ints(), n), n)
        stored, lows, upper_words = r.uint(), r.ints(), r.ints()
    k = int(np.bitwise_count(upper_words).sum())
    if stored > 1 or k > n:
        raise InputError("sparse bitvector: bad stored bit or more stored positions than bits")
    upper_n = _sparse_shape(n, k)[1]
    obj = SparseBitVector.__new__(SparseBitVector)
    obj._set(n, stored, PlainBitVector(_exact_words(upper_words, upper_n), upper_n), lows)
    if lows.size != -(-k * obj.low_width // WORD_BITS) or (k and obj._stored_select(k) > n):
        raise InputError("sparse bitvector: low parts or positions outside its length")
    return obj


class SparseDictionary:
    """A sorted set over universe [1..m] with rank and access by rank.

    index_of maps a member to its 1-based rank among the stored values;
    value_of is the inverse.  Non-members map to None.

    In memory the set is only its sorted values, a memoryview (uint32 below
    a 2**32 universe, int64 from there): index_of is one bisect and one
    read, value_of one read.  On disk it is the bitvector of its members
    over [1..m] (when they are sparse, an Elias-Fano array of about
    k*(lg(m/k) + 2) bits: Okanohara and Sadakane's sarray); load decodes the
    values from it once, and serialize and payload_bits encode it again.
    """

    def __init__(self, values, universe_max=None):
        vals = np.unique(symbol_array(values, universe_max))
        self._set(vals, int(universe_max) if universe_max else int(vals[-1]))

    def _set(self, vals: np.ndarray, universe_max: int):
        self.universe_max = universe_max
        self.size = vals.size
        dtype = np.uint32 if universe_max < 1 << 32 else np.int64
        self._values = memoryview(vals.astype(dtype))

    def __len__(self):
        return self.size

    def index_of(self, a: int):
        if not 1 <= a <= self.universe_max:
            raise OutOfRangeError(f"value {a} outside universe [1..{self.universe_max}]")
        i = bisect_left(self._values, a)
        return i + 1 if i < self.size and self._values[i] == a else None

    def indices_of(self, values) -> list | None:
        """index_of of each value, or None when one is not a member (a
        value outside the universe included)."""
        vals, size, out = self._values, self.size, []
        for a in values:
            i = bisect_left(vals, a)
            if i == size or vals[i] != a:
                return None
            out.append(i + 1)
        return out

    def value_of(self, i: int) -> int:
        if not 1 <= i <= self.size:
            raise OutOfRangeError(f"rank {i} out of [1..{self.size}]")
        return self._values[i - 1]

    def values_of(self, ranks) -> np.ndarray:
        """value_of of each rank in an int array, as one take."""
        return np.asarray(self._values)[np.asarray(ranks) - 1].astype(np.int64)

    def values(self) -> np.ndarray:
        return np.asarray(self._values).astype(np.int64)

    def _bitvector(self) -> "PlainBitVector | SparseBitVector":
        return bitvector_from_positions(self.universe_max, self.values() - 1)

    def payload_bits(self) -> int:
        return self._bitvector().payload_bits()

    def directory_bits(self) -> int:
        """The sorted values that queries read."""
        return self._values.nbytes * 8

    def serialize(self) -> bytes:
        return self._bitvector().serialize()

    @classmethod
    def deserialize(cls, data: bytes) -> "SparseDictionary":
        """Load a dictionary; raises InputError unless its decoded values
        are at least one and strictly rise."""
        bv = load_bitvector(data)
        vals = bv.ones() + 1
        if vals.size == 0 or (vals[1:] <= vals[:-1]).any():
            raise InputError("dictionary values are empty or do not rise")
        obj = cls.__new__(cls)
        obj._set(vals, len(bv))
        return obj


def alphabet_ranks(values: np.ndarray):
    """(the rank of each value among the distinct values, 1-based; a
    dictionary of the distinct values), or (values, None) when the values
    are already exactly 1..sigma.  Values in [0..len(values)] (byte text,
    BWT symbols) take one ``bincount``, others one ``np.unique``."""
    if values.min() >= 0 and values.max() <= values.size:
        present = np.bincount(values) > 0
        if not present[0] and present[1:].all():
            return values, None
        ranks = np.cumsum(present)
        return ranks[values], SparseDictionary(np.flatnonzero(present))
    uniq = np.unique(values)
    if uniq[0] == 1 and uniq[-1] == uniq.size:
        return values, None
    return np.searchsorted(uniq, values).astype(np.int64) + 1, SparseDictionary(uniq)
