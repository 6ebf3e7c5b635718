"""Block-encoded texts and a BWT-based self-index.

BlockStore cuts a sequence into fixed-length blocks and keeps one copy of
each distinct block content plus the compressed block-id string, giving
O(1) access.  BlockRelation adds rank/select: a per-character sparse
bitmap over block indices records which blocks contain the character, and
P holds the counts of the (character, block) pairs, by character then
block, in ``bitvec``'s unary count codec, so cumulative counts resolve
with one select.

FmIndex supports count/locate/extract by backward search over the
Burrows-Wheeler transform (stored as ApSequence, optionally split by
length-k right-context), with text-regular suffix-array samples for
locate and inverse samples for extract.  A backward-search step ranks
its symbol up to rows sp - 1 and ep.  When both rows lie in one part
(always at k = 0; row sp - 1 may be the row just before the part), one
paired walk (``ApSequence.rank_pair``) ranks both.  Load derives each
part's first row, the per-part cumulative symbol counts and the C array
from the parts themselves, with the same method that build calls
(``_derive_counts``).

Only one sample array is stored.  The k = n // rate + 1 rows of text
positions 1, 1 + rate, 1 + 2 rate, ... are marked, and each marked row
stores (sa - 1) / rate, at the bit length of k - 1; locate answers
sample * rate + 1 + its LF steps.  The samples are a permutation of
[0, k), so the inverse samples, the rows of those positions (and of
position n + 1, the terminator's row 0, when rate does not divide n), are
one scatter of the marked rows.  The first extract makes it, on a built
and on a loaded index alike (``isa_rows``).

The build sorts the text's suffixes by prefix doubling from packed keys
(``suffix_array``).  Its first round packs the first h symbols of each
suffix into one int64 (h = 10 for 6-bit symbols); every later round sorts
one int64 key rank(i) * (n + 1) + rank(i + k) and doubles k.  Equal keys
get equal ranks, so an unstable sort is enough.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .apseq import ApSequence, _require
from .bits import (ByteReader, ByteWriter, get_fixed, int_param, pack_fixed, symbol_array,
                   unpack_fixed)
from .bitvec import (SparseDictionary, alphabet_ranks, bitvector_from_positions, count_before,
                     count_owner, counts_before, load_bitvector, unary_counts)
from .chunkseq import _validate_permutation  # bijection check for LF tests
from .errors import InputError, NotFoundError, OutOfRangeError


def text_symbols(data) -> list:
    """Bytes or str to positive symbol values (byte value + 1)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, (bytes, bytearray)):
        return [b + 1 for b in data]
    return list(data)


def text_array(data) -> np.ndarray:
    """text_symbols as an int64 array.  Bytes and str are read as one
    buffer, without a per-byte list; all input, bytes and str included,
    then goes through ``symbol_array``, so an int64 array is kept as it is."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, (bytes, bytearray)):
        data = np.frombuffer(data, dtype=np.uint8).astype(np.int64) + 1
    return symbol_array(data)


def suffix_array(t: np.ndarray) -> np.ndarray:
    """1-based suffix array of nonnegative symbols by prefix doubling from
    packed keys (after Larsson & Sadakane, *Faster suffix sorting*).

    All suffixes must be distinct: every symbol is >= 1, or the text ends
    in a unique smallest terminator.  The first round packs each suffix's
    first h symbols into one int64 key, w bits apiece (w = bit length of
    the largest symbol, h = min(n, max(1, 62 // w))), with 0 past the end.
    The padding never decides an order: a window runs past the end only
    through the last symbol, and that symbol is either a unique smallest
    terminator, which decides first, or >= 1, so the shorter suffix sorts
    first as it should.  Each round ranks its keys; while ranks tie, the
    next round sorts the key rank(i) * (n + 1) + rank(i + k), with rank 0
    past the end, and k (from h) doubles.  Equal keys get equal ranks, so
    the sort need not be stable.  At most ceil(lg(n / h)) + 1 rounds run."""
    n = t.size
    t = t.astype(np.int64, copy=False)
    if t.min() < 0:
        raise InputError("suffix_array needs nonnegative symbols")
    w = max(1, int(t.max()).bit_length())
    h = min(n, max(1, 62 // w))
    key = np.zeros(n, dtype=np.int64)
    for j in range(h):
        key <<= w
        key[: n - j] |= t[j:]
    k = h
    while True:
        order = np.argsort(key)
        sorted_key = key[order]
        new = np.ones(n, dtype=bool)
        new[1:] = sorted_key[1:] != sorted_key[:-1]
        fresh = np.cumsum(new)
        if fresh[-1] == n:
            return order + 1
        if k >= n:
            raise InputError("suffix_array needs distinct suffixes")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = fresh
        key = rank * (n + 1)
        key[: n - k] += rank[k:]
        k *= 2


def bwt_of(t: np.ndarray, sa: np.ndarray) -> np.ndarray:
    prev = sa - 1
    prev[prev == 0] = t.size
    return t[prev - 1]


class BlockStore:
    """Fixed-length blocking with one stored copy per distinct content."""

    def __init__(self, seq, block_len: int | None = None,
                 alphabet_size: int | None = None):
        arr = symbol_array(seq, alphabet_size)
        self.n = int(arr.size)
        self.sigma = int(alphabet_size) if alphabet_size else int(arr.max())
        if block_len is None:
            block_len = self._default_block_len(self.n, self.sigma)
        self.block_len = b = int_param(block_len, "block length")
        self.num_blocks = (self.n + b - 1) // b
        padded = np.ones(self.num_blocks * b, dtype=np.int64)  # pad with smallest
        padded[: self.n] = arr
        # distinct blocks, numbered in order of first occurrence
        distinct, first, ids = np.unique(padded.reshape(self.num_blocks, b), axis=0,
                                         return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty(order.size, dtype=np.int64)
        number[order] = np.arange(1, order.size + 1)
        self.contents = distinct[order]
        self.sprime = ApSequence(number[ids.reshape(-1)])

    @staticmethod
    def _default_block_len(n: int, sigma: int) -> int:
        if sigma < 2:
            return 1
        return max(1, int(math.floor(math.log(n, sigma) / 2)))

    def __len__(self):
        return self.n

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        j = (i - 1) // self.block_len + 1
        off = i - (j - 1) * self.block_len
        return int(self.contents[self.sprime.access(j) - 1][off - 1])

    def decode(self) -> np.ndarray:
        """The stored sequence, padding excluded."""
        return self.contents[self.sprime.decode() - 1].reshape(-1)[: self.n]

    def block_counts(self) -> np.ndarray:
        """(num_blocks, sigma) occurrence counts, padding excluded."""
        cell = np.arange(self.n) // self.block_len * self.sigma + self.decode() - 1
        counts = np.bincount(cell, minlength=self.num_blocks * self.sigma)
        return counts.reshape(self.num_blocks, self.sigma)

    def payload_bits(self) -> int:
        return (
            self.sprime.payload_bits()
            + self.contents.size * max(1, (self.sigma - 1).bit_length())
        )

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.uint(self.n)
        w.uint(self.sigma)
        w.uint(self.block_len)
        w.ints(self.contents.reshape(-1))
        w.blob(self.sprime.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "BlockStore":
        with ByteReader(data) as r:
            obj = cls.__new__(cls)
            obj.n = r.uint()
            obj.sigma = r.uint()
            obj.block_len = r.uint()
            contents = r.ints().astype(np.int64)
            if obj.block_len < 1 or contents.size % obj.block_len:
                raise InputError("block contents do not split into whole blocks")
            obj.contents = contents.reshape(-1, obj.block_len)
            obj.sprime = ApSequence.deserialize(r.blob())
        obj.num_blocks = (obj.n + obj.block_len - 1) // obj.block_len
        return obj


class BlockRelation:
    """Character-to-block incidence with unary per-pair counts."""

    def __init__(self, store: BlockStore):
        self.store = store
        sigma, nb = store.sigma, store.num_blocks
        text = store.decode()
        # the (character, block) pairs that occur, by character then block,
        # with their counts: O(n) memory, where a blocks x sigma matrix is not
        pairs, counts = np.unique((text - 1) * nb + np.arange(store.n) // store.block_len,
                                  return_counts=True)
        sym, blk = np.divmod(pairs, nb)
        pair_counts = np.bincount(sym, minlength=sigma)
        self._rows = [bitvector_from_positions(nb, hit)
                      for hit in np.split(blk, np.cumsum(pair_counts)[:-1])]
        self.P = unary_counts(counts)
        self.c_pairs = np.zeros(sigma + 1, dtype=np.int64)
        np.cumsum(pair_counts, out=self.c_pairs[1:])
        self.c_ones = np.zeros(sigma + 1, dtype=np.int64)
        np.cumsum(np.bincount(text - 1, minlength=sigma), out=self.c_ones[1:])

    def _cum(self, a: int, r: int) -> int:
        """Total occurrences of a within its first r blocks."""
        return count_before(self.P, int(self.c_pairs[a - 1]) + r + 1) - int(self.c_ones[a - 1])

    def rank(self, a: int, i: int) -> int:
        store = self.store
        if not 0 <= i <= store.n:
            raise OutOfRangeError(f"rank position {i} out of [0..{store.n}]")
        if not 1 <= a <= store.sigma or i == 0:
            return 0
        b = store.block_len
        j = (i - 1) // b + 1
        off = i - (j - 1) * b
        row = store.contents[store.sprime.access(j) - 1]
        inside = int((row[:off] == a).sum())
        nb_before = self._rows[a - 1].rank(j - 1, 1)
        return self._cum(a, nb_before) + inside

    def select(self, a: int, j: int) -> int:
        store = self.store
        if not 1 <= a <= store.sigma:
            raise NotFoundError(f"symbol {a} does not occur")
        total = int(self.c_ones[a] - self.c_ones[a - 1])
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        if j > total:
            raise NotFoundError(f"fewer than {j} occurrences of symbol {a}")
        # the j-th a lies in the r-th block that holds an a
        r = count_owner(self.P, int(self.c_ones[a - 1]) + j) - int(self.c_pairs[a - 1])
        before = self._cum(a, r - 1)
        jb = self._rows[a - 1].select(r, 1)
        row = store.contents[store.sprime.access(jb) - 1]
        hits = np.flatnonzero(row == a)
        off = int(hits[j - before - 1]) + 1
        return (jb - 1) * store.block_len + off

    def check_invariants(self):
        _require(count_before(self.P, int(self.c_pairs[-1]) + 1) == self.store.n,
                 "P must hold one unit per text position")
        # a symbol's pairs end where the next one's start: the units of P
        # before each symbol's first pair are the occurrences before it
        _require(np.array_equal(counts_before(self.P)[self.c_pairs], self.c_ones),
                 "P and c_ones disagree on the occurrences of some symbol")


class FmIndex:
    """count/locate/extract over a text via backward search."""

    def __init__(self, text, k_context: int = 0, sample_rate: int | None = None):
        arr = text_array(text)
        self.k_context = int_param(k_context, "context length", least=0)
        ranks, alphabet = alphabet_ranks(arr)
        self.n = int(arr.size)
        self.sigma = int(ranks.max())
        if sample_rate is None:
            sample_rate = self._default_sample_rate(self.n, self.sigma)
        self.sample_rate = int_param(sample_rate, "sample rate")
        # the index stores its alphabet even when it is 1..sigma
        self.alphabet = (SparseDictionary(np.arange(1, self.sigma + 1)) if alphabet is None
                         else alphabet)
        dense = ranks + 1  # 1 = terminator
        t = np.concatenate([dense, [1]])
        sa = suffix_array(t)
        bwt = bwt_of(t, sa)
        self._build_bwt_partitions(t, sa, bwt)
        self._derive_counts()
        self._build_samples(sa)

    @staticmethod
    def _default_sample_rate(n: int, sigma: int) -> int:
        if sigma < 2 or n < 4:
            return 1
        lglg = math.log2(max(2.0, math.log2(n)))
        return max(1, math.ceil(math.log(n, sigma) * lglg))

    def _build_bwt_partitions(self, t, sa, bwt):
        m = t.size
        k = self.k_context
        # a part starts at each row whose suffix's first k symbols differ
        # from the row above's; suffixes shorter than k end in the unique
        # terminator, so they stay apart whatever pads them
        padded = np.concatenate([t, np.zeros(k, dtype=t.dtype)])
        change = np.zeros(m - 1, dtype=bool)
        for j in range(k):
            head = padded[sa - 1 + j]
            change |= head[1:] != head[:-1]
        bounds = np.concatenate([[1], np.flatnonzero(change) + 2, [m + 1]])
        self.parts = [ApSequence(bwt[lo - 1 : hi - 1], general_alphabet=True)
                      for lo, hi in zip(bounds[:-1], bounds[1:])]

    def _derive_counts(self):
        """Set part_starts (first row of each part), part_cum (occurrences
        of each symbol in the parts before each part) and C (occurrences of
        the symbols smaller than each symbol) from the parts' lengths and
        symbol counts.  Queries read them one item at a time, so they are
        lists and a memoryview, whose items are ints."""
        lengths = np.array([len(p) for p in self.parts], dtype=np.int64)
        self.part_starts = (np.cumsum(lengths) - lengths + 1).tolist()
        occ = np.zeros((len(self.parts) + 1, self.sigma + 2), dtype=np.int64)
        for p, part in enumerate(self.parts):
            symbols = (np.arange(1, part.sigma + 1) if part.alphabet_dict is None
                       else part.alphabet_dict.values())
            if symbols[-1] > self.sigma + 1:
                raise InputError("a BWT part holds a symbol outside the index alphabet")
            occ[p + 1, symbols] = part.partition.occ
        part_cum = np.cumsum(occ, axis=0)
        self.C = [0] + np.cumsum(part_cum[-1])[:-1].tolist()
        self.part_cum = memoryview(part_cum)  # indexed [part, symbol]

    def _build_samples(self, sa):
        rs = self.sample_rate
        marked_rows = np.flatnonzero((sa - 1) % rs == 0)  # 0-based rows
        self.sa_marked = bitvector_from_positions(sa.size, marked_rows)
        self._set_samples(pack_fixed((sa[marked_rows] - 1) // rs, self._sample_shape()[1]))

    def _sample_shape(self) -> tuple[int, int]:
        """(k, w): the k = n // rate + 1 marked rows, and the field width of
        a sample, which lies in [0, k)."""
        k = self.n // self.sample_rate + 1
        return k, max(1, (k - 1).bit_length())

    def _set_samples(self, sa_samples):
        """The packed samples, and a memoryview of them and their width for
        get_fixed; ``isa_rows`` is derived on first use."""
        self.sa_samples = sa_samples
        self._sa_view = memoryview(sa_samples.astype(np.uint64, copy=False))
        self._samp_width = self._sample_shape()[1]
        self._isa = None

    @property
    def isa_rows(self) -> np.ndarray:
        """The 0-based rows of text positions 1, 1 + rate, ..., then 0, the
        terminator's row, when rate does not divide n.  Made on first use:
        marked row i goes to index sample[i].  That unpacks every sample, so
        the samples are checked here."""
        if self._isa is None:
            k, w = self._sample_shape()
            samples = unpack_fixed(self.sa_samples, w, k).astype(np.int64)
            # k samples below 2k, each in [0, k) at least once: each exactly once
            hits = np.bincount(samples, minlength=k)
            if hits.size != k or not hits.all():
                raise InputError("index samples are not a permutation of the marked rows")
            rows = np.zeros(k + (self.n % self.sample_rate != 0), dtype=np.min_scalar_type(self.n))
            rows[samples] = self.sa_marked.ones()
            self._isa = rows
        return self._isa

    # --- core navigation -----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.n + 1

    def _bwt_access_rank(self, r: int) -> tuple[int, int]:
        """(BWT symbol c at row r, rank_c(r)) from one ApSequence walk."""
        p = bisect_right(self.part_starts, r) - 1
        c, rank = self.parts[p].access_rank(r - self.part_starts[p] + 1)
        return c, self.part_cum[p, c] + rank

    def _bwt_rank(self, a: int, r: int) -> int:
        if r == 0:
            return 0
        p = bisect_right(self.part_starts, r) - 1
        return self.part_cum[p, a] + self.parts[p].rank(a, r - self.part_starts[p] + 1)

    def _lf(self, r: int) -> tuple[int, int]:
        """(BWT symbol at row r, LF(r))."""
        c, rank = self._bwt_access_rank(r)
        return c, self.C[c] + rank

    def lf_mapping(self) -> np.ndarray:
        """The LF permutation over all rows (test/diagnostic helper)."""
        arr = np.array([self._lf(r)[1] for r in range(1, self.rows + 1)], dtype=np.int64)
        _validate_permutation(arr)
        return arr

    def _pattern_internal(self, pattern):
        """The alphabet ranks of the pattern's symbols, or None if one does
        not occur in the text; internal symbols are these ranks plus one,
        as 1 is the terminator."""
        syms = text_symbols(pattern)
        if len(syms) == 0:
            raise InputError("empty pattern")
        return self.alphabet.indices_of(syms)

    def _backward_range(self, pattern):
        ranks = self._pattern_internal(pattern)
        if ranks is None:
            return None
        sp, ep = 1, self.rows
        C, starts, parts, part_cum = self.C, self.part_starts, self.parts, self.part_cum
        for a in reversed(ranks):
            c = a + 1
            p = bisect_right(starts, ep) - 1
            lo = starts[p]
            if sp >= lo:  # rows sp - 1 and ep in part p: one walk ranks both
                r_sp, r_ep = parts[p].rank_pair(c, sp - lo, ep - lo + 1)
                base = C[c] + part_cum[p, c]
                sp, ep = base + r_sp + 1, base + r_ep
            else:
                sp = C[c] + self._bwt_rank(c, sp - 1) + 1
                ep = C[c] + self._bwt_rank(c, ep)
            if sp > ep:
                return None
        return sp, ep

    # --- queries ----------------------------------------------------------------------

    def count(self, pattern) -> int:
        rng = self._backward_range(pattern)
        return 0 if rng is None else rng[1] - rng[0] + 1

    def locate(self, pattern) -> list:
        rng = self._backward_range(pattern)
        if rng is None:
            return []
        out = []
        for r in range(rng[0], rng[1] + 1):
            out.append(self._suffix_position(r))
        return sorted(out)

    def _suffix_position(self, r: int) -> int:
        steps = 0
        marked, j = self.sa_marked.access_rank(r)
        while not marked:
            r = self._lf(r)[1]
            steps += 1
            marked, j = self.sa_marked.access_rank(r)
        pos = get_fixed(self._sa_view, self._samp_width, j - 1) * self.sample_rate + 1 + steps
        if pos > self.n:
            raise InputError(f"a suffix-array sample places a suffix at {pos}, past the text")
        return pos

    def extract(self, l: int, r: int) -> list:
        if not 1 <= l <= r <= self.n:
            raise OutOfRangeError(f"range {l}:{r} out of [1..{self.n}]")
        # first sampled position >= r + 1; r <= n keeps idx within the
        # ceil(n / rate) + 1 samples, the last of which is position n + 1
        rs = self.sample_rate
        idx = -(-r // rs)
        p0 = min(1 + idx * rs, self.rows)
        row = int(self.isa_rows[idx]) + 1
        out = []
        p = p0
        while p > l:
            c, row = self._lf(row)
            out.append(c)
            p -= 1
        return self.alphabet.values_of(np.array(out[::-1][: r - l + 1]) - 1).tolist()

    def extract_bytes(self, l: int, r: int) -> bytes:
        return bytes(v - 1 for v in self.extract(l, r))

    def payload_bits(self) -> int:
        """Model bits of the BWT parts, the row marks and the k w-bit samples."""
        k, w = self._sample_shape()
        return sum(p.payload_bits() for p in self.parts) + self.sa_marked.payload_bits() + k * w

    def bwt_string(self, terminator: str = "$") -> str:
        """External BWT as text (for byte/str-built indexes)."""
        out = []
        for r in range(1, self.rows + 1):
            c = self._bwt_access_rank(r)[0]
            out.append(terminator if c == 1 else chr(self.alphabet.value_of(c - 1) - 1))
        return "".join(out)

    # --- serialization -------------------------------------------------------------------

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.uint(self.k_context)
        w.uint(self.sample_rate)
        w.blob(self.alphabet.serialize())
        w.uint(len(self.parts))
        for p in self.parts:
            w.blob(p.serialize())
        w.blob(self.sa_marked.serialize())
        w.ints(self.sa_samples)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "FmIndex":
        with ByteReader(data) as r:
            obj = cls.__new__(cls)
            obj.k_context = r.uint()
            obj.sample_rate = r.uint()
            if obj.sample_rate < 1:
                raise InputError("index sample rate must be >= 1")
            obj.alphabet = SparseDictionary.deserialize(r.blob())
            obj.sigma = obj.alphabet.size
            obj.parts = [ApSequence.deserialize(r.blob()) for _ in range(r.uint())]
            obj.n = sum(len(p) for p in obj.parts) - 1  # the parts hold the BWT's n + 1 rows
            obj._derive_counts()
            obj.sa_marked = load_bitvector(r.blob())
            obj._set_samples(r.ints())
        k, w = obj._sample_shape()
        # sample values are checked where the first extract unpacks them all
        if (obj.n < 1 or len(obj.sa_marked) != obj.rows or obj.sa_marked.count(1) != k
                or obj.sa_samples.size != -(-k * w // 64)):
            raise InputError("index rows, row marks and samples disagree")
        return obj


def build_fm_index(text, k_context: int = 0, sample_rate: int | None = None) -> FmIndex:
    return FmIndex(text, k_context=k_context, sample_rate=sample_rate)
