"""Block-encoded texts and a BWT-based self-index.

BlockStore cuts a sequence into fixed-length blocks and keeps one copy of
each distinct block content plus the compressed block-id string, giving
O(1) access.  BlockRelation adds rank/select: a per-character sparse
bitmap over block indices records which blocks contain the character, and
a unary bitmap P concatenates the per-(character, block) occurrence
counts so cumulative counts resolve in O(1).

FmIndex supports count/locate/extract by backward search over the
Burrows-Wheeler transform (stored as ApSequence, optionally split by
length-k right-context), with text-regular suffix-array samples for
locate and inverse samples for extract.  The inverse samples sit at text
positions 1, 1 + rate, 1 + 2 rate, ... and at the last position, so only
their rows are stored.  Load derives each part's first row, the per-part
cumulative symbol counts and the C array from the parts themselves, with
the same method that build calls (``_derive_counts``).
"""

from __future__ import annotations

import math

import numpy as np

from .apseq import ApSequence
from .bits import ByteReader, ByteWriter, get_fixed, pack_fixed
from .bitvec import SparseDictionary, bitvector_from_positions, bitvector, read_bitvector
from .errors import InputError, NotFoundError, OutOfRangeError
from .permutation import _validate_permutation  # bijection check for LF tests


def text_symbols(data) -> list:
    """Bytes or str to positive symbol values (byte value + 1)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, (bytes, bytearray)):
        return [b + 1 for b in data]
    return list(data)


def suffix_array(t: np.ndarray) -> np.ndarray:
    """1-based suffix array by prefix doubling; all suffixes must be
    distinct (guaranteed by a unique terminator)."""
    n = t.size
    rank = t.astype(np.int64)
    k = 1
    while True:
        key2 = np.zeros(n, dtype=np.int64)
        if k < n:
            key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        r1, r2 = rank[order], key2[order]
        bump = np.empty(n, dtype=np.int64)
        bump[0] = 1
        if n > 1:
            bump[1:] = ((r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])).astype(np.int64)
        fresh = np.cumsum(bump)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = fresh
        if fresh[-1] == n:
            break
        k *= 2
    sa = np.empty(n, dtype=np.int64)
    sa[rank - 1] = np.arange(1, n + 1)
    return sa


def bwt_of(t: np.ndarray, sa: np.ndarray) -> np.ndarray:
    prev = sa - 1
    prev[prev == 0] = t.size
    return t[prev - 1]


class BlockStore:
    """Fixed-length blocking with one stored copy per distinct content."""

    def __init__(self, seq, block_len: int | None = None,
                 alphabet_size: int | None = None):
        arr = np.asarray(seq, dtype=np.int64)
        if arr.size == 0:
            raise InputError("empty input")
        if arr.min() < 1:
            raise InputError("symbols must be positive integers")
        self.n = int(arr.size)
        self.sigma = int(alphabet_size) if alphabet_size else int(arr.max())
        if arr.max() > self.sigma:
            raise InputError("symbol exceeds declared alphabet size")
        if block_len is None:
            block_len = self._default_block_len(self.n, self.sigma)
        self.block_len = int(block_len)
        if self.block_len < 1:
            raise InputError("block length must be >= 1")
        b = self.block_len
        self.num_blocks = (self.n + b - 1) // b
        padded = np.ones(self.num_blocks * b, dtype=np.int64)  # pad with smallest
        padded[: self.n] = arr
        blocks = padded.reshape(self.num_blocks, b)
        ids = np.zeros(self.num_blocks, dtype=np.int64)
        seen: dict = {}
        contents = []
        for j, row in enumerate(map(tuple, blocks.tolist())):
            d = seen.get(row)
            if d is None:
                d = len(seen) + 1
                seen[row] = d
                contents.append(row)
            ids[j] = d
        self.contents = np.array(contents, dtype=np.int64)
        self.sprime = ApSequence(ids)

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

    def block_counts(self) -> np.ndarray:
        """(num_blocks, sigma) occurrence counts, padding excluded."""
        b = self.block_len
        counts = np.zeros((self.num_blocks, self.sigma), dtype=np.int64)
        for j in range(self.num_blocks):
            row = self.contents[self.sprime.access(j + 1) - 1]
            valid = min(b, self.n - j * b)
            counts[j] += np.bincount(row[:valid] - 1, minlength=self.sigma)
        return counts

    def payload_bits(self) -> int:
        return (
            self.sprime.payload_bits()
            + self.contents.size * max(1, (self.sigma - 1).bit_length())
        )

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u64(self.n)
        w.u64(self.sigma)
        w.u64(self.block_len)
        w.u64_array(self.contents.reshape(-1).astype(np.uint64))
        w.blob(self.sprime.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "BlockStore":
        r = ByteReader(data)
        obj = cls.__new__(cls)
        obj.n = r.u64()
        obj.sigma = r.u64()
        obj.block_len = r.u64()
        contents = r.u64_array().astype(np.int64)
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
        counts = store.block_counts()
        sigma, nb = store.sigma, store.num_blocks
        self._rows = []
        p_bits = []
        pair_counts = np.zeros(sigma, dtype=np.int64)
        for a in range(sigma):
            hit = np.flatnonzero(counts[:, a] > 0)
            pair_counts[a] = hit.size
            self._rows.append(bitvector_from_positions(nb, hit))
            for x in counts[hit, a]:
                p_bits.extend([1] * int(x))
                p_bits.append(0)
        self.P = bitvector(np.array(p_bits, dtype=np.uint8))
        self.c_pairs = np.zeros(sigma + 1, dtype=np.int64)
        np.cumsum(pair_counts, out=self.c_pairs[1:])
        self.c_ones = np.zeros(sigma + 1, dtype=np.int64)
        np.cumsum(counts.sum(axis=0), out=self.c_ones[1:])

    def _cum(self, a: int, r: int) -> int:
        """Total occurrences of a within its first r blocks."""
        if r == 0:
            return 0
        base = int(self.c_pairs[a - 1])
        start = self.P.rank(self.P.select(base, 0), 1) if base else 0
        return self.P.rank(self.P.select(base + r, 0), 1) - start

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
        pos = self.P.select(int(self.c_ones[a - 1]) + j, 1)
        r = self.P.rank(pos, 0) - int(self.c_pairs[a - 1]) + 1
        before = self._cum(a, r - 1)
        jb = self._rows[a - 1].select(r, 1)
        row = store.contents[store.sprime.access(jb) - 1]
        hits = np.flatnonzero(row == a)
        off = int(hits[j - before - 1]) + 1
        return (jb - 1) * store.block_len + off

    def check_invariants(self):
        n_ones = self.P.count(1)
        assert n_ones == self.store.n, "P must hold one 1-bit per text position"
        for a in range(1, self.store.sigma + 1):
            assert self._cum(a, int(self.c_pairs[a] - self.c_pairs[a - 1])) == int(
                self.c_ones[a] - self.c_ones[a - 1]
            )


class FmIndex:
    """count/locate/extract over a text via backward search."""

    def __init__(self, text, k_context: int = 0, sample_rate: int | None = None):
        arr = np.asarray(text_symbols(text), dtype=np.int64)
        if arr.size == 0:
            raise InputError("empty input")
        if arr.min() < 1:
            raise InputError("symbols must be positive integers")
        if k_context < 0:
            raise InputError("context length must be >= 0")
        uniq = np.unique(arr)
        self.alphabet = SparseDictionary(uniq)
        dense = np.searchsorted(uniq, arr).astype(np.int64) + 2  # 1 = terminator
        self.n = int(arr.size)
        self.sigma = int(uniq.size)
        self.k_context = int(k_context)
        t = np.concatenate([dense, [1]])
        sa = suffix_array(t)
        bwt = bwt_of(t, sa)
        if sample_rate is None:
            sample_rate = self._default_sample_rate(self.n, self.sigma)
        self.sample_rate = max(1, int(sample_rate))
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
        starts = [1]
        if k > 0:
            prev = None
            for r in range(m):
                p = int(sa[r])
                key = tuple(t[p - 1 : p - 1 + k].tolist())
                if prev is not None and key != prev:
                    starts.append(r + 1)
                prev = key
        bounds = np.append(starts, m + 1)
        self.parts = [ApSequence(bwt[lo - 1 : hi - 1], general_alphabet=True)
                      for lo, hi in zip(bounds[:-1], bounds[1:])]

    def _derive_counts(self):
        """Set part_starts (first row of each part), part_cum (occurrences
        of each symbol in the parts before each part) and C (occurrences of
        the symbols smaller than each symbol) from the parts' lengths and
        symbol counts."""
        lengths = np.array([len(p) for p in self.parts], dtype=np.int64)
        if lengths.sum() != self.rows:
            raise InputError("BWT parts do not cover the index rows")
        self.part_starts = np.cumsum(lengths) - lengths + 1
        occ = np.zeros((len(self.parts) + 1, self.sigma + 2), dtype=np.int64)
        for p, part in enumerate(self.parts):
            symbols = (np.arange(1, part.sigma + 1) if part.alphabet_dict is None
                       else part.alphabet_dict.values())
            if symbols[-1] > self.sigma + 1:
                raise InputError("a BWT part holds a symbol outside the index alphabet")
            occ[p + 1, symbols] = part.partition.occ
        self.part_cum = np.cumsum(occ, axis=0)
        self.C = np.concatenate([[0], np.cumsum(self.part_cum[-1])[:-1]])

    def _build_samples(self, sa):
        m = sa.size
        rs = self.sample_rate
        marked_rows = np.flatnonzero((sa - 1) % rs == 0)  # 0-based rows
        self.sa_marked = bitvector_from_positions(m, marked_rows)
        width = max(1, (m - 1).bit_length())
        self._samp_width = width
        self.sa_samples = pack_fixed(
            (sa[marked_rows] - 1).astype(np.uint64), width
        )
        isa = np.empty(m + 1, dtype=np.int64)
        isa[sa] = np.arange(1, m + 1)
        pos = np.arange(1, m + 1, rs, dtype=np.int64)
        if pos[-1] != m:
            pos = np.append(pos, m)
        self.isa_rows = pack_fixed((isa[pos] - 1).astype(np.uint64), width)

    # --- core navigation -----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.n + 1

    def _bwt_access_rank(self, r: int) -> tuple[int, int]:
        """(BWT symbol c at row r, rank_c(r)) from one ApSequence walk."""
        p = int(np.searchsorted(self.part_starts, r, side="right")) - 1
        c, rank = self.parts[p].access_rank(r - int(self.part_starts[p]) + 1)
        return c, int(self.part_cum[p][c]) + rank

    def _bwt_rank(self, a: int, r: int) -> int:
        if r == 0:
            return 0
        p = int(np.searchsorted(self.part_starts, r, side="right")) - 1
        return int(self.part_cum[p][a]) + self.parts[p].rank(
            a, r - int(self.part_starts[p]) + 1
        )

    def _lf(self, r: int) -> tuple[int, int]:
        """(BWT symbol at row r, LF(r))."""
        c, rank = self._bwt_access_rank(r)
        return c, int(self.C[c]) + rank

    def lf_mapping(self) -> np.ndarray:
        """The LF permutation over all rows (test/diagnostic helper)."""
        arr = np.array([self._lf(r)[1] for r in range(1, self.rows + 1)], dtype=np.int64)
        _validate_permutation(arr)
        return arr

    def _pattern_internal(self, pattern):
        syms = text_symbols(pattern)
        if len(syms) == 0:
            raise InputError("empty pattern")
        out = []
        for v in syms:
            if not 1 <= v <= self.alphabet.universe_max:
                return None
            idx = self.alphabet.index_of(int(v))
            if idx is None:
                return None
            out.append(idx + 1)
        return out

    def _backward_range(self, pattern):
        syms = self._pattern_internal(pattern)
        if syms is None:
            return None
        sp, ep = 1, self.rows
        for c in reversed(syms):
            sp = int(self.C[c]) + self._bwt_rank(c, sp - 1) + 1
            ep = int(self.C[c]) + self._bwt_rank(c, ep)
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
        return get_fixed(self.sa_samples, self._samp_width, j - 1) + 1 + steps

    def extract(self, l: int, r: int) -> list:
        if not 1 <= l <= r <= self.n:
            raise OutOfRangeError(f"range {l}:{r} out of [1..{self.n}]")
        # first sampled position >= r + 1; r <= n keeps idx within the
        # ceil(n / rate) + 1 samples, the last of which is position n + 1
        rs = self.sample_rate
        idx = -(-r // rs)
        p0 = min(1 + idx * rs, self.rows)
        row = get_fixed(self.isa_rows, self._samp_width, idx) + 1
        out = []
        p = p0
        while p > l:
            c, row = self._lf(row)
            out.append(c)
            p -= 1
        seq = out[::-1][: r - l + 1]
        return [self.alphabet.value_of(c - 1) for c in seq]

    def extract_bytes(self, l: int, r: int) -> bytes:
        return bytes(v - 1 for v in self.extract(l, r))

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
        w.u64(self.n)
        w.u64(self.k_context)
        w.u64(self.sample_rate)
        w.blob(self.alphabet.serialize())
        w.u64(len(self.parts))
        for p in self.parts:
            w.blob(p.serialize())
        w.blob(self.sa_marked.serialize())
        w.u64_array(self.sa_samples)
        w.u64_array(self.isa_rows)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "FmIndex":
        r = ByteReader(data)
        obj = cls.__new__(cls)
        obj.n = r.u64()
        obj.k_context = r.u64()
        obj.sample_rate = r.u64()
        if obj.sample_rate < 1:
            raise InputError("index sample rate must be >= 1")
        obj.alphabet = SparseDictionary.deserialize(r.blob())
        obj.sigma = obj.alphabet.size
        obj.parts = [ApSequence.deserialize(r.blob()) for _ in range(r.u64())]
        obj._derive_counts()
        obj.sa_marked = read_bitvector(ByteReader(r.blob()))
        obj.sa_samples = r.u64_array()
        obj.isa_rows = r.u64_array()
        obj._samp_width = max(1, (obj.rows - 1).bit_length())
        if obj.isa_rows.size * 64 < (-(-obj.n // obj.sample_rate) + 1) * obj._samp_width:
            raise InputError("inverse samples are fewer than the text positions need")
        return obj


def build_fm_index(text, k_context: int = 0, sample_rate: int | None = None) -> FmIndex:
    return FmIndex(text, k_context=k_context, sample_rate=sample_rate)
