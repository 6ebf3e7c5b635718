"""Wavelet matrices (Claude, Navarro & Ordóñez, Inf. Syst. 2015): a
Huffman-shaped one for small alphabets (``PolySequence``), zero-order
compressed, and a balanced one for the large classes of an ``ApSequence``
that repeat symbols (``BalancedSequence``).

Symbols [1..sigma] keep Huffman code lengths, so the payload is near n*H0,
and skewed levels use the sparse bitvector encoding.  Level d holds code
bit d (MSB first) of the positions still in internal nodes of depth d, and
level d+1 is level d stably partitioned by that bit.  So depth d+1 lists
the 0-children of the I_d internal nodes of depth d, then their 1-children
(node j: parent j mod I_d, branch bit j div I_d).  Internal nodes come
first; the last L_{d+1} nodes are the leaves, the symbols of code length
d+1 in ascending order.  So position i with bit b moves to rank_b(i) on
the next level, plus level d's zero count if b = 1, and is in a leaf when
that is past the next level's length.  One symbol makes a matrix with no
levels, which takes the same walk.  Only the counts and the levels are
stored; load derives n and sigma (the counts' sum and number), the code
lengths, the codes, the level count, each level's length and zero count
and the leaf starts, and refuses levels that disagree.  Build and load
both take the code lengths from ``huffman_code_lengths``, so its tie rule
(pinned by ``test_huffman_lengths_match_member_lists``) is part of the
format.  They and the shape are computed on lists, as sigma is small.

The three top-down walks (``access_rank``, ``rank``, ``rank_pair``) read a
plain level's words and per-word ones counts themselves, the memoryviews
``_word_view`` and ``_cum`` of ``PlainBitVector``, so a plain level costs
no method call; a sparse level answers through its own ``access_rank`` or
``rank``.  Either way a zero-rank is the position minus the ones, and the
walk's positions are in range by construction, so only the entry is
checked.  ``select`` walks up through ``PlainBitVector.select``: an inlined
select, with an interpolated word search, was slower there than the call.

``BalancedSequence`` gives symbol c the L = ceil(lg sigma)-bit code c - 1,
and level d holds bit d of it, least significant bit first, at every
position: level d + 1 is level d stably partitioned by that bit.  That is
an LSD radix sort of the codes, so the last level ends with its leaves in
symbol order, each symbol's positions in sequence order.  (MSB first, the
leaves would come in bit-reversed order and need a table to find.)  So
one cumulative count array of sigma + 1 entries is both the leaf starts
and the counts: a walk down that ends at position p of c's leaf has
rank_c = p - start[c], and select_c(j) walks up from start[c] + j.  The L
levels, each n bits padded to whole words, are one ``PlainBitVector``,
so a load builds one directory; the walks down read its ``_word_view`` and
``_cum`` inline, level d's words from d * ceil(n / 64) on, and select calls
its ``select`` with the ranks offset by the ones, or the zeros (padding
included), of the levels before d.  A code of sigma or more, which only
corrupt levels can make, ends an access in InputError.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import accumulate

import numpy as np

from .bits import (WORD_BITS, ByteReader, ByteWriter, byte_width, pack_bits, pack_fixed,
                   symbol_array, unpack_bits, unpack_fixed)
from .bitvec import PlainBitVector, bitvector, load_bitvector
from .errors import InputError, NotFoundError, OutOfRangeError


def huffman_code_lengths(counts: np.ndarray) -> np.ndarray:
    """Code length per symbol (0 for absent symbols).  Ties merge the leaves
    in symbol order before the merged nodes in creation order, the order of
    the node ids: leaves 0..k-1, then merge m makes node k + m."""
    counts = counts.tolist()  # lists: sigma is small, and a load makes one code per class
    alive = [sym for sym, c in enumerate(counts) if c]
    k = len(alive)
    heap = [(counts[sym], leaf) for leaf, sym in enumerate(alive)]
    heapq.heapify(heap)
    parent = [0] * (2 * k - 1)
    for node in range(k, 2 * k - 1):
        c1, a = heapq.heappop(heap)
        c2, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (c1 + c2, node))
    depth = [0] * (2 * k - 1)
    for node in range(2 * k - 3, -1, -1):  # from the root, 2k - 2, down
        depth[node] = depth[parent[node]] + 1
    lengths = [0] * len(counts)
    for sym, d in zip(alive, depth):
        lengths[sym] = d
    return np.array(lengths, dtype=np.int64)


def matrix_shape(lengths: list):
    """The code per symbol (MSB first, 0 for length 0) of a full code with
    these lengths, laid out with the leaves last at each depth in ascending
    symbol order; the symbols by code length down and symbol up; and per
    depth d, the internal node count and the symbols longer than d.  Lists,
    not numpy: sigma is small, and numpy's per-call cost slowed loads."""
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    depth = lengths[order[0]] if order else 0
    down = [-lengths[sym] for sym in order]
    longer = [bisect_left(down, -d) for d in range(depth + 2)]
    codes = [0] * len(lengths)
    inner = [0] if depth else []  # codes of the internal nodes of depth d
    internal = [len(inner)]
    for d in range(1, depth + 1):
        nodes = [c << 1 for c in inner] + [c << 1 | 1 for c in inner]
        internal.append(len(nodes) - (longer[d - 1] - longer[d]))
        for sym, code in zip(order[longer[d] : longer[d - 1]], nodes[internal[-1] :]):
            codes[sym] = code
        inner = nodes[: internal[-1]]
    return codes, order, internal, longer


class PolySequence:
    """Huffman-shaped wavelet matrix; alphabet [1..sigma] with sigma small."""

    def __init__(self, seq, alphabet_size: int | None = None):
        arr = symbol_array(seq, alphabet_size)
        sigma = int(alphabet_size) if alphabet_size else int(arr.max())
        self.n = arr.size
        self.sigma = sigma
        self._counts = np.bincount(arr - 1, minlength=sigma).astype(np.int64)
        level_lengths, steps = self._derive_shape()
        codes, lengths = np.array(self._code), np.array(self._length)
        levels = []
        below = arr - 1  # symbols of the positions at the current level
        for d in range(len(steps)):
            bits = (((codes >> np.maximum(lengths - 1 - d, 0)) & 1 & (lengths > d))
                    .astype(np.uint8)[below])
            levels.append(bitvector(bits))
            below = below[np.argsort(bits, kind="stable")[: level_lengths[d + 1]]]
        self._set_levels(levels, steps)

    def _derive_shape(self):
        """Set code lengths, codes, zero counts, leaf starts, count list and leaf
        table from the counts; return the level lengths (and a final 0) and the walk steps."""
        lengths, counts = huffman_code_lengths(self._counts).tolist(), self._counts.tolist()
        # one symbol: no levels, code length 0, leaf start 0; access names it
        self._only = counts.index(max(counts))
        self._code, order, internal, longer = matrix_shape(lengths)
        depth = len(internal) - 1
        # by code length down, then symbol up: a leaf starts after every
        # position of a longer code and of a same-length smaller symbol
        before = list(accumulate((counts[sym] for sym in order), initial=0))
        self._start, self._by_leaf = [0] * len(counts), order
        self._length, self._count = lengths, counts  # lists: their items are ints
        for sym, start in zip(order, before):
            self._start[sym] = start
        level_lengths = [before[longer[d]] for d in range(depth + 1)]
        self._zeros, weight = [0] * depth, []
        for d in range(depth - 1, -1, -1):  # node weights, deepest first
            nodes = weight + [counts[sym] for sym in order[longer[d + 1] : longer[d]]]
            self._zeros[d] = sum(nodes[: internal[d]])  # of the 0-children, which come first
            weight = [a + b for a, b in zip(nodes[: internal[d]], nodes[internal[d] :])]
        steps = [(self._zeros[d], internal[d], internal[d + 1], longer[d + 1] - internal[d + 1])
                 for d in range(depth)]
        return level_lengths, steps

    def _set_levels(self, levels: list, steps: list):
        """Keep the levels, and per level the walk's row: a plain level's
        words and ones counts (None for a sparse one), the level, its zero
        count and the node fields of ``access_rank``'s step."""
        self._levels, self._walk = levels, []
        for bv, step in zip(levels, steps):
            words, cum = (bv._word_view, bv._cum) if bv.kind == "plain" else (None, None)
            self._walk.append((words, cum, bv, *step))

    def __len__(self):
        return self.n

    def occurrences(self, a: int) -> int:
        if not 1 <= a <= self.sigma:
            return 0
        return self._count[a - 1]

    def symbol_counts(self) -> np.ndarray:
        """Occurrences of symbols 1..sigma, as one array."""
        return self._counts

    def access(self, i: int) -> int:
        return self.access_rank(i)[0]

    def access_rank(self, i: int) -> tuple[int, int]:
        """(symbol a at i, rank_a(i)) from one walk down the levels: the
        position reached in a's leaf, minus a's leaf start, is the rank."""
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        node = 0
        for words, cum, bv, zeros, internal, next_internal, leaf_base in self._walk:
            if words is None:
                b, i = bv.access_rank(i)
            else:  # the word that holds i: its bit, and the ones up to it
                p = i - 1
                w, r = p >> 6, p & 63
                word = words[w]
                ones = cum[w] + (word & ((2 << r) - 1)).bit_count()
                b = (word >> r) & 1
                i = ones if b else i - ones
            if b:
                i += zeros
                node += internal
            if node >= next_internal:
                a = self._by_leaf[leaf_base + node]
                return a + 1, i - self._start[a]
        return self._only + 1, i  # no levels: a constant sequence

    def rank(self, a: int, i: int) -> int:
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.n}]")
        if i == 0 or not 1 <= a <= self.sigma or self._count[a - 1] == 0:
            return 0
        code, shift = self._code[a - 1], self._length[a - 1]
        for words, cum, bv, zeros, _, _, _ in self._walk[:shift]:
            if words is None:
                ones = bv.rank(i, 1)
            else:  # i = n on a word boundary reads the last count alone
                w, r = i >> 6, i & 63
                ones = cum[w]
                if r:
                    ones += (words[w] & ((1 << r) - 1)).bit_count()
            shift -= 1
            i = zeros + ones if (code >> shift) & 1 else i - ones
        return i - self._start[a - 1]

    def rank_pair(self, a: int, i: int, j: int) -> tuple[int, int]:
        """(rank_a(i), rank_a(j)) for 0 <= i <= j <= n from one walk of a's
        code, each level ranking both positions."""
        if not 0 <= i <= j <= self.n:
            raise OutOfRangeError(f"rank positions {i}, {j} not in order within [0..{self.n}]")
        if not 1 <= a <= self.sigma or self._count[a - 1] == 0:
            return 0, 0
        code, shift = self._code[a - 1], self._length[a - 1]
        for words, cum, bv, zeros, _, _, _ in self._walk[:shift]:
            if words is None:
                ones_i, ones_j = bv.rank(i, 1), bv.rank(j, 1)
            else:
                w, r = i >> 6, i & 63
                ones_i = cum[w]
                if r:
                    ones_i += (words[w] & ((1 << r) - 1)).bit_count()
                w, r = j >> 6, j & 63
                ones_j = cum[w]
                if r:
                    ones_j += (words[w] & ((1 << r) - 1)).bit_count()
            shift -= 1
            if (code >> shift) & 1:
                i, j = zeros + ones_i, zeros + ones_j
            else:
                i, j = i - ones_i, j - ones_j
        start = self._start[a - 1]
        return i - start, j - start

    def select(self, a: int, j: int) -> int:
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        if not 1 <= a <= self.sigma or j > self._count[a - 1]:
            raise NotFoundError(f"fewer than {j} occurrences of symbol {a}")
        code = self._code[a - 1]
        j += self._start[a - 1]
        for d in range(self._length[a - 1] - 1, -1, -1):
            if code & 1:
                j = self._levels[d].select(j - self._zeros[d], 1)
            else:
                j = self._levels[d].select(j, 0)
            code >>= 1
        return j

    def decode(self) -> np.ndarray:
        """Reconstruct the whole sequence, one stable partition per level,
        from the deepest level up (values 1..sigma)."""
        order = np.array(self._by_leaf)
        seq = np.repeat(order, self._counts[order])  # level d ends with depth d+1's leaves
        for bv in reversed(self._levels):
            bits = bv.to_bits()
            seq[: bits.size][np.argsort(bits, kind="stable")] = seq[: bits.size].copy()
        return seq + 1

    # --- space accounting ---------------------------------------------------

    def verify(self):
        """``SparseBitVector.verify`` of each sparse level, which a load trusts."""
        for bv in self._levels:
            if bv.kind == "sparse":
                bv.verify()

    def payload_bits(self) -> int:
        return sum(bv.payload_bits() for bv in self._levels)

    def directory_bits(self) -> int:
        return sum(bv.directory_bits() for bv in self._levels)

    def topology_bits(self) -> int:
        return 8 * self.sigma * byte_width(max(self._count))  # the stored counts

    # --- serialization --------------------------------------------------------

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.ints(self._counts)
        for bv in self._levels:
            w.blob(bv.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "PolySequence":
        """The matrix of the stored symbol counts and levels; raises
        InputError when a level disagrees with the counts."""
        obj = cls.__new__(cls)
        with ByteReader(data) as r:
            counts = r.ints()
            obj.sigma, obj.n = counts.size, sum(counts.tolist())
            if not 1 <= obj.n < 1 << 63:
                raise InputError("symbol counts do not describe a sequence")
            obj._counts = counts.astype(np.int64)
            level_lengths, steps = obj._derive_shape()
            levels = [load_bitvector(r.blob()) for _ in steps]
        for bv, length, zeros in zip(levels, level_lengths, obj._zeros):
            if len(bv) != length or bv.count(0) != zeros:
                raise InputError("a wavelet level does not match the symbol counts")
        obj._set_levels(levels, steps)
        return obj


class BalancedSequence:
    """Balanced wavelet matrix over [1..sigma]: symbol c has the
    L = ceil(lg sigma)-bit code c - 1, level d holds its bit d, and the
    leaves end in symbol order (see the module docstring)."""

    def __init__(self, seq, alphabet_size: int | None = None):
        arr = symbol_array(seq, alphabet_size)
        sigma = int(alphabet_size) if alphabet_size else int(arr.max())
        code = arr - 1
        counts, levels = np.bincount(code, minlength=sigma), []
        for d in range((sigma - 1).bit_length()):
            bits = (code & (1 << d)) != 0
            levels.append(pack_bits(bits))
            code = code[np.argsort(bits, kind="stable")]  # zeros first
        words = np.concatenate(levels) if levels else np.zeros(0, dtype=np.uint64)
        self._set(counts, words)

    def _set(self, counts: np.ndarray, words: np.ndarray):
        """Derive the leaf starts, the levels' zero counts and the walks'
        rows from the symbol counts, and keep the levels' words as one
        plain vector; return the levels' ones counts by the words and by
        the counts."""
        self.sigma = sigma = counts.size
        cum = np.zeros(sigma + 1, dtype=np.int64)
        np.cumsum(counts, out=cum[1:])
        self.n = n = int(cum[-1])
        self._start = memoryview(cum.astype(np.uint32 if n < 1 << 32 else np.int64))
        depth = (sigma - 1).bit_length()
        nw = -(-n // WORD_BITS)  # words per level
        self._bv = bv = PlainBitVector(words, depth * nw * WORD_BITS)
        self._words, self._cum = bv._word_view, bv._cum
        # zeros of level d: n minus the occurrences of the codes with bit d set
        code_bits = np.unpackbits(np.arange(sigma, dtype="<u4").view(np.uint8).reshape(sigma, 4),
                                  axis=1, count=depth, bitorder="little")
        zeros = [n - ones for ones in (counts @ code_bits).tolist()]
        before = [self._cum[d * nw] for d in range(depth + 1)]  # ones before each level
        # per level: (its code bit, first word, ones before, zeros - ones before)
        self._walk = [(1 << d, d * nw, before[d], zeros[d] - before[d]) for d in range(depth)]
        return [b - a for a, b in zip(before, before[1:])], [n - z for z in zeros]

    def __len__(self):
        return self.n

    def symbol_counts(self) -> np.ndarray:
        """Occurrences of symbols 1..sigma, as one array."""
        return np.diff(np.asarray(self._start)).astype(np.int64)

    def access(self, i: int) -> int:
        return self.access_rank(i)[0]

    def access_rank(self, i: int) -> tuple[int, int]:
        """(symbol a at i, rank_a(i)): the code's bits from one walk down,
        and the rank from the position reached in a's leaf."""
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        words, cum, code = self._words, self._cum, 0
        for bit, base, before, shift in self._walk:
            p = i - 1
            w, r = base + (p >> 6), p & 63
            word = words[w]
            ones = cum[w] + (word & ((2 << r) - 1)).bit_count()
            if (word >> r) & 1:
                i = ones + shift
                code |= bit
            else:
                i += before - ones
        if code >= self.sigma:
            raise InputError(f"a balanced wavelet level is corrupt: code {code} past the alphabet")
        return code + 1, i - self._start[code]

    def rank(self, a: int, i: int) -> int:
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.n}]")
        if i == 0 or not 1 <= a <= self.sigma:
            return 0
        words, cum, code = self._words, self._cum, a - 1
        for bit, base, before, shift in self._walk:
            w, r = base + (i >> 6), i & 63
            ones = cum[w]  # at i = n on a word boundary, the next level's first count
            if r:
                ones += (words[w] & ((1 << r) - 1)).bit_count()
            if code & bit:
                i = ones + shift
            else:
                i += before - ones
        return i - self._start[a - 1]

    def select(self, a: int, j: int) -> int:
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        if not 1 <= a <= self.sigma or j > self._start[a] - self._start[a - 1]:
            raise NotFoundError(f"fewer than {j} occurrences of symbol {a}")
        code, j, select = a - 1, j + self._start[a - 1], self._bv.select
        for bit, base, before, shift in reversed(self._walk):
            first = base << 6  # the level's first bit; the zeros before it are first - before
            if code & bit:
                j = select(j - shift, 1) - first
            else:
                j = select(j + first - before, 0) - first
        return j

    def decode(self) -> np.ndarray:
        """Reconstruct the whole sequence from the leaves up, one stable
        unpartition per level (values 1..sigma)."""
        seq = np.repeat(np.arange(1, self.sigma + 1), self.symbol_counts())
        n = self.n
        bits = unpack_bits(self._bv.words, len(self._bv)).view(bool)
        bits = bits.reshape(-1, -(-n // WORD_BITS) * WORD_BITS)[:, :n]  # a row per level
        for level in bits[::-1]:
            above = np.empty_like(seq)
            zeros = n - int(np.count_nonzero(level))
            above[~level], above[level] = seq[:zeros], seq[zeros:]
            seq = above
        return seq

    # --- space accounting ---------------------------------------------------

    def payload_bits(self) -> int:
        return self._bv.payload_bits()

    def directory_bits(self) -> int:
        """The vector's directory and the leaf starts."""
        return self._bv.directory_bits() + self._start.nbytes * 8

    def topology_bits(self) -> int:
        """The stored counts: offsets from their minimum at a fixed width."""
        counts = self.symbol_counts()
        return self.sigma * int(counts.max() - counts.min()).bit_length()

    # --- serialization --------------------------------------------------------

    def serialize(self) -> bytes:
        counts = self.symbol_counts()
        low = int(counts.min())
        width = int(counts.max() - low).bit_length()
        w = ByteWriter()
        w.uint(self.sigma)
        w.uint(low)
        w.uint(width)
        w.ints(pack_fixed((counts - low).astype(np.uint64), width))
        w.ints(self._bv.words)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "BalancedSequence":
        """The matrix of the stored counts and words; raises InputError
        when the counts are not at their least width, or the words do not
        fit the counts."""
        with ByteReader(data) as r:
            sigma, low, width = r.uint(), r.uint(), r.uint()
            packed, words = r.ints(), r.ints()
        # sigma is bounded by the payload before any array of sigma entries:
        # at width 0 every count is low >= 1, so the levels hold n >= sigma
        # bits (one symbol has none); and sigma times a count fits int64
        if (not 1 <= sigma <= WORD_BITS * (packed.size + words.size) + 1
                or packed.size != -(-sigma * width // WORD_BITS)
                or (sigma * width % WORD_BITS and int(packed[-1]) >> (sigma * width % WORD_BITS))
                or sigma * (low + (1 << width)) >= 1 << 63):
            raise InputError("balanced wavelet counts: wrong width or length")
        offsets = unpack_fixed(packed, width, sigma).astype(np.int64)
        if int(offsets.max()).bit_length() != width or offsets.min() != 0:
            raise InputError("balanced wavelet counts: not offsets from their minimum")
        counts = offsets + low
        n = int(counts.sum())
        depth, nw = (sigma - 1).bit_length(), -(-n // WORD_BITS)
        if n < 1 or words.size != depth * nw:
            raise InputError("balanced wavelet words do not match its counts")
        if n % WORD_BITS and (words[nw - 1 :: nw] >> np.uint64(n % WORD_BITS)).any():
            raise InputError("balanced wavelet level has a padding bit set")
        obj = cls.__new__(cls)
        ones, want = obj._set(counts, words)
        if ones != want:
            raise InputError("a balanced wavelet level does not match the symbol counts")
        return obj
