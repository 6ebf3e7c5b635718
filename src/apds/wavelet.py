"""Zero-order compressed sequences over small alphabets: a Huffman-shaped
wavelet matrix (Claude, Navarro & Ordóñez, Inf. Syst. 2015).

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
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import accumulate

import numpy as np

from .bits import ByteReader, ByteWriter, byte_width, symbol_array
from .bitvec import bitvector, load_bitvector
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
