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
levels, which takes the same walk.  Only the code lengths, the counts and
the levels are stored; load derives n and sigma (the counts' sum and
number), the codes, the level count, each level's length and zero count
and the leaf starts, and refuses levels that disagree.  The code lengths,
like the shape, are computed on lists, as sigma is small.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import accumulate

import numpy as np

from .bits import ByteReader, ByteWriter
from .bitvec import bitvector, load_bitvector
from .errors import InputError, NotFoundError, OutOfRangeError


def huffman_code_lengths(counts: np.ndarray) -> np.ndarray:
    """Code length per symbol (0 for absent symbols).  Ties merge the leaves
    in symbol order before the merged nodes in creation order, the order of
    the node ids: leaves 0..k-1, then merge m makes node k + m."""
    alive = np.flatnonzero(counts > 0)
    k = alive.size
    heap = list(zip(counts[alive].tolist(), range(k)))
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
    lengths = np.zeros(counts.size, dtype=np.int64)
    lengths[alive] = depth[:k]
    return lengths


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
        if not 0 <= internal[-1] <= longer[d]:  # each internal node needs a leaf below
            raise InputError("code lengths do not describe a full binary tree")
        for sym, code in zip(order[longer[d] : longer[d - 1]], nodes[internal[-1] :]):
            codes[sym] = code
        inner = nodes[: internal[-1]]
    return codes, order, internal, longer


class PolySequence:
    """Huffman-shaped wavelet matrix; alphabet [1..sigma] with sigma small."""

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
        self._counts = np.bincount(arr - 1, minlength=sigma).astype(np.int64)
        self._lengths = huffman_code_lengths(self._counts)
        level_lengths, steps = self._derive_shape()
        codes, lengths = np.array(self._code, dtype=np.int64), self._lengths
        levels = []
        below = arr - 1  # symbols of the positions at the current level
        for d in range(len(steps)):
            bits = (((codes >> np.maximum(lengths - 1 - d, 0)) & 1 & (lengths > d))
                    .astype(np.uint8)[below])
            levels.append(bitvector(bits))
            below = below[np.argsort(bits, kind="stable")[: level_lengths[d + 1]]]
        self._set_levels(levels, steps)

    def _derive_shape(self):
        """Set codes, zero counts, leaf starts, count list and leaf table from
        lengths and counts; return the level lengths (and a final 0) and the walk steps."""
        lengths, counts = self._lengths.tolist(), self._counts.tolist()
        coded = [s for s, c in enumerate(counts) if c]
        # one symbol: no levels, code length 0, leaf start 0; access names it
        self._only = coded[0] if len(coded) == 1 else None
        if [s for s, length in enumerate(lengths) if length] != (coded if len(coded) > 1 else []):
            raise InputError("code lengths do not match the symbol counts")
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
        self._levels = levels
        self._walk = [(bv, *step) for bv, step in zip(levels, steps)]

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
        for bv, zeros, internal, next_internal, leaf_base in self._walk:
            b, i = bv.access_rank(i)
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
        code, length = self._code[a - 1], self._length[a - 1]
        for d in range(length):
            if (code >> (length - 1 - d)) & 1:
                i = self._zeros[d] + self._levels[d].rank(i, 1)
            else:
                i = self._levels[d].rank(i, 0)
        return i - self._start[a - 1]

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
        return 8 * self.sigma  # one code length byte per symbol

    # --- serialization --------------------------------------------------------

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.ints(self._lengths)
        w.ints(self._counts)
        for bv in self._levels:
            w.blob(bv.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "PolySequence":
        r = ByteReader(data)
        obj = cls.__new__(cls)
        lengths, counts = r.ints(), r.ints()
        obj.sigma = counts.size
        obj.n = sum(counts.tolist())
        # a full code over sigma symbols is at most sigma - 1 bits long
        if (lengths.size != obj.sigma or not 1 <= obj.n < 1 << 63
                or lengths.max(initial=0) >= max(obj.sigma, 1)):
            raise InputError("code lengths and symbol counts do not describe a sequence")
        obj._lengths, obj._counts = lengths.astype(np.int64), counts.astype(np.int64)
        level_lengths, steps = obj._derive_shape()
        levels = [load_bitvector(r.blob()) for _ in steps]
        for bv, length, zeros in zip(levels, level_lengths, obj._zeros):
            if len(bv) != length or bv.count(0) != zeros:
                raise InputError("a wavelet level does not match the code lengths")
        obj._set_levels(levels, steps)
        return obj
