"""Zero-order compressed sequences over small alphabets.

A PolySequence is a binary wavelet tree whose shape follows canonical
Huffman codes of the symbol frequencies, so the bit payload lands near
n*H0 while access/rank/select stay O(code length).  Skewed node bitmaps
fall through to the sparse bitvector encoding, which is what lets nearly
constant sequences cost o(n) bits.

Symbols are dense integers [1..sigma]; callers remap anything else.
"""

from __future__ import annotations

import heapq

import numpy as np

from .bits import ByteReader, ByteWriter
from .bitvec import bitvector, read_bitvector
from .errors import InputError, NotFoundError, OutOfRangeError


def huffman_code_lengths(counts: np.ndarray) -> np.ndarray:
    """Code length per symbol (0 for absent symbols), deterministic ties."""
    lengths = np.zeros(counts.size, dtype=np.int64)
    alive = [int(s) for s in np.flatnonzero(counts > 0)]
    if len(alive) <= 1:
        return lengths
    heap = []
    serial = 0
    for s in alive:
        heap.append((int(counts[s]), serial, [s]))
        serial += 1
    heapq.heapify(heap)
    while len(heap) > 1:
        c1, _, m1 = heapq.heappop(heap)
        c2, _, m2 = heapq.heappop(heap)
        lengths[m1] += 1
        lengths[m2] += 1
        heapq.heappush(heap, (c1 + c2, serial, m1 + m2))
        serial += 1
    return lengths


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code per symbol given code lengths (MSB-first)."""
    codes = np.zeros(lengths.size, dtype=np.int64)
    order = sorted(
        (int(l), s) for s, l in enumerate(lengths.tolist()) if l > 0
    )
    code = 0
    prev_len = order[0][0] if order else 0
    for length, sym in order:
        code <<= length - prev_len
        prev_len = length
        codes[sym] = code
        code += 1
    return codes


class _Node:
    __slots__ = ("bv", "child", "symbol")

    def __init__(self):
        self.bv = None
        self.child = [None, None]  # node index or None
        self.symbol = None  # set on leaves


class PolySequence:
    """Wavelet-tree sequence; alphabet [1..sigma] with sigma small."""

    def __init__(self, seq, alphabet_size: int | None = None):
        arr = np.asarray(seq, dtype=np.int64)
        if arr.size == 0:
            raise InputError("cannot build a sequence from empty input")
        if arr.min() < 1:
            raise InputError("symbols must be positive integers")
        sigma = int(alphabet_size) if alphabet_size else int(arr.max())
        if arr.max() > sigma:
            raise InputError("symbol exceeds declared alphabet size")
        counts = np.bincount(arr - 1, minlength=sigma).astype(np.int64)
        self._init_from(arr - 1, sigma, counts)

    def _init_from(self, vals0: np.ndarray, sigma: int, counts: np.ndarray):
        self.n = vals0.size
        self.sigma = sigma
        self._counts = counts
        self._lengths = huffman_code_lengths(counts)
        self._codes = canonical_codes(self._lengths)
        distinct = int((counts > 0).sum())
        if distinct <= 1:
            # constant sequence: nothing to store beyond the symbol id
            self._only = int(np.flatnonzero(counts)[0]) if distinct else 0
            self._nodes = []
            return
        self._only = None
        self._build_tree()
        self._fill_bitvectors(vals0)

    def _build_tree(self):
        self._nodes = [_Node()]
        self._leaf_path = {}  # symbol0 -> list of (node_idx, bit)
        for sym in np.flatnonzero(self._lengths > 0):
            sym = int(sym)
            code, length = int(self._codes[sym]), int(self._lengths[sym])
            node = 0
            path = []
            for d in range(length):
                bit = (code >> (length - 1 - d)) & 1
                path.append((node, bit))
                nxt = self._nodes[node].child[bit]
                if nxt is None:
                    self._nodes.append(_Node())
                    nxt = len(self._nodes) - 1
                    self._nodes[node].child[bit] = nxt
                node = nxt
            self._nodes[node].symbol = sym
            self._leaf_path[sym] = path

    def _fill_bitvectors(self, vals0: np.ndarray):
        code_of = self._codes[vals0]
        len_of = self._lengths[vals0]
        stack = [(0, code_of, len_of, 0)]
        while stack:
            idx, codes, lens, depth = stack.pop()
            node = self._nodes[idx]
            if node.symbol is not None:
                continue
            bits = ((codes >> (lens - 1 - depth)) & 1).astype(np.uint8)
            node.bv = bitvector(bits)
            mask = bits.astype(bool)
            stack.append((node.child[0], codes[~mask], lens[~mask], depth + 1))
            stack.append((node.child[1], codes[mask], lens[mask], depth + 1))

    def __len__(self):
        return self.n

    def occurrences(self, a: int) -> int:
        if not 1 <= a <= self.sigma:
            return 0
        return int(self._counts[a - 1])

    def symbol_counts(self) -> np.ndarray:
        """Occurrences of symbols 1..sigma, as one array."""
        return self._counts

    def access(self, i: int) -> int:
        return self.access_rank(i)[0]

    def access_rank(self, i: int) -> tuple[int, int]:
        """(symbol a at i, rank_a(i)) from one root-to-leaf walk: the
        position reached at the leaf is the rank."""
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        if self._only is not None:
            return self._only + 1, i
        node = self._nodes[0]
        while node.symbol is None:
            b, i = node.bv.access_rank(i)
            node = self._nodes[node.child[b]]
        return node.symbol + 1, i

    def rank(self, a: int, i: int) -> int:
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.n}]")
        if i == 0 or not 1 <= a <= self.sigma or self._counts[a - 1] == 0:
            return 0
        if self._only is not None:
            return i if a - 1 == self._only else 0
        for idx, bit in self._leaf_path[a - 1]:
            i = self._nodes[idx].bv.rank(i, bit)
            if i == 0:
                return 0
        return i

    def select(self, a: int, j: int) -> int:
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        if not 1 <= a <= self.sigma or j > self._counts[a - 1]:
            raise NotFoundError(f"fewer than {j} occurrences of symbol {a}")
        if self._only is not None:
            return j
        for idx, bit in reversed(self._leaf_path[a - 1]):
            j = self._nodes[idx].bv.select(j, bit)
        return j

    def decode(self) -> np.ndarray:
        """Reconstruct the whole sequence in one pass (values 1..sigma)."""
        if self._only is not None:
            return np.full(self.n, self._only + 1, dtype=np.int64)
        return self._decode_node(0, self.n)

    def _decode_node(self, idx: int, length: int) -> np.ndarray:
        node = self._nodes[idx]
        if node.symbol is not None:
            return np.full(length, node.symbol + 1, dtype=np.int64)
        bits = node.bv.to_bits().astype(bool)
        ones = int(bits.sum())
        out = np.empty(length, dtype=np.int64)
        out[~bits] = self._decode_node(node.child[0], length - ones)
        out[bits] = self._decode_node(node.child[1], ones)
        return out

    # --- space accounting ---------------------------------------------------

    def payload_bits(self) -> int:
        return sum(nd.bv.payload_bits() for nd in self._nodes if nd.bv is not None)

    def directory_bits(self) -> int:
        return sum(nd.bv.directory_bits() for nd in self._nodes if nd.bv is not None)

    def topology_bits(self) -> int:
        return 8 * self.sigma  # one code length byte per symbol

    # --- serialization --------------------------------------------------------

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u64(self.n)
        w.u64(self.sigma)
        w.u8_block(self._lengths)
        w.u64_array(self._counts.astype(np.uint64))
        order = self._node_order()
        w.u64(len(order))
        for idx in order:
            w.blob(self._nodes[idx].bv.serialize())
        return w.getvalue()

    def _node_order(self):
        """Internal nodes in preorder (deterministic)."""
        order = []
        stack = [0] if self._nodes else []
        while stack:
            idx = stack.pop()
            node = self._nodes[idx]
            if node.symbol is not None:
                continue
            order.append(idx)
            stack.append(node.child[1])
            stack.append(node.child[0])
        return order

    @classmethod
    def deserialize(cls, data: bytes) -> "PolySequence":
        r = ByteReader(data)
        obj = cls.__new__(cls)
        obj.n = r.u64()
        obj.sigma = r.u64()
        obj._lengths = r.u8_block(obj.sigma).astype(np.int64)
        obj._counts = r.u64_array().astype(np.int64)
        if obj._counts.size != obj.sigma or int(obj._counts.sum()) != obj.n:
            raise InputError("symbol counts do not match the sequence header")
        obj._codes = canonical_codes(obj._lengths)
        nnodes = r.u64()
        distinct = int((obj._counts > 0).sum())
        if distinct <= 1:
            obj._only = int(np.flatnonzero(obj._counts)[0]) if distinct else 0
            obj._nodes = []
            return obj
        obj._only = None
        obj._build_tree()
        for idx in obj._node_order():
            obj._nodes[idx].bv = read_bitvector(ByteReader(r.blob()))
        if nnodes != sum(1 for nd in obj._nodes if nd.symbol is None):
            raise InputError("node count does not match the code lengths")
        return obj
