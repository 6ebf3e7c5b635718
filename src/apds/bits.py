"""Bit packing primitives and little-endian serialization helpers.

Bit sequences are packed least-significant-bit-first into 64-bit words;
words are serialized little-endian, so the byte image is identical across
platforms.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import InputError

WORD_BITS = 64
_U64 = np.dtype("<u8")


def pack_bits(bits) -> np.ndarray:
    """Pack an iterable/array of 0/1 into uint64 words, LSB-first."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size == 0:
        return np.zeros(0, dtype=_U64)
    npad = (-arr.size) % WORD_BITS
    if npad:
        arr = np.concatenate([arr, np.zeros(npad, dtype=np.uint8)])
    # np.packbits is MSB-first per byte; bitorder='little' gives LSB-first
    words = np.packbits(arr, bitorder="little").view(_U64)
    return words.copy()


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bits: first n bits as a uint8 array."""
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n].copy()


def popcount_words(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).astype(np.int64)


def select_in_word(word: int, j: int) -> int:
    """0-based position of the j-th (1-based) set bit of word."""
    w = word
    for _ in range(j - 1):
        w &= w - 1
    return (w & -w).bit_length() - 1


def pack_fixed(values: np.ndarray, width: int) -> np.ndarray:
    """Pack non-negative integers < 2**width into words, LSB-first."""
    values = np.asarray(values, dtype=np.uint64)
    if values.size == 0 or width == 0:
        return np.zeros(0, dtype=_U64)
    bits = ((values[:, None] >> np.arange(width, dtype=np.uint64)) & 1).astype(
        np.uint8
    )
    return pack_bits(bits.reshape(-1))


def unpack_fixed(words: np.ndarray, width: int, count: int) -> np.ndarray:
    if count == 0 or width == 0:
        return np.zeros(count, dtype=np.uint64)
    bits = unpack_bits(words, width * count).reshape(count, width)
    weights = (np.uint64(1) << np.arange(width, dtype=np.uint64))
    return (bits.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)


def get_fixed(words: np.ndarray, width: int, idx: int) -> int:
    """Read the idx-th (0-based) width-bit field from packed words."""
    if width == 0:
        return 0
    start = idx * width
    w, off = divmod(start, WORD_BITS)
    lo = int(words[w]) >> off
    have = WORD_BITS - off
    if have < width:
        lo |= int(words[w + 1]) << have
    return lo & ((1 << width) - 1)


class ByteWriter:
    """Accumulates little-endian fields; used by every serializer."""

    def __init__(self):
        self._parts = []

    def u8(self, v: int):
        self._parts.append(struct.pack("<B", v))

    def u32(self, v: int):
        self._parts.append(struct.pack("<I", v))

    def u64(self, v: int):
        self._parts.append(struct.pack("<Q", v))

    def u8_block(self, arr):
        """Unprefixed run of bytes, one per element; the reader knows the count."""
        self._parts.append(np.ascontiguousarray(arr, dtype=np.uint8).tobytes())

    def u64_array(self, arr):
        """Length-prefixed uint64 array."""
        arr = np.ascontiguousarray(arr, dtype=_U64)
        self.u64(arr.size)
        self._parts.append(arr.tobytes())

    def blob(self, data: bytes):
        """Length-prefixed byte string."""
        self.u64(len(data))
        self._parts.append(data)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, k: int) -> bytes:
        b = self._data[self._pos : self._pos + k]
        if len(b) != k:
            raise InputError("truncated payload")
        self._pos += k
        return b

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def u8_block(self, k: int) -> np.ndarray:
        return np.frombuffer(self._take(k), dtype=np.uint8)

    def u64_array(self) -> np.ndarray:
        n = self.u64()
        return np.frombuffer(self._take(8 * n), dtype=_U64).copy()

    def blob(self) -> bytes:
        n = self.u64()
        return self._take(n)
