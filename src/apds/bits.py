"""Bit packing primitives and the one integer codec of every payload.

Bit sequences are packed least-significant-bit-first into 64-bit words.
A payload concatenates three field kinds (ByteWriter, ByteReader):

    uint  LEB128 varint, low 7 bits first; at most 10 bytes, below 2**63
    ints  a width byte w in [1..8], a uint count, then the values
          little-endian at the fewest whole bytes w that hold the largest
          (packed words included); widths 1/2/4/8 load as one numpy view
    blob  a uint length, then that many bytes

``select_in_word`` is the last step of every bitvector select: it narrows
a word to one byte with three popcounts and reads a 256 x 8 byte-select
table built at import.  ``get_fixed`` reads one packed field; hot callers
pass a memoryview of the words, whose items are ints with no numpy
per-item cost.

Every structure is built from a string over [1..sigma], and takes it
through ``symbol_array``: a non-empty one-axis array of integers within
int64, each >= 1 and at most the alphabet size when one is declared.
Anything else ends in InputError.  ``int_param`` is the same rule for a
structure's integer parameters (a block length, a sample rate).
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import InputError

WORD_BITS = 64
_U64 = np.dtype("<u8")
_UINT_LIMIT = 1 << 63
_VARINT_MAX_BYTES = 10
_VIEW_DTYPES = {w: np.dtype(f"<u{w}") for w in (1, 2, 4, 8)}


def symbol_array(values, alphabet_size=None) -> np.ndarray:
    """values as a flat int64 array (an int64 array is returned as itself),
    unless they break the symbol rule of the module docstring."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged list
        raise InputError("symbols must form one flat array of integers")
    if arr.size == 0:
        raise InputError("empty input")
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise InputError(f"symbols must form one flat array of integers, got a {arr.ndim}-axis "
                         f"{arr.dtype} array")
    if arr.dtype == np.uint64 and arr.max() >= _UINT_LIMIT:
        raise InputError("symbol values must lie in [1..2**63 - 1]")
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 1:
        raise InputError("symbol values must be >= 1")
    if alphabet_size is not None and arr.max() > alphabet_size:
        raise InputError(f"symbol exceeds declared alphabet size {alphabet_size}")
    return arr


def int_param(value, name: str, least: int = 1) -> int:
    """value as an int, unless it is not an integer or is below least."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be >= {least}")
    return value


def pack_bits(bits) -> np.ndarray:
    """Pack an iterable/array of 0/1 into uint64 words, LSB-first."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return np.concatenate([packed, np.zeros(-packed.size % 8, np.uint8)]).view(_U64)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bits: first n bits as a uint8 array."""
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little")


def _byte_select_table() -> bytes:
    """Entry 8*b + j is the 0-based position of the (j+1)-th set bit of byte b."""
    table = bytearray(256 * 8)
    for b in range(256):
        ones = [pos for pos in range(8) if b >> pos & 1]
        table[8 * b : 8 * b + len(ones)] = bytes(ones)
    return bytes(table)


_BYTE_SELECT = _byte_select_table()


def select_in_word(word: int, j: int) -> int:
    """0-based position of the j-th (1-based) set bit of a 64-bit word, for
    1 <= j <= popcount(word).

    Halve the word to the byte that holds that bit (its low 32, 16, then 8
    bits, one popcount each; when the j-th bit lies above, drop the low half
    and the ones in it), then read the byte-select table (Vigna, broadword
    rank/select, WEA 2008): no loop over the bits.
    """
    shift = 0
    c = (word & 0xFFFF_FFFF).bit_count()
    if c < j:
        j -= c
        word >>= 32
        shift = 32
    c = (word & 0xFFFF).bit_count()
    if c < j:
        j -= c
        word >>= 16
        shift += 16
    c = (word & 0xFF).bit_count()
    if c < j:
        j -= c
        word >>= 8
        shift += 8
    return shift + _BYTE_SELECT[(word & 0xFF) << 3 | j - 1]


def pack_fixed(values: np.ndarray, width: int) -> np.ndarray:
    """Pack non-negative integers < 2**width into words, LSB-first: the low
    width bits of each value's little-endian bytes, one uint8 per bit."""
    octets = np.ascontiguousarray(values, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return pack_bits(np.unpackbits(octets, axis=1, count=width, bitorder="little"))


def unpack_fixed(words: np.ndarray, width: int, count: int) -> np.ndarray:
    """The first count width-bit fields of packed words, as uint64: each
    field is its word shifted down, or'ed with the next word shifted up."""
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    words = np.asarray(words, dtype=np.uint64)
    # in place where it can be: each new array of this size costs page faults
    off = np.arange(count, dtype=np.uint64)
    off *= np.uint64(width)
    w = (off >> np.uint64(6)).view(np.int64)
    off &= np.uint64(WORD_BITS - 1)
    out = words[w]
    out >>= off
    # a field that does not straddle keeps only bits of its own word below
    # its width, so the word after the last may be read as the last again
    w += 1
    np.minimum(w, words.size - 1, out=w)
    high = words[w]
    # x << (64 - off) in two steps, so that off = 0 shifts it out entirely
    high <<= np.uint64(1)
    high <<= np.subtract(np.uint64(WORD_BITS - 1), off, out=off)
    out |= high
    out &= np.uint64((1 << width) - 1)
    return out


def get_fixed(words: np.ndarray, width: int, idx: int) -> int:
    """Read the idx-th (0-based) width-bit field from packed words (a uint64
    array, or a memoryview of one)."""
    if width == 0:
        return 0
    start = idx * width
    w, off = divmod(start, WORD_BITS)
    lo = int(words[w]) >> off
    have = WORD_BITS - off
    if have < width:
        lo |= int(words[w + 1]) << have
    return lo & ((1 << width) - 1)


def byte_width(largest: int) -> int:
    """The whole bytes per value of an ``ints`` field whose largest value is largest."""
    return max(1, (int(largest).bit_length() + 7) // 8)


class ByteWriter(bytearray):
    """A payload under construction; used by every serializer."""

    def uint(self, v: int):
        """A non-negative int < 2**63 as a LEB128 varint."""
        v = int(v)
        if not 0 <= v < _UINT_LIMIT:
            raise ValueError(f"{v} is outside the varint range [0, 2**63)")
        while v > 0x7F:
            self.append(v & 0x7F | 0x80)
            v >>= 7
        self.append(v)

    def ints(self, arr):
        """Integers in [0, 2**64) at the fewest whole bytes that hold the largest."""
        arr = np.asarray(arr)
        if arr.size and arr.min() < 0:
            raise ValueError("ints holds non-negative values only")
        values = arr.astype(_U64)
        width = byte_width(values.max(initial=0))
        self.append(width)
        self.uint(values.size)
        self.extend(values.view(np.uint8).reshape(-1, 8)[:, :width].tobytes())

    def blob(self, data: bytes):
        """Length-prefixed byte string."""
        self.uint(len(data))
        self.extend(data)

    def getvalue(self) -> bytes:
        return bytes(self)


class ByteReader:
    """Malformed fields end in InputError; counts are checked before anything
    is allocated.  Read inside ``with ByteReader(data) as r:``, which ends in
    InputError when the block leaves bytes of data unread."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def __enter__(self) -> "ByteReader":
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and self._pos != len(self._data):
            raise InputError(f"{len(self._data) - self._pos} unread bytes after the payload")

    def _take(self, k: int) -> int:
        """Skip k bytes; return where they start."""
        if k > len(self._data) - self._pos:
            raise InputError("truncated payload")
        self._pos += k
        return self._pos - k

    def uint(self) -> int:
        data, pos, v = self._data, self._pos, 0
        for shift in range(0, 7 * _VARINT_MAX_BYTES, 7):
            if pos == len(data):
                raise InputError("truncated payload")
            b = data[pos]
            pos += 1
            v |= (b & 0x7F) << shift
            if b < 0x80:
                if v >= _UINT_LIMIT:
                    raise InputError("varint value is 2**63 or more")
                self._pos = pos
                return v
        raise InputError(f"varint longer than {_VARINT_MAX_BYTES} bytes")

    def ints(self) -> np.ndarray:
        """The values of one ``ints`` field, as little-endian uint64."""
        width = self._data[self._take(1)]
        if not 1 <= width <= 8:
            raise InputError(f"integer array width {width} is outside [1..8]")
        count = self.uint()
        start = self._take(count * width)
        if width in _VIEW_DTYPES:
            return np.frombuffer(self._data, _VIEW_DTYPES[width], count, start).astype(_U64)
        wide = np.zeros((count, 8), dtype=np.uint8)
        wide[:, :width] = np.frombuffer(self._data, "u1", count * width, start).reshape(-1, width)
        return wide.view(_U64).reshape(count)

    def blob(self) -> bytes:
        start = self._take(length := self.uint())
        return self._data[start : start + length]
