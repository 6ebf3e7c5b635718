import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apds.bits import ByteReader, ByteWriter, pack_fixed, select_in_word, unpack_fixed
from apds.bitvec import load_bitvector
from apds.errors import InputError


def _varint(v: int) -> bytes:
    w = ByteWriter()
    w.uint(v)
    return w.getvalue()


def test_uint_round_trip_and_length():
    for v, size in ((0, 1), (127, 1), (128, 2), (2**14, 3), (2**63 - 1, 9)):
        data = _varint(v)
        assert len(data) == size
        assert ByteReader(data).uint() == v
    with pytest.raises(ValueError):
        _varint(2**63)


@pytest.mark.parametrize("top", [0, 255, 256, 2**24 - 1, 2**24, 2**40, 2**56, 2**64 - 1])
def test_ints_round_trip_at_fewest_whole_bytes(top):
    values = np.array([0, top // 3, top], dtype=np.uint64)
    w = ByteWriter()
    w.ints(values)
    w.blob(b"tail")
    data = w.getvalue()
    width = max(1, (top.bit_length() + 7) // 8)
    assert data[0] == width and len(data) == 2 + 3 * width + 5
    r = ByteReader(data)
    back = r.ints()
    assert back.dtype == np.uint64 and back.tolist() == values.tolist()
    assert r.blob() == b"tail"


def test_ints_empty_and_negative():
    w = ByteWriter()
    w.ints(np.zeros(0, dtype=np.int64))
    assert w.getvalue() == b"\x01\x00"
    assert ByteReader(w.getvalue()).ints().size == 0
    with pytest.raises(ValueError):
        ByteWriter().ints([3, -1])


@pytest.mark.parametrize("data", [
    b"\x80" * 11 + b"\x01",  # a varint of more than 10 bytes
    b"\xff" * 9 + b"\x01",  # 2**63 - 1 + 2**63: above the varint range
    b"\x80" * 9 + b"\x01",  # exactly 2**63
    b"\x80\x80",  # ends inside the varint
])
def test_bad_varint_is_input_error(data):
    with pytest.raises(InputError):
        ByteReader(data).uint()


@pytest.mark.parametrize("data", [
    b"\x02" + _varint(2**40) + b"\x00" * 16,  # a count far beyond the bytes left
    b"\x08" + _varint(3) + b"\x00" * 23,  # one byte short
    b"\x00" + _varint(1) + b"\x00" * 8,  # width byte 0
    b"\x09" + _varint(1) + b"\x00" * 9,  # width byte 9
    b"\x03",  # no count
])
def test_bad_ints_is_input_error(data):
    with pytest.raises(InputError):
        ByteReader(data).ints()


def test_bad_blob_length_is_input_error():
    with pytest.raises(InputError):
        ByteReader(_varint(2**62) + b"abc").blob()


@pytest.mark.parametrize("kind", [0, 3, 2**40])
def test_unknown_bitvector_kind_is_input_error(kind):
    with pytest.raises(InputError):
        load_bitvector(_varint(kind) + _varint(8) + b"\x01\x01\xff")


def _select_by_clearing(word: int, j: int) -> int:
    """Reference: clear the lowest set bit j - 1 times, then locate the lowest."""
    for _ in range(j - 1):
        word &= word - 1
    return (word & -word).bit_length() - 1


def _assert_select_in_word(word: int):
    for j in range(1, word.bit_count() + 1):
        assert select_in_word(word, j) == _select_by_clearing(word, j), (hex(word), j)


@settings(max_examples=300)
@given(st.integers(1, 2**64 - 1))
def test_select_in_word_matches_clearing_reference(word):
    _assert_select_in_word(word)


@pytest.mark.parametrize("word", [
    1 << 63, 2**64 - 1, 1, 0xFF, 0xFF << 56, 0xA5 << 24, 0x81 << 40, 1 << 32, 0xFFFF_FFFF,
    0xFFFF_FFFF << 32, 0x8000_0000_0000_0001, *(1 << b for b in range(0, 64, 7)),
])
def test_select_in_word_edge_words(word):
    """The top bit, all ones, single bits, and ones all in one byte."""
    _assert_select_in_word(word)


@st.composite
def _packed_fields(draw):
    """Random words, a width of 1..64 and a field count from 0 up to the
    fields that fit, so the last field may end in the last word's top bit."""
    width = draw(st.integers(1, 64))
    size = draw(st.integers(1, 10))
    words = draw(st.lists(st.integers(0, 2**64 - 1), min_size=size, max_size=size))
    count = draw(st.integers(0, size * 64 // width))
    return np.array(words, dtype=np.uint64), width, count


@settings(max_examples=400)
@given(_packed_fields())
@example((np.array([2**64 - 1] * 3, dtype=np.uint64), 64, 3))  # one field per word
@example((np.array([2**64 - 1, 5], dtype=np.uint64), 63, 2))  # straddles into the last word
@example((np.array([0x8000_0000_0000_0001] * 3, dtype=np.uint64), 3, 64))  # ends at bit 191
@example((np.array([7], dtype=np.uint64), 1, 0))
def test_unpack_fixed_matches_bit_formula(case):
    """Field i is bits i*w .. i*w + w - 1 of the words read as one
    little-endian integer; pack_fixed of the fields gives the words back."""
    words, width, count = case
    whole = int.from_bytes(words.astype("<u8").tobytes(), "little")
    want = [(whole >> (i * width)) & ((1 << width) - 1) for i in range(count)]
    got = unpack_fixed(words, width, count)
    assert got.dtype == np.uint64 and got.tolist() == want
    repacked = pack_fixed(got, width)
    assert unpack_fixed(repacked, width, count).tolist() == want
    assert repacked.size == -(-count * width // 64)


def per_bit_pack(values: list, width: int) -> list:
    """The words of values packed LSB-first, width bits apiece, from the
    bits of one integer: field i is bits i*w .. i*w + w - 1."""
    whole = sum(v << (i * width) for i, v in enumerate(values))
    return [(whole >> (64 * k)) & (2**64 - 1) for k in range(-(-len(values) * width // 64))]


@st.composite
def _fields(draw):
    width = draw(st.integers(1, 64))
    values = draw(st.lists(st.integers(0, 2**width - 1), max_size=200))
    return values, width


@settings(max_examples=400)
@given(_fields())
@example(([], 17))
@example(([2**64 - 1] * 3, 64))
@example(([2**63 - 1, 1, 2**63 - 1], 63))  # fields straddle words
@example(([1] * 65, 1))
def test_pack_fixed_matches_per_bit_formula(case):
    values, width = case
    words = pack_fixed(np.array(values, dtype=np.uint64), width)
    assert words.dtype == np.uint64 and words.tolist() == per_bit_pack(values, width)


def test_pack_fixed_holds_no_array_per_bit():
    # a bit of output costs one byte on the way, not a uint64
    values = np.random.default_rng(3).integers(0, 2**17, 1 << 18).astype(np.uint64)
    pack_fixed(values[:64], 17)
    tracemalloc.start()
    try:
        words = pack_fixed(values, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words.size == (17 << 18) // 64
    assert peak <= 2 * values.size * 17, peak
