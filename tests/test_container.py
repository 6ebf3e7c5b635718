import hashlib
import struct
import zlib

import numpy as np
import pytest

from apds.apseq import ApSequence, build_partition
from apds.bitvec import SparseBitVector, SparseDictionary, bitvector, load_bitvector
from apds.cfunction import CompressedFunction, build_function
from apds.chunkseq import LargeSequence
from apds.container import (
    CRC_START,
    FORMAT_BYTES,
    HEADER_BYTES,
    KIND_FUNC,
    KIND_INDEX,
    KIND_PERM,
    KIND_SEQ,
    STRUCTURE_KINDS,
    dump_structure,
    load_structure,
    pack_container,
    unpack_container,
)
from apds.errors import InputError
from apds.permutation import KINDS, CycleIndex, RunPermutation, _RunLayout, build_run_permutation
from apds.textindex import BlockStore, FmIndex
from apds.wavelet import PolySequence
from nl_corpus import natural_text


def reseal(data: bytes) -> bytes:
    """data with its checksum recomputed over the bytes after it, so that a
    test's corruption reaches the check it was written for."""
    return data[: CRC_START - 4] + struct.pack("<I", zlib.crc32(data[CRC_START:])) + data[CRC_START:]


def test_header_layout():
    data = pack_container(KIND_SEQ, FORMAT_BYTES, b"abc")
    assert data[:4] == b"APDS"
    assert data[4:8] == b"\x0c\x00\x00\x00"  # version 12, little-endian
    assert data[8:12] == struct.pack("<I", zlib.crc32(bytes([KIND_SEQ, FORMAT_BYTES]) + b"abc"))
    assert (CRC_START, HEADER_BYTES) == (12, 14)
    assert data[CRC_START:] == bytes([KIND_SEQ, FORMAT_BYTES]) + b"abc"
    assert unpack_container(data) == (KIND_SEQ, FORMAT_BYTES, b"abc")
    assert reseal(data) == data


def test_bad_magic_and_version():
    with pytest.raises(InputError, match="bad magic"):
        unpack_container(b"NOPE" + b"\x00" * 16)
    good = pack_container(KIND_SEQ, 0, b"abcdef")
    for version in (11, 13):  # a v11 file ends here, as v1 files did at v2
        bad = bytearray(good)
        bad[4] = version
        with pytest.raises(InputError, match=f"unsupported container version {version}"):
            unpack_container(bytes(bad))
    with pytest.raises(InputError, match="header"):
        unpack_container(good[: HEADER_BYTES - 1])
    # no payload length is stored: a cut or an extended file fails the checksum
    for bad in (good[:-2], good + b"\x00", good[:HEADER_BYTES]):
        with pytest.raises(InputError, match="checksum"):
            unpack_container(bad)


def test_load_refuses_unknown_kind_and_foreign_payload():
    """With their checksums recomputed: a seq header over an index payload,
    an unknown kind, and a seq header over no payload."""
    index_payload = FmIndex("abracadabra").serialize()
    seq_payload = build_partition([1, 2, 1]).serialize()
    for data in (
        pack_container(KIND_SEQ, 0, index_payload),
        pack_container(9, 0, seq_payload),
        pack_container(KIND_SEQ, 0, b""),
    ):
        with pytest.raises(InputError):
            load_structure(data)
    assert load_structure(pack_container(KIND_SEQ, 0, seq_payload))[0].decode().tolist() == [1, 2, 1]


def _structures():
    rng = np.random.default_rng(99)
    seq = rng.integers(1, 20, size=400).tolist()
    pi = rng.permutation(np.arange(1, 200)).tolist()
    f = rng.integers(1, 9, size=150)
    f[:8] = np.arange(1, 9)
    return [
        (build_partition(seq, general_alphabet=True), KIND_SEQ),
        (build_run_permutation(pi, "interleaved-strict", power_step=4), KIND_PERM),
        (build_function(f.tolist(), mode="runs-interleaved"), KIND_FUNC),
        (FmIndex(seq), KIND_INDEX),
    ]


def test_round_trip_all_kinds_byte_identical():
    for obj, kind in _structures():
        data = dump_structure(obj)
        back, got_kind, _ = load_structure(data)
        assert got_kind == kind
        assert dump_structure(back) == data


def test_rebuilt_structures_answer_identically():
    rng = np.random.default_rng(5)
    for obj, kind in _structures():
        back, _, _ = load_structure(dump_structure(obj))
        if kind == KIND_SEQ:
            for i in rng.integers(1, obj.n + 1, size=50):
                assert back.access(int(i)) == obj.access(int(i))
        elif kind == KIND_PERM:
            for i in rng.integers(1, obj.n + 1, size=50):
                assert back.apply(int(i)) == obj.apply(int(i))
                assert back.inverse(int(i)) == obj.inverse(int(i))
        elif kind == KIND_FUNC:
            for i in rng.integers(1, obj.n + 1, size=50):
                assert back.eval(int(i)) == obj.eval(int(i))
        else:
            for _ in range(20):
                pat = rng.integers(1, 20, size=3).tolist()
                assert back.count(pat) == obj.count(pat)
                assert back.locate(pat) == obj.locate(pat)


def test_deterministic_bytes():
    rng = np.random.default_rng(3)
    seq = rng.integers(1, 9, size=120).tolist()
    a = dump_structure(build_partition(seq, general_alphabet=True))
    b = dump_structure(build_partition(list(seq), general_alphabet=True))
    assert a == b


def _pinned_structures():
    """``_structures()``, then a Zipf-skewed sequence and a k = 1 index of
    natural text, both with one-symbol classes, and a permutation of
    [1..300] as a sequence: one class, a LargeSequence."""
    zipf = np.repeat(np.arange(1, 65), [4096 // a for a in range(1, 65)])  # theta = 1
    seq = build_partition(np.random.default_rng(7).permutation(zipf).tolist(),
                          general_alphabet=True)
    index = FmIndex(natural_text(1 << 12), k_context=1)
    perm = build_partition(np.random.default_rng(8).permutation(300) + 1)
    assert (seq.partition.sub_sigma == 1).any()
    assert any((part.partition.sub_sigma == 1).any() for part in index.parts)
    assert [type(s) for s in perm.subs] == [LargeSequence]
    return [obj for obj, _ in _structures()] + [seq, index, perm]


# sha256 of each container of _pinned_structures(); a format change updates
# these and says so in CHANGES.md
PINNED_SHA256 = [
    "d311a29914f51fc4e05b4e00db218c537aea53582765bfb1862e896f7e07da53",
    "ae77d4223bd156e6099d8728cecd6291deabeba2e6f23572e52a3cef5bd982c1",
    "65ff86b75b74744d1937ca7cbaf806adcdb11ea13266fa920b6229fe07649905",
    "a4c8a1a32b52d2ea0c4f8cb448e2e71e474e692ec2c232345dab133345e98e1e",
    "70dbcbbb690a46e19356b6054a3d0f8d6562266408b91e1d2c2b8919f954f9fb",
    "faabb8f932bd8f535e7ec2f3f9081be536ed3135f32165484dd4843b32a3ea08",
    "118455b23a384eb533b3f9da304096c63b031119f6837abf15ff9af53aa2f855",
]


def test_container_bytes_are_pinned():
    got = [hashlib.sha256(dump_structure(obj)).hexdigest() for obj in _pinned_structures()]
    assert got == PINNED_SHA256


# Fixed allowance of the serialized-size bound, in bits: the 14-byte
# container header plus the varint lengths and array headers that the
# model does not count.  A 300-element interleaved-general permutation,
# two ApSequences over 30 labels, needs about 400.
FIXED_BITS = 4096


def _space_cases():
    rng = np.random.default_rng(7)
    n = 1 << 16
    zipf = np.minimum(rng.zipf(1.3, n), 256)
    small = rng.integers(1, 6, 300)
    small[:5] = np.arange(1, 6)
    text = natural_text(1 << 16)
    cases = {"seq zipf": lambda: build_partition(zipf, general_alphabet=True),
             "seq small": lambda: build_partition(small, general_alphabet=True)}
    for kind in KINDS:
        for size in (n, 300):
            cases[f"perm {kind} n={size}"] = (
                lambda pi=rng.permutation(size) + 1, kind=kind:
                build_run_permutation(pi, kind, power_step=16))
    for mode in ("direct", "runs-interleaved", "runs-contiguous"):
        cases[f"func {mode}"] = lambda mode=mode: build_function(zipf, mode=mode, remap=True)
        cases[f"func {mode} small"] = lambda mode=mode: build_function(small, mode=mode)
    for k in (0, 1, 2):
        cases[f"index k={k}"] = lambda k=k: FmIndex(text, k_context=k, sample_rate=32)
    cases["index small"] = lambda: FmIndex(small.tolist())
    # each of the 306 BWT parts of the k=2 index pays the fixed cost of an
    # ApSequence (blob lengths and array headers, which the model omits):
    # 268,256 bits (4.092 bits/char) against a bound of 263,062 (4.014)
    miss = pytest.mark.xfail(strict=True, reason="per-part array headers of a k=2 index")
    return [pytest.param(build, id=name, marks=[miss] if name == "index k=2" else [])
            for name, build in cases.items()]


@pytest.mark.parametrize("build", _space_cases())
def test_serialized_bits_track_model_bits(build):
    """8 * container bytes <= 1.10 * payload_bits + FIXED_BITS, and the
    container re-dumps byte-identically after load."""
    obj = build()
    data = dump_structure(obj)
    assert dump_structure(load_structure(data)[0]) == data
    assert 8 * len(data) <= 1.10 * obj.payload_bits() + FIXED_BITS


@pytest.mark.parametrize("k,most", [(1, 4.85), (2, 4.80)])
def test_natural_text_index_bits_per_char(k, most):
    """No code lengths and no one-symbol class stores are written: the 64 KB
    index took 5.115 (k = 1) and 5.868 (k = 2) bits/char when they were."""
    text = natural_text(1 << 16)
    data = dump_structure(FmIndex(text, k_context=k, sample_rate=32))
    assert 8 * len(data) / len(text) <= most


@pytest.mark.parametrize("k,most", [(1, 4.20), (2, 4.15)])
def test_natural_text_index_bits_per_char_small_samples(k, most):
    """No inverse samples are written, and an SA sample takes the bit length
    of n // rate.  The 64 KB index takes 4.119 (k = 1) and 4.092 (k = 2)
    bits/char; it took 4.808 and 4.781 with both sample arrays at the bit
    length of n."""
    text = natural_text(1 << 16)
    data = dump_structure(FmIndex(text, k_context=k, sample_rate=32))
    assert 8 * len(data) / len(text) <= most


@pytest.mark.parametrize("index", range(4), ids=["seq", "perm", "func", "index"])
def test_any_flipped_byte_is_refused(index):
    """One byte flipped in the header or at sampled payload positions of a
    container of each kind ends in InputError: the checksum catches it."""
    obj, _ = _structures()[index]
    data = dump_structure(obj)
    positions = [*range(HEADER_BYTES), *np.linspace(HEADER_BYTES, len(data) - 1, 40).astype(int)]
    for pos in positions:
        for mask in (0x01, 0x80, 0xFF):
            bad = bytearray(data)
            bad[pos] ^= mask
            with pytest.raises(InputError):
                load_structure(bytes(bad))


def test_kind_table_rows():
    """One row per kind byte and per class; the structures these tests build
    are the table's classes, in its order."""
    assert len({k.id for k in STRUCTURE_KINDS}) == len({k.cls for k in STRUCTURE_KINDS}) == 4
    assert ([(type(obj), kind) for obj, kind in _structures()]
            == [(k.cls, k.id) for k in STRUCTURE_KINDS])


def test_dump_refuses_a_structure_outside_the_table():
    with pytest.raises(InputError, match="cannot serialize object of type BlockStore"):
        dump_structure(BlockStore([1, 2, 3, 1, 2, 3, 4]))


def _loaders():
    """(name, payload, loader) for every deserializer of the package."""
    rng = np.random.default_rng(21)
    seq = rng.integers(1, 9, 200)
    pi = rng.permutation(200) + 1
    perm = build_run_permutation(pi, "interleaved-general", power_step=4)
    strict = build_run_permutation(pi, "contiguous-strict")
    sparse = np.zeros(4096, dtype=np.uint8)
    sparse[[5, 700, 3000]] = 1
    assert isinstance(bitvector(sparse), SparseBitVector)
    cases = [
        ("ApSequence", build_partition(seq * 1009, general_alphabet=True), ApSequence.deserialize),
        ("PolySequence", PolySequence(seq), PolySequence.deserialize),
        ("LargeSequence", LargeSequence(pi), LargeSequence.deserialize),
        ("plain bitvector", bitvector(seq % 2), load_bitvector),
        ("sparse bitvector", bitvector(sparse), load_bitvector),
        ("SparseDictionary", SparseDictionary([3, 9, 40, 1000]), SparseDictionary.deserialize),
        ("CycleIndex", perm.companion, lambda d: CycleIndex.deserialize(d, perm.n)),
        ("run layout", perm._layout, lambda d: _RunLayout.deserialize(d, perm.decomposition.kind)),
        ("strict run layout", strict._layout,
         lambda d: _RunLayout.deserialize(d, "contiguous-strict")),
        ("RunPermutation", perm, RunPermutation.deserialize),
        ("CompressedFunction", build_function(seq, mode="runs-interleaved"),
         CompressedFunction.deserialize),
        ("FmIndex", FmIndex(seq), FmIndex.deserialize),
        ("BlockStore", BlockStore(seq), BlockStore.deserialize),
    ]
    return [pytest.param(obj.serialize(), load, id=name) for name, obj, load in cases]


@pytest.mark.parametrize("payload,load", _loaders())
def test_loader_refuses_an_appended_byte(payload, load):
    """Every deserializer reads its payload to the end: its payload loads,
    and with one byte appended it ends in InputError."""
    load(payload)
    with pytest.raises(InputError, match="1 unread bytes"):
        load(payload + b"\x00")


@pytest.mark.parametrize("index", range(4), ids=["seq", "perm", "func", "index"])
def test_resealed_container_with_appended_bytes_is_refused(index):
    """A payload with bytes appended and its checksum recomputed passes the
    checksum, so the payload's own reader refuses it."""
    data = dump_structure(_structures()[index][0])
    with pytest.raises(InputError, match="4 unread bytes"):
        load_structure(reseal(data + b"junk"))
