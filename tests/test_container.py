import numpy as np
import pytest

from apds.apseq import ApSequence, build_partition
from apds.cfunction import build_function
from apds.container import (
    FORMAT_BYTES,
    KIND_FUNC,
    KIND_INDEX,
    KIND_PERM,
    KIND_SEQ,
    SECTION_APSEQ,
    SECTION_INDEX,
    dump_structure,
    load_structure,
    pack_container,
    unpack_container,
)
from apds.errors import InputError
from apds.permutation import build_run_permutation
from apds.textindex import FmIndex


def test_header_layout():
    data = pack_container(KIND_SEQ, FORMAT_BYTES, [(0x10, b"abc")])
    assert data[:4] == b"APDS"
    assert data[4:8] == b"\x04\x00\x00\x00"  # version 4, little-endian
    kind, fmt, sections = unpack_container(data)
    assert kind == KIND_SEQ and fmt == FORMAT_BYTES
    assert sections == [(0x10, b"abc")]


def test_bad_magic_and_version():
    with pytest.raises(InputError):
        unpack_container(b"NOPE" + b"\x00" * 16)
    bad = bytearray(pack_container(KIND_SEQ, 0, [(0x10, b"")]))
    bad[4] = 9  # version 9
    with pytest.raises(InputError):
        unpack_container(bytes(bad))
    trunc = pack_container(KIND_SEQ, 0, [(0x10, b"abcdef")])[:-2]
    with pytest.raises(InputError):
        unpack_container(trunc)


def test_load_requires_one_main_section():
    index_payload = FmIndex("abracadabra").serialize()
    seq_payload = build_partition([1, 2, 1]).serialize()
    for data in (
        pack_container(KIND_SEQ, 0, []),  # no section
        pack_container(KIND_SEQ, 0, [(SECTION_INDEX, index_payload)]),  # wrong kind
        pack_container(9, 0, [(SECTION_APSEQ, seq_payload)]),  # unknown kind
        pack_container(KIND_SEQ, 0, [(SECTION_APSEQ, seq_payload)] * 2),
    ):
        with pytest.raises(InputError):
            load_structure(data)


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
