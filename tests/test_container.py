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
from apds.permutation import KINDS, build_run_permutation
from apds.textindex import FmIndex
from nl_corpus import natural_text


def test_header_layout():
    data = pack_container(KIND_SEQ, FORMAT_BYTES, [(0x10, b"abc")])
    assert data[:4] == b"APDS"
    assert data[4:8] == b"\x07\x00\x00\x00"  # version 7, little-endian
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


# Fixed allowance of the serialized-size bound, in bits: the 23-byte
# container header plus the varint lengths, array headers and symbol counts
# that the model does not count.  A 300-element interleaved-general
# permutation, two ApSequences over 30 labels, needs about 2,200.
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
    # ApSequence (code lengths, symbol counts, array headers), which the
    # model omits: about 360 bits a part
    miss = pytest.mark.xfail(strict=True, reason="per-part fixed cost of a k=2 index")
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
