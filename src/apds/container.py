"""On-disk container: magic, version, structure kind, section table.

Layout (header integers little-endian, fixed width):

    "APDS" | u32 version=7 | u8 kind | u8 input-format | u32 section count
    per section: u8 section kind | u64 payload byte length
    section payloads, concatenated

A structure file holds exactly one section, of the kind's main section
kind.  Payloads are the structures' own serializations in the codec of
``bits``: varint scalars, whole-byte integer arrays and length-prefixed
blobs.  They hold no value that load can compute (directories, counts,
class values, lengths such as n and sigma) but two: a ``PolySequence``'s
symbol counts, which its levels imply, and a ``LargeSequence``'s n, which
its count vectors imply.  Every unary count vector is a
``bitvec.unary_counts`` vector.

A permutation payload is its layout tag (the run kind's index in
``permutation.KINDS`` plus one), its layout and its power companion (an
empty blob if none).  The layout holds, per kind:

    interleaved-general   label string s, label string s', directions
    interleaved-strict    label string s, directions
    contiguous-general    label string s', directions
    contiguous-strict     n, run lengths, value order of the runs, directions

where s gives each position's run, s' each value's run, and directions
one bit per run.  No run minimum, start or first value is stored: a
tiling side takes its run intervals from the run lengths, which are the
label strings' symbol counts where there is one.  Version 7 stores
permutations so; files of any other version are refused.
"""

from __future__ import annotations

import struct

from .apseq import ApSequence
from .cfunction import CompressedFunction
from .errors import InputError
from .permutation import RunPermutation
from .textindex import FmIndex

MAGIC = b"APDS"
VERSION = 7

KIND_SEQ = 1
KIND_PERM = 2
KIND_FUNC = 3
KIND_INDEX = 4

FORMAT_INTS = 0
FORMAT_BYTES = 1

SECTION_APSEQ = 0x10
SECTION_PERM = 0x20
SECTION_FUNC = 0x30
SECTION_INDEX = 0x40

_KIND_NAMES = {KIND_SEQ: "seq", KIND_PERM: "perm", KIND_FUNC: "func",
               KIND_INDEX: "index"}
_MAIN_SECTION = {KIND_SEQ: SECTION_APSEQ, KIND_PERM: SECTION_PERM,
                 KIND_FUNC: SECTION_FUNC, KIND_INDEX: SECTION_INDEX}
_DESERIALIZERS = {
    SECTION_APSEQ: ApSequence.deserialize,
    SECTION_PERM: RunPermutation.deserialize,
    SECTION_FUNC: CompressedFunction.deserialize,
    SECTION_INDEX: FmIndex.deserialize,
}


def kind_name(kind: int) -> str:
    return _KIND_NAMES.get(kind, f"unknown({kind})")


def pack_container(kind: int, input_format: int, sections: list) -> bytes:
    head = [MAGIC, struct.pack("<I", VERSION), struct.pack("<BB", kind, input_format),
            struct.pack("<I", len(sections))]
    for skind, payload in sections:
        head.append(struct.pack("<BQ", skind, len(payload)))
    return b"".join(head) + b"".join(p for _, p in sections)


def unpack_container(data: bytes):
    if data[:4] != MAGIC:
        raise InputError("not an APDS container (bad magic)")
    if len(data) < 14:
        raise InputError("container is shorter than its 14-byte header")
    version = struct.unpack_from("<I", data, 4)[0]
    if version != VERSION:
        raise InputError(f"unsupported container version {version}")
    kind, input_format = struct.unpack_from("<BB", data, 8)
    count = struct.unpack_from("<I", data, 10)[0]
    off = 14
    table = []
    for _ in range(count):
        if len(data) < off + 9:
            raise InputError("container ends inside its section table")
        skind, length = struct.unpack_from("<BQ", data, off)
        off += 9
        table.append((skind, length))
    sections = []
    for skind, length in table:
        sections.append((skind, data[off : off + length]))
        off += length
    if off != len(data):
        raise InputError("container has trailing or missing bytes")
    return kind, input_format, sections


def structure_kind(obj) -> int:
    if isinstance(obj, ApSequence):
        return KIND_SEQ
    if isinstance(obj, RunPermutation):
        return KIND_PERM
    if isinstance(obj, CompressedFunction):
        return KIND_FUNC
    if isinstance(obj, FmIndex):
        return KIND_INDEX
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def dump_structure(obj, input_format: int = FORMAT_INTS) -> bytes:
    kind = structure_kind(obj)
    return pack_container(kind, input_format,
                          [(_MAIN_SECTION[kind], obj.serialize())])


def load_structure(data: bytes):
    """Returns (object, kind, input_format)."""
    kind, input_format, sections = unpack_container(data)
    if kind not in _MAIN_SECTION:
        raise InputError(f"unknown structure kind {kind}")
    if [skind for skind, _ in sections] != [_MAIN_SECTION[kind]]:
        raise InputError(f"a {kind_name(kind)} container must hold exactly one "
                         f"section of kind {_MAIN_SECTION[kind]:#x}")
    skind, payload = sections[0]
    return _DESERIALIZERS[skind](payload), kind, input_format


def save_file(path: str, obj, input_format: int = FORMAT_INTS):
    with open(path, "wb") as fh:
        fh.write(dump_structure(obj, input_format))


def load_file(path: str):
    with open(path, "rb") as fh:
        return load_structure(fh.read())
