"""On-disk container: magic, version, checksum, structure kind, payload.

Layout (header integers little-endian, fixed width):

    "APDS" | u32 version=12 | u32 CRC32 | u8 kind | u8 input-format | payload

A kind is declared in one place, its row of ``STRUCTURE_KINDS``: the kind
byte, the name (``apds build --type``), the class and the ``apds query``
ops it answers.  Dump, load and the CLI dispatch through that table.

The CRC32 (``zlib.crc32``) covers every byte after its own field: the
kind, the input format and the payload.  The payload runs to the end of
the file, so no length is stored; a truncated or extended file fails the
checksum, which load checks before any deserializer runs.  Payloads are
the structures' own serializations in the codec of ``bits``: varint
scalars, whole-byte integer arrays and length-prefixed blobs.  They hold
no value that load can compute: directories, counts, class values,
lengths such as n and sigma, a ``PolySequence``'s code lengths (derived
from its symbol counts by ``wavelet.huffman_code_lengths``), the store
of a one-symbol class of an ``ApSequence`` (fixed by the class's count in
T), the kind of each class store (``apseq._store_for`` picks it from
the class's alphabet size in M and its length in T) and a
``LargeSequence``'s n, since n = sigma.  One stored value is implied by
others: a ``PolySequence``'s symbol counts, which its levels imply.
Every unary count vector is a ``bitvec.unary_counts`` vector.

A ``BalancedSequence`` writes sigma, its symbol counts as offsets from
their minimum at the least fixed width that holds them (the minimum, the
width, then ``bits.pack_fixed`` words), and the words of its levels, each
padded to whole words.  Load derives n (the counts' sum), the level count
ceil(lg sigma), the leaf starts, each level's zero count and the one
directory over all levels, and refuses counts not at their least width
or not offsets from their minimum, a sigma too large for the payload, a
word count that disagrees with sigma and n, a set padding bit and a level
whose zero count disagrees with the counts.  A ``LargeSequence`` (a class
whose members each occur once) writes sigma, its permutation at
ceil(lg sigma) bits per value and its ``CycleIndex`` blob of step
ceil(lg sigma); load refuses a word count or a step that disagrees with
sigma, and marks that disagree with the cycle lengths or leave [1..sigma].

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
label strings' symbol counts where there is one.

An index payload is its context length, its sample rate, its alphabet,
its BWT parts, its suffix-array row marks and its SA samples, each
stored as (sa - 1) / rate.  Its inverse samples are not stored: the
first extract derives them from the SA samples (``FmIndex.isa_rows``).

Versions: 8 put the whole payload under one CRC32 and dropped the section
table; 9 stores the index's SA samples as (sa - 1) / rate and no inverse
samples, where 8 stored both at the bit length of n; 10 stores an
``ApSequence`` class with repeated symbols and more than
``apseq.poly_threshold`` of them as a ``BalancedSequence``, where 9 stored
it as a ``LargeSequence``; 11 stores a permutation class (each member
once) as sigma, the permutation, its cycle marks and back pointers, where
10 also stored n and two unary count vectors of ones; 12 stores its marks
as a ``CycleIndex``, where 11 stored a mark bitvector and back pointers.
Files of any version but 12 are refused.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

from .apseq import ApSequence
from .cfunction import CompressedFunction
from .errors import InputError
from .permutation import RunPermutation
from .textindex import FmIndex

MAGIC = b"APDS"
VERSION = 12
_HEAD = struct.Struct("<4sII")  # magic, version, CRC32
CRC_START = _HEAD.size  # the checksum covers data[CRC_START:]
HEADER_BYTES = CRC_START + 2  # then the kind and the input format

FORMAT_INTS = 0
FORMAT_BYTES = 1


class StructureKind(NamedTuple):
    id: int  # the kind byte of the header
    name: str  # the `apds build --type` value
    cls: type
    ops: tuple  # the `apds query --op` values it answers


STRUCTURE_KINDS = (
    StructureKind(1, "seq", ApSequence, ("access", "rank", "select")),
    StructureKind(2, "perm", RunPermutation, ("apply", "inverse", "power")),
    StructureKind(3, "func", CompressedFunction, ("eval", "preimage")),
    StructureKind(4, "index", FmIndex, ("count", "locate", "extract")),
)
KIND_SEQ, KIND_PERM, KIND_FUNC, KIND_INDEX = (k.id for k in STRUCTURE_KINDS)
_DESERIALIZERS = {k.id: k.cls.deserialize for k in STRUCTURE_KINDS}
_KIND_OF_CLASS = {k.cls: k for k in STRUCTURE_KINDS}


def pack_container(kind: int, input_format: int, payload: bytes) -> bytes:
    body = bytes([kind, input_format]) + payload
    return _HEAD.pack(MAGIC, VERSION, zlib.crc32(body)) + body


def unpack_container(data: bytes):
    """Returns (kind, input_format, payload) of a VERSION file whose checksum holds."""
    if data[:4] != MAGIC:
        raise InputError("not an APDS container (bad magic)")
    if len(data) < HEADER_BYTES:
        raise InputError(f"container is shorter than its {HEADER_BYTES}-byte header")
    _, version, crc = _HEAD.unpack_from(data)
    if version != VERSION:
        raise InputError(f"unsupported container version {version}")
    if zlib.crc32(memoryview(data)[CRC_START:]) != crc:
        raise InputError("container checksum mismatch: the file is corrupt or truncated")
    return data[CRC_START], data[CRC_START + 1], data[HEADER_BYTES:]


def structure_kind(obj) -> StructureKind:
    """The table's row for the object's class."""
    if (kind := _KIND_OF_CLASS.get(type(obj))) is None:
        raise InputError(f"cannot serialize object of type {type(obj).__name__}")
    return kind


def dump_structure(obj, input_format: int = FORMAT_INTS) -> bytes:
    return pack_container(structure_kind(obj).id, input_format, obj.serialize())


def load_structure(data: bytes):
    """Returns (object, kind, input_format)."""
    kind, input_format, payload = unpack_container(data)
    if kind not in _DESERIALIZERS:
        raise InputError(f"unknown structure kind {kind}")
    return _DESERIALIZERS[kind](payload), kind, input_format


def save_file(path: str, obj, input_format: int = FORMAT_INTS):
    with open(path, "wb") as fh:
        fh.write(dump_structure(obj, input_format))


def load_file(path: str):
    with open(path, "rb") as fh:
        return load_structure(fh.read())
