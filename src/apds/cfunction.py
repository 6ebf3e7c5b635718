"""Compressed surjective functions f: [1..n] -> [1..sigma].

Three storage modes:

  direct           the value string kept in an ApSequence
  runs-interleaved the permutation that stably sorts the values, stored
                   run-compressed, plus a delimiter bitmap b with sigma+1
                   ones whose zero gaps count the preimage sizes
  runs-contiguous  same pair, with the permutation in the contiguous
                   (mirrored strict) layout

In the runs modes  f(i) = b.rank1(b.select0(pi(i)))  and preimages come
from pi^-1 applied to the zero run of the requested value.  The runs of pi
come from permutation.decompose_runs: the patience cover
("interleaved-general") or the maximal monotone segments
("contiguous-general").  The sort is stable, so pi rises exactly where f
does not decrease.  When the patience cover's H(runs) exceeds H0(f), one
run per value is used instead, so H(runs) <= H0 always holds.
"""

from __future__ import annotations

import numpy as np

from .apseq import ApSequence
from .bits import ByteReader, ByteWriter
from .bitvec import SparseDictionary, bitvector, read_bitvector
from .errors import InputError, NotFoundError, OutOfRangeError
from .permutation import RunDecomposition, RunPermutation, decompose_runs
from .stats import h0

MODES = ("direct", "runs-interleaved", "runs-contiguous")


def _sort_permutation(arr: np.ndarray) -> np.ndarray:
    """pi(i) = rank of position i in the stable sort of the values."""
    order = np.argsort(arr, kind="stable")
    pi = np.empty(arr.size, dtype=np.int64)
    pi[order] = np.arange(1, arr.size + 1)
    return pi


def _delimiter_bitmap(counts: np.ndarray):
    """1 (0^c_1) 1 (0^c_2) 1 ... : sigma+1 ones, n zeros."""
    sigma = counts.size
    reps = np.empty(2 * sigma, dtype=np.int64)
    reps[0::2] = counts
    reps[1::2] = 1
    bits = np.concatenate([[1], np.repeat(np.tile([0, 1], sigma), reps)])
    return bitvector(bits.astype(np.uint8))


class CompressedFunction:
    def __init__(self, f, mode: str = "direct", remap: bool = False):
        if mode not in MODES:
            raise InputError(f"unknown function mode {mode!r}")
        arr = np.asarray(f, dtype=np.int64)
        if arr.size == 0:
            raise InputError("empty input")
        if arr.min() < 1:
            raise InputError("function values must be >= 1")
        self.mode = mode
        if remap:
            uniq = np.unique(arr)
            self.value_dict = SparseDictionary(uniq)
            arr = np.searchsorted(uniq, arr).astype(np.int64) + 1
        else:
            self.value_dict = None
            occ = np.bincount(arr, minlength=int(arr.max()) + 1)[1:]
            if (occ == 0).any():
                raise InputError(
                    "function is not surjective onto [1..max]; pass remap=True"
                )
        self.n = int(arr.size)
        self.sigma = int(arr.max())
        counts = np.bincount(arr, minlength=self.sigma + 1)[1:]
        self._build(arr, counts)

    def _build(self, arr, counts):
        if self.mode == "direct":
            self.ap = ApSequence(arr)
            self.pi = None
            self.b = None
            return
        self.ap = None
        self.b = _delimiter_bitmap(counts)
        pi = _sort_permutation(arr)
        if self.mode == "runs-contiguous":
            dec = decompose_runs(pi, "contiguous-general")
        else:
            dec = decompose_runs(pi, "interleaved-general")
            h = h0(arr)
            if dec.entropy() > h + 1e-12:
                # one all-equal run per value: H(runs) = H0 exactly
                dec = RunDecomposition("interleaved-general", self.n, arr, counts,
                                       np.ones(self.sigma, dtype=bool),
                                       np.cumsum(counts) - counts + 1)
            if dec.entropy() > h + 1e-9:
                raise AssertionError(f"H(runs) = {dec.entropy()} exceeds H0 = {h}")
        self.pi = RunPermutation.from_decomposition(pi, dec)

    # --- queries ---------------------------------------------------------------

    def _external(self, a: int) -> int:
        return a if self.value_dict is None else self.value_dict.value_of(a)

    def _internal(self, a: int) -> int:
        if self.value_dict is None:
            if not 1 <= a <= self.sigma:
                raise OutOfRangeError(f"value {a} out of [1..{self.sigma}]")
            return a
        if not 1 <= a <= self.value_dict.universe_max:
            raise OutOfRangeError(f"value {a} outside the stored universe")
        idx = self.value_dict.index_of(a)
        if idx is None:
            raise OutOfRangeError(f"value {a} is not in the function's range")
        return idx

    def eval(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        if self.mode == "direct":
            return self._external(self.ap.access(i))
        v = self.b.rank(self.b.select(self.pi.apply(i), 0), 1)
        return self._external(v)

    def preimage_size(self, a: int) -> int:
        ai = self._internal(a)
        if self.mode == "direct":
            return self.ap.rank(ai, self.n)
        z1 = self.b.rank(self.b.select(ai, 1), 0)
        z2 = self.b.rank(self.b.select(ai + 1, 1), 0)
        return z2 - z1

    def preimage_select(self, a: int, j: int) -> int:
        ai = self._internal(a)
        if j < 1:
            raise OutOfRangeError("preimage rank must be >= 1")
        if j > self.preimage_size(a):
            raise NotFoundError(f"preimage of {a} has fewer than {j} elements")
        if self.mode == "direct":
            return self.ap.select(ai, j)
        start = self.b.rank(self.b.select(ai, 1), 0)
        return self.pi.inverse(start + j)

    def preimage(self, a: int, sort: bool = False) -> list:
        out = [self.preimage_select(a, j) for j in range(1, self.preimage_size(a) + 1)]
        return sorted(out) if sort else out

    def run_entropy(self) -> float:
        return 0.0 if self.pi is None else self.pi.decomposition.entropy()

    def payload_bits(self) -> int:
        if self.mode == "direct":
            return self.ap.payload_bits()
        return self.pi.payload_bits() + self.b.payload_bits()

    # --- serialization ------------------------------------------------------------

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u8(MODES.index(self.mode))
        w.u8(1 if self.value_dict is not None else 0)
        if self.value_dict is not None:
            w.blob(self.value_dict.serialize())
        if self.mode == "direct":
            w.blob(self.ap.serialize())
        else:
            w.blob(self.pi.serialize())
            w.blob(self.b.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "CompressedFunction":
        r = ByteReader(data)
        obj = cls.__new__(cls)
        mode = r.u8()
        if mode >= len(MODES):
            raise InputError(f"unknown function mode index {mode}")
        obj.mode = MODES[mode]
        obj.value_dict = SparseDictionary.deserialize(r.blob()) if r.u8() else None
        if obj.mode == "direct":
            obj.ap = ApSequence.deserialize(r.blob())
            obj.pi = None
            obj.b = None
        else:
            obj.ap = None
            obj.pi = RunPermutation.deserialize(r.blob())
            obj.b = read_bitvector(ByteReader(r.blob()))
        # n and sigma are the domain and range sizes of the stored parts
        obj.n, obj.sigma = ((obj.ap.n, obj.ap.sigma) if obj.ap is not None
                            else (obj.pi.n, obj.b.count(1) - 1))
        return obj


def build_function(f, mode: str = "direct", remap: bool = False) -> CompressedFunction:
    return CompressedFunction(f, mode=mode, remap=remap)
