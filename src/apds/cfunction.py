"""Compressed surjective functions f: [1..n] -> [1..sigma].

Three storage modes:

  direct           the value string kept in an ApSequence
  runs-interleaved the permutation pi that stably sorts the values, stored
                   run-compressed, plus the preimage sizes in ``bitvec``'s
                   unary count codec (the delimiter bitmap b)
  runs-contiguous  same pair, with the permutation's runs contiguous (a
                   position tiling and a label string by value)

In the runs modes  f(i) = count_owner(b, pi(i))  and the preimage of a is
pi^-1 of its run of sorted positions, after count_before(b, a).  The runs of pi
come from permutation.decompose_runs: the patience cover
("interleaved-general") or the maximal monotone segments
("contiguous-general").  The sort is stable, so pi rises exactly where f
does not decrease.  When the patience cover's H(runs) exceeds H0(f), one
run per value is used instead, so H(runs) <= H0 always holds.
"""

from __future__ import annotations

import numpy as np

from .apseq import ApSequence
from .bits import ByteReader, ByteWriter, symbol_array
from .bitvec import (SparseDictionary, alphabet_ranks, count_before, count_owner, count_runs,
                     load_unary_counts, unary_counts)
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


class CompressedFunction:
    def __init__(self, f, mode: str = "direct", remap: bool = False):
        if mode not in MODES:
            raise InputError(f"unknown function mode {mode!r}")
        arr = symbol_array(f)
        self.mode = mode
        if remap:
            arr, self.value_dict = alphabet_ranks(arr)
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
        self.b = unary_counts(counts)
        pi = _sort_permutation(arr)
        if self.mode == "runs-contiguous":
            dec = decompose_runs(pi, "contiguous-general")
        else:
            dec = decompose_runs(pi, "interleaved-general")
            h = h0(arr)
            if dec.entropy() > h + 1e-12:
                # one all-equal run per value: H(runs) = H0 exactly
                dec = RunDecomposition("interleaved-general", self.n, counts,
                                       np.ones(self.sigma, dtype=bool), arr, checked=dec.checked)
            if dec.entropy() > h + 1e-9:
                raise AssertionError(f"H(runs) = {dec.entropy()} exceeds H0 = {h}")
        self.pi = RunPermutation.from_decomposition(dec.checked, dec)

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
        return self._external(count_owner(self.b, self.pi.apply(i)))

    def _zero_run(self, ai: int) -> tuple[int, int]:
        """(sorted positions before, count) of internal value ai's run in b."""
        start = count_before(self.b, ai)
        return start, count_before(self.b, ai + 1) - start

    def preimage_size(self, a: int) -> int:
        ai = self._internal(a)
        return self.ap.rank(ai, self.n) if self.mode == "direct" else self._zero_run(ai)[1]

    def preimage_select(self, a: int, j: int) -> int:
        ai = self._internal(a)
        if j < 1:
            raise OutOfRangeError("preimage rank must be >= 1")
        direct = self.mode == "direct"
        start, size = (0, self.ap.rank(ai, self.n)) if direct else self._zero_run(ai)
        if j > size:
            raise NotFoundError(f"preimage of {a} has fewer than {j} elements")
        return self.ap.select(ai, j) if direct else self.pi.inverse(start + j)

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
        w.uint(MODES.index(self.mode))
        w.blob(b"" if self.value_dict is None else self.value_dict.serialize())
        if self.mode == "direct":
            w.blob(self.ap.serialize())
        else:
            w.blob(self.pi.serialize())
            w.blob(self.b.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "CompressedFunction":
        with ByteReader(data) as r:
            obj = cls.__new__(cls)
            mode = r.uint()
            if mode >= len(MODES):
                raise InputError(f"unknown function mode index {mode}")
            obj.mode = MODES[mode]
            obj.value_dict = SparseDictionary.deserialize(d) if (d := r.blob()) else None
            direct = obj.mode == "direct"
            obj.ap = ApSequence.deserialize(r.blob()) if direct else None
            obj.pi = None if direct else RunPermutation.deserialize(r.blob())
            obj.b = None if direct else load_unary_counts(r.blob(), obj.pi.n)
        # n and sigma are the domain and range sizes of the stored parts
        obj.n, obj.sigma = ((obj.ap.n, obj.ap.sigma) if obj.ap is not None
                            else (obj.pi.n, count_runs(obj.b)))
        if obj.value_dict is not None and obj.value_dict.size != obj.sigma:
            raise InputError(f"value dictionary of {obj.value_dict.size} values "
                             f"for a range of {obj.sigma}")
        return obj


def build_function(f, mode: str = "direct", remap: bool = False) -> CompressedFunction:
    return CompressedFunction(f, mode=mode, remap=remap)
