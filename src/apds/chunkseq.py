"""The store of a permutation class, and ``_validate_permutation``, the
one check that pi is a bijection on [1..n].

``LargeSequence`` stores a class whose members each occur once, a
permutation pi of [1..sigma]: access(i) = pi(i), rank_a(i) = [pi^-1(a) <=
i] and select_a(1) = pi^-1(a).  It serializes sigma and pi at t = ceil(lg
sigma) bits per value.  Its first rank or select, built or loaded, checks
that pi is a permutation and derives pi^-1 at t bits with one scatter;
from then on each is one read of it, as an access is one read of pi.  So
a loaded pi that repeats a value answers access with what is stored, and
ends every rank and select, and ``verify``, in InputError.

The module keeps its name because the benchmark's tracer wraps
``chunkseq.LargeSequence`` and ``chunkseq.get_fixed`` by name.
"""

from __future__ import annotations

import numpy as np

from .bits import ByteReader, ByteWriter, get_fixed, pack_fixed, symbol_array, unpack_fixed
from .errors import InputError, NotFoundError, OutOfRangeError


def _validate_permutation(pi) -> np.ndarray:
    """pi as an int64 array, unless it is not a bijection on [1..n]."""
    arr = symbol_array(pi)
    if arr.max() > arr.size or np.bincount(arr).max() > 1:
        raise InputError("not a permutation (a bijection on [1..n])")
    return arr


class LargeSequence:
    def __init__(self, seq, alphabet_size: int | None = None):
        arr = _validate_permutation(symbol_array(seq, alphabet_size))
        n = arr.size  # n values in [1..n], none twice
        if (alphabet_size or n) != n:
            raise InputError(f"a LargeSequence stores a permutation of [1..{n}]")
        self._set(n, pack_fixed(arr - 1, max(1, (n - 1).bit_length())))

    def _set(self, sigma: int, fwd_words):
        """sigma (= n), the width t and pi's words."""
        self.n = self.sigma = sigma
        self.width = max(1, (sigma - 1).bit_length())
        self._fwd_words, self._fwd_view = fwd_words, memoryview(fwd_words)
        self._inv_view = None  # pi^-1's words, derived on the first rank or select

    def _derive_inverse(self) -> memoryview:
        """Set and return pi^-1's words, unless pi is not a permutation."""
        pi = _validate_permutation(self.decode())
        inv = np.empty_like(pi)
        inv[pi - 1] = np.arange(pi.size)
        self._inv_view = memoryview(pack_fixed(inv, self.width))
        return self._inv_view

    def _inverse(self, a: int) -> int:
        return get_fixed(self._inv_view or self._derive_inverse(), self.width, a - 1) + 1

    def __len__(self):
        return self.sigma

    def symbol_counts(self) -> np.ndarray:
        return np.ones(self.sigma, dtype=np.int64)

    def access(self, i: int) -> int:
        if not 1 <= i <= self.sigma:
            raise OutOfRangeError(f"position {i} out of [1..{self.sigma}]")
        if (a := get_fixed(self._fwd_view, self.width, i - 1) + 1) > self.sigma:
            raise InputError(f"permutation value {a} past {self.sigma}: corrupt store")
        return a

    def access_rank(self, i: int) -> tuple[int, int]:
        return self.access(i), 1

    def rank(self, a: int, i: int) -> int:
        if not 0 <= i <= self.sigma:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.sigma}]")
        return 1 if i and 1 <= a <= self.sigma and self._inverse(a) <= i else 0

    def select(self, a: int, j: int) -> int:
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        if j > 1 or not 1 <= a <= self.sigma:
            raise NotFoundError(f"fewer than {j} occurrences of symbol {a}")
        return self._inverse(a)

    def decode(self) -> np.ndarray:
        out = unpack_fixed(self._fwd_words, self.width, self.sigma).astype(np.int64) + 1
        if out.max() > self.sigma:
            raise InputError(f"permutation value past {self.sigma}: corrupt store")
        return out

    def verify(self):
        """Raise InputError unless pi is a permutation."""
        _validate_permutation(self.decode())

    def payload_bits(self) -> int:
        return self.sigma * self.width

    def directory_bits(self) -> int:
        return self.sigma * self.width  # pi^-1, whether or not it is derived yet

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.uint(self.sigma)
        w.ints(self._fwd_words)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "LargeSequence":
        with ByteReader(data) as r:
            if (sigma := r.uint()) < 1:
                raise InputError("permutation store with an empty alphabet")
            words = r.ints()
        obj = cls.__new__(cls)
        obj._set(sigma, words)
        if words.size != -(-sigma * obj.width // 64):
            raise InputError("permutation words differ from the header")
        return obj
