"""Frequency-partitioned sequences: the core compressed rank/select store.

Symbols are grouped into classes by the rounded value of
lg(n/occ) * lg(n), so symbols in one class have near-equal frequency.
The class string t (one class id per position) carries the compressible
information and is stored in a wavelet tree; the projection of the
sequence onto each class is stored nearly plain (wavelet tree for small
class alphabets, chunked large-alphabet store otherwise).  A symbol->class
map m of length sigma dispatches queries:

    access(i)      = m.select_l(sub_l.access(t.rank_l(i))),  l = t.access(i)
    access_rank(i) = (m.select_l(x), r),  (x, r) = sub_l.access_rank(t.rank_l(i))
    rank_a(i)      = sub_l.rank_c(t.rank_l(i)),   l = m.access(a), c = m.rank_l(a)
    select_a(j)    = t.select_l(sub_l.select_c(j))

where each (t.access(i), t.rank_l(i)) and (m.access(a), m.rank_l(a)) pair
comes from one access_rank walk, so access_rank costs three walks (t, s_l,
m) and gives the symbol at i with its rank in [1..i].

General (non-effective) alphabets keep the occurring symbols in a sorted
dictionary and run the machinery over their ranks; a general alphabet
that is exactly 1..sigma keeps none.

Only t, m, the class stores and the raw class values are serialized; load
derives the partition summary (each symbol's class and occurrences, each
class's alphabet size and length) from m's decode and the class stores'
per-symbol counts, in array operations with no loop over symbols.  Each
class store's kind follows from its alphabet size, so it is not stored.
"""

from __future__ import annotations

import math

import numpy as np

from .bits import ByteReader, ByteWriter
from .bitvec import SparseDictionary
from .chunkseq import LargeSequence
from .errors import InputError, NotFoundError, OutOfRangeError
from .stats import EntropyReport, SectionSpace, distribution_entropy, h0
from .wavelet import PolySequence


def class_of(n: int, occ: int) -> int:
    """Frequency class ceil(lg(n/occ) * lg n) with deterministic rounding.

    The product is snapped to the nearest integer when within a few ulps,
    so near-boundary values round identically across platforms.
    """
    x = (math.log2(n) - math.log2(occ)) * math.log2(n)
    nearest = round(x)
    if abs(x - nearest) <= 4 * math.ulp(max(abs(x), 1.0)):
        return int(nearest)
    return int(math.ceil(x))


def poly_threshold(n: int) -> int:
    """Largest class alphabet stored in a wavelet tree."""
    return max(2, int(math.floor(math.log2(n))))


class Partition:
    """The class decomposition of a sequence over effective alphabet [1..sigma]."""

    def __init__(self, seq: np.ndarray):
        n = seq.size
        sigma = int(seq.max())
        occ = np.bincount(seq, minlength=sigma + 1)[1:]
        if (occ == 0).any():
            raise InputError("alphabet is not effective: some symbol is absent")
        self.n = n
        self.sigma = sigma
        self.occ = occ.astype(np.int64)
        # raw class value per symbol; class_of runs once per distinct count
        counts, count_of = np.unique(self.occ, return_inverse=True)
        raw = np.array([class_of(n, int(c)) for c in counts], dtype=np.int64)
        self.symbol_class = raw[count_of]
        self.class_values, dense0 = np.unique(self.symbol_class, return_inverse=True)
        self.num_classes = self.class_values.size
        # dense class index per symbol (1-based)
        self.symbol_class_dense = dense0.astype(np.int64) + 1
        self.t_raw = self.symbol_class[seq - 1]
        self.t_dense = self.symbol_class_dense[seq - 1]
        # class sub-alphabet sizes and projected sub-sequence lengths
        self.sub_sigma = np.bincount(
            self.symbol_class_dense, minlength=self.num_classes + 1
        )[1:]
        self.sub_len = np.bincount(self.t_dense, minlength=self.num_classes + 1)[1:]

    def identity_terms(self):
        """(n*H0(t), sum |s_l| lg sigma_l, n*H0(s), n/lg n)."""
        n = self.n
        nh0t = n * distribution_entropy(self.sub_len)
        sub = float(
            sum(
                int(l) * math.log2(int(s))
                for l, s in zip(self.sub_len, self.sub_sigma)
                if s > 1
            )
        )
        nh0s = n * distribution_entropy(self.occ)
        slack = n / math.log2(n) if n > 1 else 0.0
        return nh0t, sub, nh0s, slack

    def check_invariants(self):
        """Raise AssertionError when a bound of the partition fails.

        The checks are explicit raises, so ``python -O`` keeps them."""
        n = self.n
        if n == 1:
            _require(self.num_classes == 1 and self.class_values[0] == 0,
                     "a length-1 sequence must form the single class 0")
            return
        lgn = math.log2(n)
        _require(self.class_values[0] >= 0, "negative class value")
        _require(self.class_values[-1] <= math.ceil(lgn * lgn),
                 "class value above ceil(lg^2 n)")
        # class-size bound, for every member symbol
        factor = 2.0 ** (1.0 / lgn)
        ci = self.symbol_class_dense - 1
        held = self.sub_sigma[ci] < factor * self.sub_len[ci] / self.occ
        if not held.all():
            raise AssertionError(
                f"class size bound violated for symbol {int(np.argmin(held)) + 1}"
            )
        nh0t, sub, nh0s, slack = self.identity_terms()
        _require(nh0t + sub < nh0s + slack + 1e-9 * max(1.0, nh0s + slack),
                 "partition identity bound violated")


def _group_by_class(classes: np.ndarray, sizes: np.ndarray) -> list:
    """0-based indices of ``classes`` split by class 1..k, ascending within
    each class; ``sizes`` holds the k class sizes.

    A partition has at most ceil(lg^2 n) + 1 classes, so ids fit in 16 bits,
    where numpy's stable sort is a radix sort."""
    keys = classes.astype(np.uint16) if sizes.size < 1 << 16 else classes
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.cumsum(sizes)[:-1])


def _require(cond, message: str):
    if not cond:
        raise AssertionError(message)


class ApSequence:
    """Compressed sequence with access/rank/select over [1..sigma] or a
    general alphabet remapped through a dictionary."""

    def __init__(self, seq, general_alphabet: bool = False):
        arr = np.asarray(seq, dtype=np.int64)
        if arr.size == 0:
            raise InputError("empty input")
        if arr.min() < 1:
            raise InputError(f"invalid symbol {int(arr.min())}: symbols must be >= 1")
        self.alphabet_dict = None
        if general_alphabet:
            uniq = np.unique(arr)
            if uniq[-1] != uniq.size:  # values 1..sigma need no dictionary
                self.alphabet_dict = SparseDictionary(uniq)
                arr = np.searchsorted(uniq, arr).astype(np.int64) + 1
        self.partition = Partition(arr)
        self.n = self.partition.n
        self.sigma = self.partition.sigma
        self._build(arr)

    def _build(self, arr: np.ndarray):
        part = self.partition
        self.T = PolySequence(part.t_dense, alphabet_size=part.num_classes)
        self.M = PolySequence(
            part.symbol_class_dense, alphabet_size=part.num_classes
        )
        threshold = poly_threshold(self.n)
        members = _group_by_class(part.symbol_class_dense, part.sub_sigma)
        positions = _group_by_class(part.t_dense, part.sub_len)
        # class-local alphabet [1..sigma_l]: the c-th smallest member of a
        # class becomes c
        local_of = np.empty(self.sigma, dtype=np.int64)
        for m in members:
            local_of[m] = np.arange(1, m.size + 1)
        self.subs = []
        for pos, sig_l in zip(positions, part.sub_sigma.tolist()):
            local = local_of[arr[pos] - 1]
            if sig_l <= threshold:
                self.subs.append(PolySequence(local, alphabet_size=sig_l))
            else:
                self.subs.append(LargeSequence(local, alphabet_size=sig_l))

    # --- symbol mapping ---------------------------------------------------------

    def _internal_symbol(self, a: int):
        if self.alphabet_dict is None:
            return a if 1 <= a <= self.sigma else None
        if not 1 <= a <= self.alphabet_dict.universe_max:
            return None
        return self.alphabet_dict.index_of(a)

    def _external_symbol(self, a: int) -> int:
        if self.alphabet_dict is None:
            return a
        return self.alphabet_dict.value_of(a)

    # --- queries -----------------------------------------------------------------

    def __len__(self):
        return self.n

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        li, pos = self.T.access_rank(i)
        # access, not access_rank: a LargeSequence rank costs two selects more
        x = self.subs[li - 1].access(pos)
        return self._external_symbol(self.M.select(li, x))

    def access_rank(self, i: int) -> tuple[int, int]:
        """(symbol a at i, rank_a(i)) from one walk each of t, s_l and m."""
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        li, pos = self.T.access_rank(i)
        x, r = self.subs[li - 1].access_rank(pos)
        return self._external_symbol(self.M.select(li, x)), r

    def rank(self, a: int, i: int) -> int:
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.n}]")
        ai = self._internal_symbol(a)
        if ai is None or i == 0:
            return 0
        li, c = self.M.access_rank(ai)
        return self.subs[li - 1].rank(c, self.T.rank(li, i))

    def select(self, a: int, j: int) -> int:
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        ai = self._internal_symbol(a)
        if ai is None:
            raise NotFoundError(f"symbol {a} does not occur")
        li, c = self.M.access_rank(ai)
        return self.T.select(li, self.subs[li - 1].select(c, j))

    def occurrences(self, a: int) -> int:
        ai = self._internal_symbol(a)
        return int(self.partition.occ[ai - 1]) if ai else 0

    def decode(self) -> np.ndarray:
        """Reconstruct the stored sequence in one vectorized pass."""
        part = self.partition
        members = _group_by_class(part.symbol_class_dense, part.sub_sigma)
        positions = _group_by_class(self.T.decode(), part.sub_len)
        out = np.empty(self.n, dtype=np.int64)
        for m, pos, sub in zip(members, positions, self.subs):
            out[pos] = m[sub.decode() - 1] + 1
        if self.alphabet_dict is not None:
            values = self.alphabet_dict.values()
            out = values[out - 1]
        return out

    # --- reporting ---------------------------------------------------------------

    def space_report(self) -> EntropyReport:
        part = self.partition
        nh0t, sub, nh0s, slack = part.identity_terms()
        sections = [
            SectionSpace("T", self.T.payload_bits() + self.T.topology_bits(),
                         self.T.directory_bits()),
            SectionSpace("M", self.M.payload_bits() + self.M.topology_bits(),
                         self.M.directory_bits()),
        ]
        for ci, s in enumerate(self.subs, 1):
            raw = int(part.class_values[ci - 1])
            payload = s.payload_bits()
            if isinstance(s, PolySequence):
                payload += s.topology_bits()
            sections.append(SectionSpace(f"s_{raw}", payload, s.directory_bits()))
        if self.alphabet_dict is not None:
            sections.append(
                SectionSpace("dict", self.alphabet_dict.payload_bits(),
                             self.alphabet_dict.directory_bits())
            )
        total = sum(x.payload_bits + x.directory_bits for x in sections)
        return EntropyReport(
            n=self.n,
            sigma=self.sigma,
            h0_bits=nh0s,
            partition_bits=nh0t + sub,
            bound_bits=nh0s + slack,
            total_bits=total,
            sections=sections,
            extra={"num_classes": part.num_classes},
        )

    def payload_bits(self) -> int:
        return sum(s.payload_bits for s in self.space_report().sections)

    # --- serialization -------------------------------------------------------------

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u64(self.n)
        w.u8(1 if self.alphabet_dict is not None else 0)
        if self.alphabet_dict is not None:
            w.blob(self.alphabet_dict.serialize())
        w.u64_array(self.partition.class_values.astype(np.uint64))
        w.blob(self.T.serialize())
        w.blob(self.M.serialize())
        for s in self.subs:
            w.blob(s.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "ApSequence":
        r = ByteReader(data)
        obj = cls.__new__(cls)
        obj.n = r.u64()
        obj.alphabet_dict = SparseDictionary.deserialize(r.blob()) if r.u8() else None
        class_values = r.u64_array().astype(np.int64)
        obj.T = PolySequence.deserialize(r.blob())
        obj.M = PolySequence.deserialize(r.blob())
        k = class_values.size
        if k < 1 or obj.M.sigma != k or obj.T.sigma != k:
            raise InputError("class count differs between T, M and the class values")
        if obj.n < 1 or obj.T.n != obj.n:
            raise InputError("class string length differs from the sequence length")
        dense = obj.M.decode()
        sub_sigma = np.bincount(dense, minlength=k + 1)[1:]
        threshold = poly_threshold(obj.n)
        obj.subs = [
            (PolySequence if sig_l <= threshold else LargeSequence).deserialize(r.blob())
            for sig_l in sub_sigma.tolist()
        ]
        obj._restore_partition(class_values, dense, sub_sigma)
        return obj

    def _restore_partition(self, class_values: np.ndarray, dense: np.ndarray,
                           sub_sigma: np.ndarray):
        """Derive the partition summary from M's decode ``dense``, its class
        sizes ``sub_sigma`` and the class stores.

        Raises InputError when T, M and the class stores disagree."""
        k = class_values.size
        if self.alphabet_dict is not None and self.alphabet_dict.size != self.M.n:
            raise InputError("alphabet dictionary size differs from the symbol map")
        part = Partition.__new__(Partition)
        part.n = self.n
        part.sigma = self.M.n
        part.class_values = class_values
        part.num_classes = k
        part.symbol_class_dense = dense
        part.symbol_class = class_values[dense - 1]
        part.sub_sigma = sub_sigma
        part.sub_len = np.array([len(s) for s in self.subs], dtype=np.int64)
        if not np.array_equal([s.sigma for s in self.subs], part.sub_sigma):
            raise InputError("a class store's alphabet differs from its class in M")
        if not np.array_equal(self.T.symbol_counts(), part.sub_len):
            raise InputError("class counts in T differ from the class store lengths")
        # the c-th smallest member of class l is local symbol c of s_l
        part.occ = np.empty(part.sigma, dtype=np.int64)
        for m, sub in zip(_group_by_class(dense, part.sub_sigma), self.subs):
            part.occ[m] = sub.symbol_counts()
        part.t_raw = None  # not materialized after load
        part.t_dense = None
        self.partition = part
        self.sigma = part.sigma


def build_partition(seq, general_alphabet: bool = False) -> ApSequence:
    """Build an ApSequence and verify the partition invariants."""
    aps = ApSequence(seq, general_alphabet=general_alphabet)
    aps.partition.check_invariants()
    return aps
