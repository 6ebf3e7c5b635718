"""Frequency-partitioned sequences: the core compressed rank/select store.

Symbols are grouped into classes by the rounded value of
lg(n/occ) * lg(n), so symbols in one class have near-equal frequency.
The class string t (one class id per position) carries the compressible
information and is stored in a wavelet matrix; the projection of the
sequence onto each class is stored nearly plain, in the store that
``_store_for`` picks from the class's alphabet size sigma_l and length n_l:

    sigma_l = 1                      no store (see below)
    sigma_l <= poly_threshold(n)     PolySequence, a Huffman-shaped wavelet matrix
    sigma_l = n_l, above that        LargeSequence, a permutation with a cycle-walk inverse
    any other class                  BalancedSequence, a balanced wavelet matrix

The rule is measured (CPython 3.11, one Xeon core, 200 random queries).
A class with sigma_l = n_l holds each member once, so s_l is a
permutation, which LargeSequence stores as its packed values: access is
one read, 0.5 us at sigma_l = n_l = 10^4 against 4.7 us for a walk of the
balanced matrix's 14 levels, and rank and select walk a cycle, 26-30 us
on a random permutation where the matrix takes 3.9 and 18-20, except at
a fixed point, one read (0.5 us on the identity; container v12, best of
7 on a shared host).  A disjoint-set stream over 10^4 elements, whose first id
sequence is one such class and whose ops are all accesses, ran 16 %
slower and loaded 40 % slower with every large class balanced.
Every other large class repeats symbols.  Against the chunked store that
held such classes up to container v9, the balanced matrix answers rank in
1.6-4.3 us (8.1-26.6) on classes of sigma_l from 24 to 11,389, select in
6.8-19.7 us (8.8-28.1) and access in 1.9-5.3 us (2.1-2.3), and a Zipf
sequence of 2^20 symbols over 2^16 takes 12.7 bits per symbol in place
of 15.0.

A symbol->class map m of length sigma gives each symbol a its class
cls[a] and its local symbol local[a], its rank among the members of that
class.  The container keeps m compressed, but queries read sigma-entry
arrays that build and load derive from m with one stable sort of the
symbols by class: order, the symbols sorted by (class, symbol);
class_start[l], the symbols in the classes before l; and cls and local,
where local[a] = where[a] - class_start[cls[a]] + 1 for where the
inverse of order.  Then

    access(i)      = order[class_start[l] + x - 1],  x = sub_l.access(t.rank_l(i))
    access_rank(i) = (order[class_start[l] + x - 1], r),
                     (x, r) = sub_l.access_rank(t.rank_l(i))
    rank_a(i)      = sub_l.rank_c(t.rank_l(i)),   l = cls[a], c = local[a]
    select_a(j)    = t.select_l(sub_l.select_c(j))

where l = t.access(i) and t.rank_l(i) come from one access_rank walk, so
access_rank costs two walks (t, then s_l) and gives the symbol at i with
its rank in [1..i]; no query walks m.  A class of one symbol (sigma_l = 1)
holds that symbol at every one of its positions, so it has no store (its
slot of ``subs`` is None) and its queries walk t alone:

    access(i)      = order[class_start[l]]
    access_rank(i) = (order[class_start[l]], t.rank_l(i))
    rank_a(i)      = t.rank_l(i)
    select_a(j)    = t.select_l(j)

rank_pair(a, i, j) = (rank_a(i), rank_a(j)) for i <= j ranks both ends of
a range from one walk of a's code in t (``PolySequence.rank_pair``), then
ranks each in s_l unless sigma_l = 1.

General (non-effective) alphabets keep the occurring symbols in a sorted
dictionary (``bitvec.alphabet_ranks``) and run the machinery over their
ranks; a general alphabet that is exactly 1..sigma keeps none.  The
dictionary holds the sorted values in memory, so mapping a symbol to its
rank (rank, select) is one bisect and mapping a rank back (access) one
read; on disk it is the bitvector of the values, decoded once on load.

Only the dictionary (an empty blob if none), t, m and the stores of the
classes of two or more symbols are serialized.  A build classifies the
symbols by their counts; a load takes n from t, each symbol's class from
m's decode, its occurrences from the class stores' symbol counts (from
t for a one-symbol class) and each class's raw value from its first
member (refused unless the values rise).  Both then end in the same two
derivations: ``Partition``'s constructor gives the summary (each class's
alphabet size and length) and ``_set_symbol_map`` the symbol map's
arrays, so a built and a loaded sequence hold the same state.  The class
string is kept only as t, and a symbol's raw class is
class_values[cls[a] - 1].  A class store's kind follows from its
alphabet size (M) and its length (t's counts), so it is not stored.
"""

from __future__ import annotations

import math

import numpy as np

from .bits import ByteReader, ByteWriter, symbol_array
from .bitvec import SparseDictionary, alphabet_ranks
from .chunkseq import LargeSequence
from .errors import InputError, NotFoundError, OutOfRangeError
from .stats import EntropyReport, SectionSpace, distribution_entropy
from .wavelet import BalancedSequence, PolySequence


def class_of(n: int, occ) -> np.ndarray:
    """Frequency classes ceil(lg(n/occ) * lg n) of a count or an array of
    counts, with deterministic rounding.

    A product within 4 ulps of an integer is snapped to it, so
    near-boundary values round identically across platforms.  numpy's
    log2 may be an ulp off ``math.log2``, enough to move a product across
    that bound, so products within 1e-6 of an integer (few: exact ones
    come from power-of-two ratios) are recomputed with ``math.log2``.
    """
    occ = np.asarray(occ, dtype=np.float64)
    lgn = math.log2(n)
    x = np.atleast_1d((lgn - np.log2(occ)) * lgn)
    near = np.abs(x - np.rint(x)) < 1e-6
    x[near] = [(lgn - math.log2(c)) * lgn for c in np.atleast_1d(occ)[near].tolist()]
    nearest = np.rint(x)
    snap = np.abs(x - nearest) <= 4 * np.spacing(np.maximum(np.abs(x), 1.0))
    return np.where(snap, nearest, np.ceil(x)).astype(np.int64).reshape(occ.shape)


def poly_threshold(n: int) -> int:
    """Largest class alphabet stored in a wavelet matrix."""
    return max(2, int(math.floor(math.log2(n))))


class Partition:
    """The class decomposition of a sequence over effective alphabet [1..sigma]."""

    def __init__(self, n: int, occ: np.ndarray, dense: np.ndarray, class_values: np.ndarray):
        """The summary of a length-n sequence whose symbols occur ``occ``
        times and have dense class ids ``dense`` (1-based) for the raw class
        values ``class_values``: the class count, and each class's alphabet
        size (``sub_sigma``) and length (``sub_len``).  Build and load both
        end here.  A symbol's raw class is class_values[dense - 1]."""
        k = class_values.size
        self.n, self.sigma, self.num_classes = n, occ.size, k
        self.occ, self.symbol_class_dense, self.class_values = occ, dense, class_values
        self.sub_sigma = np.bincount(dense, minlength=k + 1)[1:]
        # float weights are exact: counts stay below 2**53
        self.sub_len = np.bincount(dense, weights=occ, minlength=k + 1)[1:].astype(np.int64)

    @classmethod
    def of(cls, seq) -> "Partition":
        """Classify the symbols of ``seq`` by their occurrences."""
        seq = np.asarray(seq, dtype=np.int64)
        n = seq.size
        occ = np.bincount(seq, minlength=int(seq.max()) + 1)[1:].astype(np.int64)
        if (occ == 0).any():
            raise InputError("alphabet is not effective: some symbol is absent")
        # raw class value per symbol, from one value per distinct count
        counts, count_of = np.unique(occ, return_inverse=True)
        class_values, dense0 = np.unique(class_of(n, counts)[count_of], return_inverse=True)
        return cls(n, occ, dense0.astype(np.int64) + 1, class_values)

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


def _class_order(classes: np.ndarray, num_classes: int) -> np.ndarray:
    """0-based indices of ``classes`` stably sorted by class.

    A partition has at most ceil(lg^2 n) + 1 classes, so ids fit in 16 bits,
    where numpy's stable sort is a radix sort."""
    keys = classes.astype(np.uint16) if num_classes < 1 << 16 else classes
    return np.argsort(keys, kind="stable")


def _group_by_class(classes: np.ndarray, sizes: np.ndarray) -> list:
    """0-based indices of ``classes`` split by class 1..k, ascending within
    each class; ``sizes`` holds the k class sizes."""
    return np.split(_class_order(classes, sizes.size), np.cumsum(sizes)[:-1])


def _store_for(sigma_l: int, n_l: int, n: int):
    """The store of a class of sigma_l symbols and n_l positions in a
    length-n sequence, by the rule of the module docstring: None (no
    store), PolySequence, LargeSequence or BalancedSequence."""
    if sigma_l == 1:
        return None
    if sigma_l <= poly_threshold(n):
        return PolySequence
    return LargeSequence if n_l == sigma_l else BalancedSequence


def _require(cond, message: str):
    if not cond:
        raise AssertionError(message)


class ApSequence:
    """Compressed sequence with access/rank/select over [1..sigma] or a
    general alphabet remapped through a dictionary."""

    def __init__(self, seq, general_alphabet: bool = False):
        arr = symbol_array(seq)
        self.alphabet_dict = None
        if general_alphabet:
            arr, self.alphabet_dict = alphabet_ranks(arr)
        self._build(arr, Partition.of(arr))

    def _build(self, arr: np.ndarray, part: Partition):
        dense = part.symbol_class_dense
        t = dense[arr - 1]  # the class string
        self.T = PolySequence(t, alphabet_size=part.num_classes)
        self.M = PolySequence(dense, alphabet_size=part.num_classes)
        self._set_symbol_map(dense, part.sub_sigma)
        self._set_partition(part)
        local_of = np.asarray(self._local)
        positions = _group_by_class(t, part.sub_len)
        self.subs = [None if (store := _store_for(sig_l, pos.size, self.n)) is None
                     else store(local_of[arr[pos] - 1], alphabet_size=sig_l)
                     for pos, sig_l in zip(positions, part.sub_sigma.tolist())]

    def _set_symbol_map(self, dense: np.ndarray, sub_sigma: np.ndarray) -> np.ndarray:
        """Set the symbol map's arrays (see the module docstring) from M's
        decode ``dense`` and the class sizes ``sub_sigma``; return order,
        0-based.  Queries read them one item at a time, so they are
        memoryviews, whose items are ints, and a list (class_start); order
        and local hold values up to sigma, in int32 below 2**31."""
        order = _class_order(dense, sub_sigma.size)
        starts = np.cumsum(sub_sigma) - sub_sigma
        # the c-th smallest member of a class is its local symbol c
        local = np.empty_like(order)
        local[order] = np.arange(1, order.size + 1)
        local -= starts[dense - 1]
        narrow = np.int32 if order.size < 1 << 31 else np.int64
        self._order = memoryview((order + 1).astype(narrow))
        self._cls = memoryview(dense)
        self._local = memoryview(local.astype(narrow))
        self._class_start = [0] + starts.tolist()
        return order

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
        x = 1 if (sub := self.subs[li - 1]) is None else sub.access(pos)
        return self._external_symbol(self._order[self._class_start[li] + x - 1])

    def access_rank(self, i: int) -> tuple[int, int]:
        """(symbol a at i, rank_a(i)) from one walk of t, and one of s_l
        unless a's class has one symbol."""
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} out of [1..{self.n}]")
        li, r = self.T.access_rank(i)
        x = 1
        if (sub := self.subs[li - 1]) is not None:
            x, r = sub.access_rank(r)
        return self._external_symbol(self._order[self._class_start[li] + x - 1]), r

    def rank(self, a: int, i: int) -> int:
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank position {i} out of [0..{self.n}]")
        ai = self._internal_symbol(a)
        if ai is None or i == 0:
            return 0
        li = self._cls[ai - 1]
        r, sub = self.T.rank(li, i), self.subs[li - 1]
        return r if sub is None else sub.rank(self._local[ai - 1], r)

    def rank_pair(self, a: int, i: int, j: int) -> tuple[int, int]:
        """(rank_a(i), rank_a(j)) for 0 <= i <= j <= n from one walk of t,
        and two ranks in s_l unless a's class has one symbol."""
        if not 0 <= i <= j <= self.n:
            raise OutOfRangeError(f"rank positions {i}, {j} not in order within [0..{self.n}]")
        ai = self._internal_symbol(a)
        if ai is None:
            return 0, 0
        li = self._cls[ai - 1]
        ri, rj = self.T.rank_pair(li, i, j)
        if (sub := self.subs[li - 1]) is None:
            return ri, rj
        c = self._local[ai - 1]
        return sub.rank(c, ri), sub.rank(c, rj)

    def select(self, a: int, j: int) -> int:
        if j < 1:
            raise OutOfRangeError("select rank must be >= 1")
        ai = self._internal_symbol(a)
        if ai is None:
            raise NotFoundError(f"symbol {a} does not occur")
        if j > self._occ[ai - 1]:
            raise NotFoundError(f"fewer than {j} occurrences of symbol {a}")
        li = self._cls[ai - 1]
        if (sub := self.subs[li - 1]) is not None:
            j = sub.select(self._local[ai - 1], j)
        return self.T.select(li, j)

    def occurrences(self, a: int) -> int:
        ai = self._internal_symbol(a)
        return self._occ[ai - 1] if ai else 0

    def decode(self) -> np.ndarray:
        """Reconstruct the stored sequence in one vectorized pass."""
        order = np.asarray(self._order)
        positions = _group_by_class(self.T.decode(), self.partition.sub_len)
        out = np.empty(self.n, dtype=np.int64)
        for start, pos, sub in zip(self._class_start[1:], positions, self.subs):
            out[pos] = order[start] if sub is None else order[start + sub.decode() - 1]
        if self.alphabet_dict is not None:
            out = self.alphabet_dict.values_of(out)
        return out

    def verify(self):
        """``LargeSequence.verify`` of each permutation class, which a load trusts."""
        for sub in self.subs:
            if isinstance(sub, LargeSequence):
                sub.verify()

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
        for raw, s in zip(part.class_values.tolist(), self.subs):
            payload, directory = (0, 0) if s is None else (s.payload_bits(), s.directory_bits())
            if isinstance(s, (PolySequence, BalancedSequence)):
                payload += s.topology_bits()
            sections.append(SectionSpace(f"s_{raw}", payload, directory))
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
        w.blob(b"" if self.alphabet_dict is None else self.alphabet_dict.serialize())
        w.blob(self.T.serialize())
        w.blob(self.M.serialize())
        for s in self.subs:
            if s is not None:
                w.blob(s.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "ApSequence":
        """Load a sequence; raises InputError when T, M, the class stores
        and the dictionary disagree."""
        with ByteReader(data) as r:
            obj = cls.__new__(cls)
            obj.alphabet_dict = SparseDictionary.deserialize(d) if (d := r.blob()) else None
            obj.T = PolySequence.deserialize(r.blob())
            obj.M = PolySequence.deserialize(r.blob())
            k = obj.M.sigma
            if obj.T.sigma != k:
                raise InputError("class count differs between T and M")
            if obj.alphabet_dict is not None and obj.alphabet_dict.size != obj.M.n:
                raise InputError("alphabet dictionary size differs from the symbol map")
            n = obj.T.n  # the class string has one class per position
            dense = obj.M.decode()
            sub_sigma = np.bincount(dense, minlength=k + 1)[1:]
            # each class's length from T picks its store, so none is tagged
            obj.subs = [None if (store := _store_for(sig_l, n_l, n)) is None
                        else store.deserialize(r.blob())
                        for sig_l, n_l in zip(sub_sigma.tolist(), obj.T.symbol_counts().tolist())]
        # None is one symbol, so a class that M leaves empty is refused
        if not np.array_equal([1 if s is None else s.sigma for s in obj.subs], sub_sigma):
            raise InputError("a class store's alphabet differs from its class in M")
        # the c-th smallest member of class l is local symbol c of s_l
        t_counts = obj.T.symbol_counts()
        counts = np.concatenate([t_counts[l : l + 1] if s is None else s.symbol_counts()
                                 for l, s in enumerate(obj.subs)])
        if counts.min() < 1:
            raise InputError("a class store counts a symbol that does not occur")
        occ = np.empty(dense.size, dtype=np.int64)
        occ[obj._set_symbol_map(dense, sub_sigma)] = counts
        # a class's raw value is that of any member: read its first
        class_values = class_of(n, counts[obj._class_start[1:]])
        if (np.diff(class_values) <= 0).any():
            raise InputError("class values do not rise with the class ids")
        obj._set_partition(Partition(n, occ, dense, class_values))
        if not np.array_equal(obj.T.symbol_counts(), obj.partition.sub_len):
            raise InputError("class counts in T differ from the class store lengths")
        return obj

    def _set_partition(self, part: Partition):
        self.partition = part
        self._occ = memoryview(part.occ)  # its items are ints, read one at a time
        self.n, self.sigma = part.n, part.sigma


def build_partition(seq, general_alphabet: bool = False) -> ApSequence:
    """Build an ApSequence and verify the partition invariants."""
    aps = ApSequence(seq, general_alphabet=general_alphabet)
    aps.partition.check_invariants()
    return aps
