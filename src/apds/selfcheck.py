"""Randomized oracle suites behind the `selfcheck` command.

One checker, ``rank_select_mismatch``, holds a rank/select structure to
numpy prefix counts of its input: ``bitvectors`` runs it on PlainBitVector
and SparseBitVector storing ones and zeros (through ``BitSequence``),
``sequences`` on ApSequence, PolySequence, BalancedSequence and, over
the stable argsort of each trial's sequence (a permutation),
LargeSequence, each built and loaded.  The other suites replay queries
against naive scans.  A failure is shrunk to a small witness.  The fault
hook corrupts the oracle's input or one comparison, so the harness itself
can be tested.
"""

from __future__ import annotations

import numpy as np

from .apseq import build_partition
from .bitvec import SPARSE_MIN_BITS, PlainBitVector, SparseBitVector, load_bitvector
from .cfunction import MODES, CompressedFunction, build_function
from .chunkseq import LargeSequence
from .container import dump_structure, load_structure
from .dsets import DisjointSetCollection
from .errors import NotFoundError, OutOfRangeError
from .permutation import KINDS, RunPermutation, build_run_permutation
from .textindex import FmIndex
from .wavelet import BalancedSequence, PolySequence


class CheckFailure(Exception):
    def __init__(self, suite: str, witness: str):
        super().__init__(f"{suite}: {witness}")
        self.suite = suite
        self.witness = witness


class BitSequence:
    """A bitvector as a sequence over [1..2]: bit b is symbol b + 1, and
    every other symbol is absent."""

    def __init__(self, bv):
        self.bv = bv

    def access(self, i: int) -> int:
        return self.bv.access(i) + 1

    def access_rank(self, i: int) -> tuple[int, int]:
        b, r = self.bv.access_rank(i)
        return b + 1, r

    def rank(self, a: int, i: int) -> int:
        if a not in (1, 2) and 0 <= i <= self.bv.n:
            return 0
        return self.bv.rank(i, a - 1)  # which checks i

    def select(self, a: int, j: int) -> int:
        if a not in (1, 2) and j >= 1:
            raise NotFoundError(f"symbol {a} does not occur")
        return self.bv.select(j, a - 1)

    def decode(self) -> np.ndarray:
        return self.bv.to_bits().astype(np.int64) + 1


def reload(struct):
    """A copy of a rank/select structure, loaded from its own bytes."""
    if isinstance(struct, BitSequence):
        return BitSequence(load_bitvector(struct.bv.serialize()))
    return type(struct).deserialize(struct.serialize())


def rank_select_mismatch(struct, seq, symbols=None) -> str | None:
    """The first answer of ``struct`` that differs from numpy prefix counts
    of ``seq``, as a witness string, or None.  rank and rank_pair are asked
    at every i of the ``symbols`` given (by default every symbol of ``seq``
    and one absent one), and rank of any other symbol of ``seq`` at each of
    its occurrences, just before each and at n; select is asked of every
    symbol.  An error raised where an answer is due, or the wrong error, is
    a wrong answer."""
    for query, args, wants in _queries(struct, np.asarray(seq, dtype=np.int64), symbols):
        try:
            if [query(*x) for x in args] == wants:
                continue
        except Exception:  # an error: the walk below finds the first
            pass
        for x, want in zip(args, wants):
            try:
                got = query(*x)
            except Exception as exc:
                got = type(exc)
            if got != want:
                got, want = (getattr(v, "__name__", v) for v in (got, want))  # error classes
                return f"{query.__name__}({', '.join(map(str, x))}) = {got}, expected {want}"
    return None


def _queries(struct, seq, symbols):
    """(query, argument tuples, the answer or error due for each): access,
    access_rank and decode; rank at every i in [0..n] and rank_pair(a, i, j)
    where the structure has it, j spread over [i..n], or rank around each
    occurrence; select of every occurrence and one past the last; and the
    out-of-range arguments."""
    n, want = seq.size, seq.tolist()
    order = np.argsort(seq, kind="stable")  # each symbol's positions, in order
    ordered = seq[order]
    # a position's rank of its own symbol: its place in its symbol's run
    own = np.empty(n, dtype=np.int64)
    own[order] = np.arange(1, n + 1) - np.searchsorted(ordered, ordered)
    positions = [(i,) for i in range(1, n + 1)]
    yield struct.access, positions, want
    yield struct.access_rank, positions, list(zip(want, own.tolist()))

    def decode():
        return struct.decode().tolist()

    yield decode, [()], [want]
    for query in (struct.access, struct.access_rank):
        yield query, [(0,), (n + 1,)], [OutOfRangeError] * 2
    present = np.unique(seq).tolist()
    if symbols is None:
        symbols = [*present, int(seq.max(initial=0)) + 1]
    ranked = [int(a) for a in symbols]
    pair = getattr(struct, "rank_pair", None)
    # i's second end by a multiplicative hash: near, far and equal ends all occur
    ends = [(i, i + (i + 1) * 40503 % (n + 1 - i)) for i in range(n + 1)]
    for a in ranked:
        prefix = np.concatenate([[0], np.cumsum(seq == a)]).tolist()
        yield struct.rank, [(a, i) for i in range(n + 1)], prefix
        yield struct.rank, [(a, -1), (a, n + 1)], [OutOfRangeError] * 2
        if pair:
            yield pair, [(a, i, j) for i, j in ends], [(prefix[i], prefix[j]) for i, j in ends]
            yield pair, [(a, 1, 0), (a, 0, n + 1), (a, -1, 0)], [OutOfRangeError] * 3
    for a in sorted({*present, *ranked}):
        where = (order[np.searchsorted(ordered, a):np.searchsorted(ordered, a, "right")]
                 + 1).tolist()
        if a not in ranked:
            yield struct.rank, [(a, p - d) for p in where for d in (1, 0)] + [(a, n)], [
                j + d for j in range(len(where)) for d in (0, 1)] + [len(where)]
        yield struct.select, [(a, j) for j in range(1, len(where) + 1)], where
        yield struct.select, [(a, len(where) + 1), (a, 0)], [NotFoundError, OutOfRangeError]


def _zipf_sequence(rng, n, sigma):
    """n draws over [1..sigma] with P(a) proportional to a^-1.5: skewed
    counts put symbols in classes of their own, which uniform draws seldom do."""
    weights = 1.0 / np.arange(1, sigma + 1) ** 1.5
    return rng.choice(np.arange(1, sigma + 1), size=n, p=weights / weights.sum())


def _dominant_sequence(rng, n):
    """n draws where symbol 1 holds at least 90 % and two to nine others
    share the rest: from n = SPARSE_MIN_BITS on, the first level of a
    wavelet matrix of it is sparse, and the levels of the rest below it
    are plain while they are short."""
    sigma = int(rng.integers(3, 11))
    seq = np.ones(n, dtype=np.int64)
    rest = rng.integers(2, sigma + 1, size=int(rng.integers(2, n // 10 + 1)))
    rest[:2] = 2, 3
    seq[rng.choice(n, size=rest.size, replace=False)] = rest
    return seq


def _shrink_sequence(seq, fails):
    """Smallest failing prefix by halving, then trimming one element."""
    cur = list(seq)
    while len(cur) > 1 and fails(cur[: len(cur) // 2]):
        cur = cur[: len(cur) // 2]
    while len(cur) > 1 and fails(cur[:-1]):
        cur = cur[:-1]
    return cur


def _raise_last(seq: list) -> list:
    """The fault hook's oracle input: its last symbol raised by one."""
    return seq[:-1] + [seq[-1] + 1]


def _stores_mismatch(stores) -> tuple[str | None, int]:
    """The first witness of any store, built or loaded, against the
    sequence it stores (a load error is one), and how many queries were
    asked.  ``stores`` holds (store, that sequence) pairs."""
    asked = 0
    for built, seq in stores:
        name = type(getattr(built, "bv", built)).__name__
        try:
            loaded = reload(built)
        except Exception as exc:
            return f"loading {name} raised {exc!r}", asked
        for label, struct in (("built", built), ("loaded", loaded)):
            if witness := rank_select_mismatch(struct, seq):
                return f"{label} {name}: {witness}", asked
            asked += sum(len(args) for _, args, _ in _queries(struct, np.asarray(seq), None))
    return None, asked


def suite_bitvectors(rng, iters, max_n, fault=False):
    """Plain and sparse (storing ones, storing zeros) vectors of random
    density, built and loaded."""
    checks = 0
    for trial in range(iters):
        n = int(rng.integers(1, max_n + 1))
        if trial % 2 and n % 64 == 0:  # odd trials end in a padded word
            n -= 1
        density = float(rng.uniform(0.01, 0.99))
        bits = (rng.random(n) < density).astype(np.uint8)
        seq = (bits + 1).tolist()
        stores = [PlainBitVector.from_bits(bits), SparseBitVector(n, np.flatnonzero(bits), 1),
                  SparseBitVector(n, np.flatnonzero(bits == 0), 0)]
        oracle = _raise_last(seq) if fault and trial == 0 else seq
        witness, asked = _stores_mismatch([(BitSequence(bv), oracle) for bv in stores])
        if witness:
            raise CheckFailure("bitvectors", f"{witness} on bits {bits[:64].tolist()}...")
        checks += asked
    return checks


def suite_sequences(rng, iters, max_n, fault=False):
    """ApSequence over a general alphabet, PolySequence and BalancedSequence,
    and LargeSequence over the sequence's stable argsort, built and loaded,
    each asked about every symbol.  The last trial draws
    ``_dominant_sequence`` at n = max(max_n, SPARSE_MIN_BITS), so every run
    walks a sparse level and plain ones."""
    checks = 0
    for trial in range(iters):
        n = int(rng.integers(1, max_n + 1))
        sigma = int(rng.integers(1, min(n, 64) + 1))
        if trial == iters - 1:
            n = max(max_n, SPARSE_MIN_BITS)
            seq = _dominant_sequence(rng, n)
            sigma = int(seq.max())
        else:
            seq = (_zipf_sequence(rng, n, sigma) if trial % 2
                   else rng.integers(1, sigma + 1, size=n))
        oracle = _raise_last if fault and trial == 0 else list

        def mismatch(s):
            perm = (np.argsort(s, kind="stable") + 1).tolist()
            try:
                stores = [(build_partition(s, general_alphabet=True), s),
                          (PolySequence(s, alphabet_size=sigma), s),
                          (BalancedSequence(s, alphabet_size=sigma), s),
                          (LargeSequence(perm), perm)]
            except Exception as exc:  # build errors are failures here
                return f"build raised {exc!r}", 0
            return _stores_mismatch([(store, oracle(x)) for store, x in stores])

        witness, asked = mismatch(seq.tolist())
        if witness:
            small = _shrink_sequence(seq.tolist(), lambda s: mismatch(s)[0] is not None)
            raise CheckFailure("sequences", f"{witness}; shrunk witness: {small}")
        checks += asked
    return checks


def suite_permutations(rng, iters, max_n, fault=False):
    """apply, inverse and power of each permutation, built and loaded."""
    checks = 0
    for trial in range(iters):
        n = int(rng.integers(1, max_n + 1))
        pi = rng.permutation(np.arange(1, n + 1)).tolist()
        kind = KINDS[trial % len(KINDS)]
        step = max(2, n // 8)
        rp = build_run_permutation(pi, kind, power_step=step)
        for copy, perm in (("built", rp), ("loaded", RunPermutation.deserialize(rp.serialize()))):
            for i in range(1, n + 1, max(1, n // 19)):
                want = pi[i - 1] + (1 if fault and trial == 0 else 0)
                if perm.apply(i) != want:
                    raise CheckFailure(
                        "permutations", f"{kind} {copy}: apply({i}) != {want} on {pi}"
                    )
                if perm.inverse(perm.apply(i)) != i:
                    raise CheckFailure("permutations", f"{kind} {copy}: inverse broke at {i}")
                checks += 2
            for i in (1, max(1, n // 2), n):
                for k in (-2 * n - 1, -3, 0, 5, n, 2 * n + 3):
                    got = perm.power(i, k)
                    y = i
                    for _ in range(k % _cycle_len(pi, i)):
                        y = pi[y - 1]
                    if got != y:
                        raise CheckFailure(
                            "permutations", f"{kind} {copy}: power({i},{k}) = {got} != {y}"
                        )
                    bound = min(abs(k), step - 1 + step // 2)
                    if perm.last_power_walk > bound:
                        raise CheckFailure(
                            "permutations", f"{kind} {copy}: power({i},{k}) walked "
                            f"{perm.last_power_walk} > {bound}",
                        )
                    checks += 1
    return checks


def _cycle_len(pi, i):
    y = pi[i - 1]
    length = 1
    while y != i:
        y = pi[y - 1]
        length += 1
    return length


def suite_functions(rng, iters, max_n, fault=False):
    checks = 0
    modes = ("direct", "runs-interleaved", "runs-contiguous")
    for trial in range(iters):
        n = int(rng.integers(1, max_n + 1))
        sigma = int(rng.integers(1, min(n, 32) + 1))
        f = rng.integers(1, sigma + 1, size=n)
        f[:sigma] = np.arange(1, sigma + 1)
        f = f.tolist()
        fn = build_function(f, mode=modes[trial % 3])
        for i in range(1, n + 1, max(1, n // 23)):
            want = f[i - 1] + (1 if fault and trial == 0 else 0)
            if fn.eval(i) != want:
                raise CheckFailure("functions", f"eval({i}) != {want} on {f}")
            checks += 1
        total = 0
        for a in range(1, sigma + 1):
            size = fn.preimage_size(a)
            total += size
            if size != f.count(a):
                raise CheckFailure("functions", f"preimage_size({a}) on {f}")
            checks += 1
        if total != n:
            raise CheckFailure("functions", f"preimage sizes sum {total} != {n}")
    return checks


def suite_dsets(rng, iters, max_n, fault=False):
    checks = 0
    for trial in range(iters):
        n = int(rng.integers(2, max_n + 1))
        ds = DisjointSetCollection(n, epsilon=0.2)
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for _ in range(3 * n):
            i, j = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
            if rng.random() < 0.5:
                if ds.union(i, j) != ds.find(i):
                    raise CheckFailure("dsets", f"union({i},{j}) is not find({i}), n={n}")
                parent[find(i)] = find(j)
            same_mine = ds.find(i) == ds.find(j)
            same_naive = (find(i) == find(j)) ^ (fault and trial == 0 and checks == 0)
            if same_mine != same_naive:
                raise CheckFailure("dsets", f"divergence at pair ({i},{j}), n={n}")
            checks += 1
    return checks


def suite_index(rng, iters, max_n, fault=False):
    """count against a naive scan, and locate and extract on the built index
    and on its loaded copy, whose first extract derives the inverse samples."""
    checks = 0
    for trial in range(iters):
        n = int(rng.integers(2, max_n + 1))
        sigma = int(rng.integers(2, 17))
        text = rng.integers(1, sigma + 1, size=n).tolist()
        k = trial % 2
        fm = FmIndex(text, k_context=k)
        copies = (("built", fm), ("loaded", load_structure(dump_structure(fm))[0]))
        for _ in range(12):
            m = int(rng.integers(1, min(8, n) + 1))
            start = int(rng.integers(0, n - m + 1))
            pat = text[start : start + m]
            occ = [i + 1 for i in range(n - m + 1) if text[i : i + m] == pat]
            want = len(occ) + (1 if fault and trial == 0 else 0)
            if fm.count(pat) != want:
                raise CheckFailure(
                    "index", f"k={k}: count({pat}) != {want} on text {text[:48]}..."
                )
            checks += 1
            for label, idx in copies:
                if idx.locate(pat) != occ:
                    raise CheckFailure(
                        "index", f"k={k}: {label} locate({pat}) != {occ} on text {text[:48]}..."
                    )
                checks += 1
        l = int(rng.integers(1, n + 1))
        r = int(rng.integers(l, n + 1))
        for label, idx in copies:
            for a, b in ((l, r), (n, n)):  # (n, n) reads the last inverse sample
                if idx.extract(a, b) != text[a - 1 : b]:
                    raise CheckFailure("index", f"k={k}: {label} extract({a},{b}) on {text[:48]}...")
                checks += 1
    return checks


def suite_serialization(rng, iters, max_n, fault=False):
    checks = 0
    for trial in range(iters):
        n = int(rng.integers(2, max_n + 1))
        sigma = max(2, int(rng.integers(2, min(n, 32) + 1)))
        seq = (_zipf_sequence(rng, n, sigma) if trial % 2
               else rng.integers(1, sigma + 1, size=n)).tolist()
        aps = build_partition(seq, general_alphabet=True)
        perm = build_run_permutation(
            rng.permutation(np.arange(1, n + 1)).tolist(), KINDS[trial % 4],
            power_step=4,
        )
        indexes = [FmIndex(seq), FmIndex(seq, k_context=1)]
        functions = [build_function(seq, mode=mode, remap=True) for mode in MODES]
        for obj in [aps, perm, *indexes, *functions]:
            data = dump_structure(obj)
            if fault and trial == 0:
                data = data[:-1] + bytes([data[-1] ^ 1])
            back, _, _ = load_structure(data)
            if dump_structure(back) != data:
                raise CheckFailure(
                    "serialization", f"round trip not byte-identical (n={n})"
                )
            checks += 1
            checks += _same_after_load(obj, back, _load_probes(obj, seq, rng), n)
    return checks


def _load_probes(obj, seq, rng):
    """(label, query) pairs over the values that load derives, which the
    byte comparison cannot see."""
    n = len(seq)
    if isinstance(obj, FmIndex):
        probes = []
        for _ in range(6):
            m = int(rng.integers(1, min(6, n) + 1))
            start = int(rng.integers(0, n - m + 1))
            pat = seq[start : start + m]
            l = int(rng.integers(1, n + 1))
            r = int(rng.integers(l, n + 1))
            probes += [(f"k={obj.k_context}: count({pat})", lambda x, p=pat: x.count(p)),
                       (f"k={obj.k_context}: locate({pat})", lambda x, p=pat: x.locate(p)),
                       (f"k={obj.k_context}: extract({l},{r})",
                        lambda x, l=l, r=r: x.extract(l, r))]
        return probes
    if isinstance(obj, RunPermutation):
        return [(f"{obj.decomposition.kind}: rho and H(runs)",
                 lambda x: (x.rho, x.decomposition.entropy()))]
    if isinstance(obj, CompressedFunction):
        return ([(f"{obj.mode}: preimage_size({a})", lambda x, a=a: x.preimage_size(a))
                 for a in set(seq)]
                + [(f"{obj.mode}: eval({i})", lambda x, i=i: x.eval(i))
                   for i in range(1, n + 1, max(1, n // 17))])
    # a sequence: the sequences suite holds its loaded copies to every query
    return [("decode()", lambda x: x.decode().tolist())]


def _same_after_load(built, loaded, probes, n):
    for label, query in probes:
        got, want = query(loaded), query(built)
        if got != want:
            raise CheckFailure(
                "serialization", f"{label} = {got} after load, {want} before (n={n})"
            )
    return len(probes)


SUITES = {
    "bitvectors": suite_bitvectors,
    "sequences": suite_sequences,
    "permutations": suite_permutations,
    "functions": suite_functions,
    "dsets": suite_dsets,
    "index": suite_index,
    "serialization": suite_serialization,
}


def run_selfcheck(seed: int, iters: int, max_n: int, inject_fault: str | None = None,
                  out=print):
    """Returns process exit code: 0 all suites pass, 1 otherwise."""
    failed = False
    for name, suite in SUITES.items():
        rng = np.random.default_rng(seed)
        try:
            checks = suite(rng, iters, max_n, fault=(inject_fault == name))
            out(f"{name}: {checks} checks, pass")
        except CheckFailure as cf:
            out(f"{name}: FAIL: {cf.witness}")
            failed = True
        except Exception as exc:  # serialization fault flips a payload byte
            if inject_fault == name:
                out(f"{name}: FAIL: {exc!r}")
                failed = True
            else:
                raise
    return 1 if failed else 0
