"""Randomized oracle suites behind the `selfcheck` command.

Every suite replays structure queries against a naive scan oracle; a
failure is shrunk to a small witness before reporting.  The fault hook
corrupts one comparison on purpose so the harness itself can be tested.
"""

from __future__ import annotations

import numpy as np

from .apseq import build_partition
from .bitvec import bitvector
from .cfunction import build_function
from .chunkseq import LargeSequence
from .container import dump_structure, load_structure
from .dsets import DisjointSetCollection
from .permutation import KINDS, RunPermutation, build_run_permutation
from .textindex import FmIndex
from .wavelet import PolySequence


class CheckFailure(Exception):
    def __init__(self, suite: str, witness: str):
        super().__init__(f"{suite}: {witness}")
        self.suite = suite
        self.witness = witness


def _scan_rank(seq, a, i):
    return sum(1 for x in seq[:i] if x == a)


def _scan_select(seq, a, j):
    seen = 0
    for pos, x in enumerate(seq, 1):
        if x == a:
            seen += 1
            if seen == j:
                return pos
    return None


def _scan_access_rank(seq, i):
    return seq[i - 1], _scan_rank(seq, seq[i - 1], i)


def _shrink_sequence(seq, fails):
    """Smallest failing prefix by halving, then trimming one element."""
    cur = list(seq)
    while len(cur) > 1 and fails(cur[: len(cur) // 2]):
        cur = cur[: len(cur) // 2]
    while len(cur) > 1 and fails(cur[:-1]):
        cur = cur[:-1]
    return cur


def _sequence_mismatch(seq, fault=False):
    try:
        aps = build_partition(seq, general_alphabet=True)
    except Exception as exc:  # build errors are failures here
        return f"build raised {exc!r}"
    n = len(seq)
    for i in range(1, n + 1):
        got = aps.access(i)
        want = seq[i - 1] + (1 if fault and i == n else 0)
        if got != want:
            return f"access({i}) = {got}, expected {want} on {seq}"
    for i in range(1, n + 1, max(1, n // 13)):
        got = aps.access_rank(i)
        want = _scan_access_rank(seq, i)
        if got != want:
            return f"access_rank({i}) = {got}, expected {want} on {seq}"
    for a in sorted(set(seq)):
        for i in range(0, n + 1, max(1, n // 13)):
            if aps.rank(a, i) != _scan_rank(seq, a, i):
                return f"rank({a},{i}) wrong on {seq}"
        occ = seq.count(a)
        for j in range(1, occ + 1, max(1, occ // 7)):
            if aps.select(a, j) != _scan_select(seq, a, j):
                return f"select({a},{j}) wrong on {seq}"
    return None


def suite_bitvectors(rng, iters, max_n, fault=False):
    checks = 0
    for trial in range(iters):
        n = int(rng.integers(1, max_n + 1))
        density = float(rng.uniform(0.01, 0.99))
        bits = (rng.random(n) < density).astype(np.uint8)
        bv = bitvector(bits)
        lst = bits.tolist()
        for i in range(0, n + 1, max(1, n // 29)):
            want = _scan_rank(lst, 1, i)
            if fault and trial == 0:
                want += 1
            if bv.rank(i, 1) != want:
                raise CheckFailure(
                    "bitvectors", f"rank1({i}) != {want} on bits {lst[:64]}..."
                )
            checks += 1
            if i:
                if bv.access_rank(i) != _scan_access_rank(lst, i):
                    raise CheckFailure(
                        "bitvectors", f"access_rank({i}) wrong on bits {lst[:64]}..."
                    )
                checks += 1
        for bit in (0, 1):
            total = lst.count(bit)
            for j in range(1, total + 1, max(1, total // 17)):
                if bv.select(j, bit) != _scan_select(lst, bit, j):
                    raise CheckFailure("bitvectors", f"select_{bit}({j}) wrong")
                checks += 1
    return checks


def suite_sequences(rng, iters, max_n, fault=False):
    checks = 0
    for trial in range(iters):
        n = int(rng.integers(1, max_n + 1))
        sigma = int(rng.integers(1, min(n, 64) + 1))
        seq = rng.integers(1, sigma + 1, size=n).tolist()
        witness = _sequence_mismatch(seq, fault=(fault and trial == 0))
        if witness:
            small = _shrink_sequence(seq, lambda s: _sequence_mismatch(s) is not None)
            if fault and trial == 0:
                small = seq
            raise CheckFailure("sequences", f"{witness}; shrunk witness: {small}")
        checks += n
        # the two sub-sequence stores, driven directly
        ps = PolySequence(seq, alphabet_size=sigma)
        ls = LargeSequence(seq, alphabet_size=sigma)
        for i in range(1, n + 1, max(1, n // 11)):
            if ps.access(i) != seq[i - 1] or ls.access(i) != seq[i - 1]:
                raise CheckFailure("sequences", f"sub-store access({i}) on {seq}")
            want = _scan_access_rank(seq, i)
            if ps.access_rank(i) != want or ls.access_rank(i) != want:
                raise CheckFailure("sequences", f"sub-store access_rank({i}) on {seq}")
            checks += 2
    return checks


def suite_permutations(rng, iters, max_n, fault=False):
    checks = 0
    for trial in range(iters):
        n = int(rng.integers(1, max_n + 1))
        pi = rng.permutation(np.arange(1, n + 1)).tolist()
        kind = KINDS[trial % len(KINDS)]
        step = max(2, n // 8)
        rp = build_run_permutation(pi, kind, power_step=step)
        for i in range(1, n + 1, max(1, n // 19)):
            want = pi[i - 1] + (1 if fault and trial == 0 else 0)
            if rp.apply(i) != want:
                raise CheckFailure(
                    "permutations", f"{kind}: apply({i}) != {want} on {pi}"
                )
            if rp.inverse(rp.apply(i)) != i:
                raise CheckFailure("permutations", f"{kind}: inverse broke at {i}")
            checks += 2
        for i in (1, max(1, n // 2), n):
            for k in (-2 * n - 1, -3, 0, 5, n, 2 * n + 3):
                got = rp.power(i, k)
                y = i
                for _ in range(k % _cycle_len(pi, i)):
                    y = pi[y - 1]
                if got != y:
                    raise CheckFailure(
                        "permutations", f"{kind}: power({i},{k}) = {got} != {y}"
                    )
                if rp.last_power_walk > 2 * step:
                    raise CheckFailure(
                        "permutations", f"walk {rp.last_power_walk} > {2 * step}"
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
                ds.union(i, j)
                parent[find(i)] = find(j)
            same_mine = ds.find(i) == ds.find(j)
            same_naive = (find(i) == find(j)) ^ (fault and trial == 0 and checks == 0)
            if same_mine != same_naive:
                raise CheckFailure("dsets", f"divergence at pair ({i},{j}), n={n}")
            checks += 1
    return checks


def suite_index(rng, iters, max_n, fault=False):
    checks = 0
    for trial in range(iters):
        n = int(rng.integers(2, max_n + 1))
        sigma = int(rng.integers(2, 17))
        text = rng.integers(1, sigma + 1, size=n).tolist()
        fm = FmIndex(text)
        for _ in range(12):
            m = int(rng.integers(1, min(8, n) + 1))
            start = int(rng.integers(0, n - m + 1))
            pat = text[start : start + m]
            want = sum(
                1 for i in range(n - m + 1) if text[i : i + m] == pat
            ) + (1 if fault and trial == 0 else 0)
            if fm.count(pat) != want:
                raise CheckFailure(
                    "index", f"count({pat}) != {want} on text {text[:48]}..."
                )
            checks += 1
        l = int(rng.integers(1, n + 1))
        r = int(rng.integers(l, n + 1))
        if fm.extract(l, r) != text[l - 1 : r]:
            raise CheckFailure("index", f"extract({l},{r}) on {text[:48]}...")
        checks += 1
    return checks


def suite_serialization(rng, iters, max_n, fault=False):
    checks = 0
    for trial in range(iters):
        n = int(rng.integers(2, max_n + 1))
        sigma = max(2, int(rng.integers(2, min(n, 32) + 1)))
        seq = rng.integers(1, sigma + 1, size=n).tolist()
        aps = build_partition(seq, general_alphabet=True)
        perm = build_run_permutation(
            rng.permutation(np.arange(1, n + 1)).tolist(), KINDS[trial % 4],
            power_step=4,
        )
        indexes = [FmIndex(seq), FmIndex(seq, k_context=1)]
        for obj in [aps, perm, *indexes]:
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
                       (f"k={obj.k_context}: extract({l},{r})",
                        lambda x, l=l, r=r: x.extract(l, r))]
        return probes
    if isinstance(obj, RunPermutation):
        return [(f"{obj.decomposition.kind}: rho and H(runs)",
                 lambda x: (x.rho, x.decomposition.entropy()))]
    return ([(f"occurrences({a})", lambda x, a=a: x.occurrences(a)) for a in set(seq)]
            + [(f"access({i})", lambda x, i=i: x.access(i))
               for i in range(1, n + 1, max(1, n // 17))])


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
