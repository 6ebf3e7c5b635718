"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from apds.apseq import ApSequence, Partition, build_partition
from apds.cfunction import build_function
from apds.chunkseq import LargeSequence
from apds.container import dump_structure, load_structure
from apds.dsets import DisjointSetCollection
from apds.permutation import KINDS, build_run_permutation, decompose_runs
from apds.stats import h0, h_runs
from apds.textindex import BlockRelation, BlockStore, FmIndex, suffix_array, bwt_of
from apds.wavelet import BalancedSequence, PolySequence
from nl_corpus import natural_text

RNG = np.random.default_rng(20260809)


def zipf_or_uniform(rng, n, sigma, theta):
    values = np.arange(1, sigma + 1)
    if theta == 0.0 or sigma == 1:
        out = rng.integers(1, sigma + 1, size=n)
    else:
        w = 1.0 / values.astype(float) ** theta
        out = rng.choice(values, size=n, p=w / w.sum())
    out[: min(sigma, n)] = values[: min(sigma, n)]  # effective alphabet
    return rng.permutation(out)


def corpus_500(rng):
    for trial in range(500):
        n = int(rng.integers(2, 4097))
        sigma = int(rng.integers(1, min(n, 512) + 1))
        theta = float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0]))
        yield zipf_or_uniform(rng, n, sigma, theta)


# --- criterion 1 + 2: partition identity & class-size bound -------------------

_partitions = None


def _build_corpus_partitions():
    global _partitions
    if _partitions is None:
        rng = np.random.default_rng(101)
        _partitions = [(s, Partition.of(s)) for s in corpus_500(rng)]
    return _partitions


def test_criterion_1_partition_identity():
    t0 = time.monotonic()
    parts = _build_corpus_partitions()
    worst = -math.inf
    for s, part in parts:
        nh0t, sub, nh0s, slack = part.identity_terms()
        lhs, rhs = nh0t + sub, nh0s + slack
        assert lhs < rhs + 1e-9 * max(1.0, rhs), f"identity violated (n={s.size})"
        worst = max(worst, lhs - rhs)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (limit 30s)"
    print(f"\nACCEPTANCE 1: PASS partition identity on 500 strings, "
          f"max(lhs-rhs) = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_class_size_bound():
    violations = 0
    for s, part in _build_corpus_partitions():
        n = part.n
        if n < 2:
            continue
        factor = 2.0 ** (1.0 / math.log2(n))
        for a in range(1, part.sigma + 1):
            ci = part.symbol_class_dense[a - 1]
            bound = factor * int(part.sub_len[ci - 1]) / int(part.occ[a - 1])
            if not part.sub_sigma[ci - 1] < bound:
                violations += 1
    assert violations == 0
    print("\nACCEPTANCE 2: PASS class-size bound, zero violations on 500 strings")


# --- criterion 3: oracle equivalence -------------------------------------------


def _symbol_positions(seq):
    pos = {}
    arr = np.asarray(seq)
    for a in np.unique(arr):
        pos[int(a)] = np.flatnonzero(arr == a) + 1
    return pos


def _check_exhaustive(structure, seq, rank_fn, select_fn, access_fn):
    n = len(seq)
    pos = _symbol_positions(seq)
    for i in range(1, n + 1):
        assert access_fn(i) == seq[i - 1]
    for a, plist in pos.items():
        for i in range(n + 1):
            want = int(np.searchsorted(plist, i, side="right"))
            assert rank_fn(a, i) == want, (a, i)
        for j in range(1, plist.size + 1):
            assert select_fn(a, j) == int(plist[j - 1])
    return n * (len(pos) + 1) + sum(p.size for p in pos.values())


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    perm_rng = np.random.default_rng(304)  # the LargeSequence rows draw apart from the others
    checks = 0
    ladder = [(1, 1), (2, 2), (3, 2), (5, 3), (8, 7), (16, 16), (33, 4),
              (64, 61), (127, 3), (256, 64), (511, 128), (512, 512)]
    for n, sigma in ladder:
        seq = zipf_or_uniform(rng, n, sigma, 1.0).tolist()
        aps = build_partition(seq)
        checks += _check_exhaustive(aps, seq, aps.rank, aps.select, aps.access)
        ps = PolySequence(seq, alphabet_size=sigma)
        checks += _check_exhaustive(ps, seq, ps.rank, ps.select, ps.access)
        bal = BalancedSequence(seq, alphabet_size=sigma)
        checks += _check_exhaustive(bal, seq, bal.rank, bal.select, bal.access)
        perm = (perm_rng.permutation(n) + 1).tolist()
        ls = LargeSequence(perm, alphabet_size=n)
        checks += _check_exhaustive(ls, perm, ls.rank, ls.select, ls.access)
        for b in (1, 2, 3, 4):
            bs = BlockStore(seq, block_len=b)
            rel = BlockRelation(bs)
            checks += _check_exhaustive(bs, seq, rel.rank, rel.select, bs.access)

    # sampled queries at large n, up to 2^20; oracles from the raw inputs
    big_inputs = [zipf_or_uniform(rng, 1 << 20, 256, 1.0),
                  zipf_or_uniform(rng, 1 << 20, 16, 0.5),
                  zipf_or_uniform(rng, 1 << 18, 1024, 0.0),
                  zipf_or_uniform(rng, 1 << 16, 64, 1.0)]
    big = [build_partition(big_inputs[0].tolist()),
           PolySequence(big_inputs[1].tolist(), alphabet_size=16),
           BalancedSequence(big_inputs[2].tolist(), alphabet_size=1024)]
    bs = BlockStore(big_inputs[3].tolist(), block_len=2)
    big.append(BlockRelation(bs))
    for arr, st in zip(big_inputs, big):
        n = arr.size
        pos = _symbol_positions(arr)
        symbols = list(pos.keys())
        access_fn = bs.access if isinstance(st, BlockRelation) else st.access
        for _ in range(10_000 // 4):
            i = int(rng.integers(1, n + 1))
            assert access_fn(i) == arr[i - 1]
            a = symbols[int(rng.integers(0, len(symbols)))]
            plist = pos[a]
            i = int(rng.integers(0, n + 1))
            assert st.rank(a, i) == int(np.searchsorted(plist, i, side="right"))
            j = int(rng.integers(1, plist.size + 1))
            assert st.select(a, j) == int(plist[j - 1])
            checks += 3
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s (limit 5 min)"
    print(f"\nACCEPTANCE 3: PASS oracle equivalence, {checks} checks, "
          f"{elapsed:.1f}s (< 300s)")


# --- criterion 4: space accounting ----------------------------------------------


def test_criterion_4_space_accounting():
    rng = np.random.default_rng(404)
    n = 1 << 20
    seq = zipf_or_uniform(rng, n, 256, 1.0)
    aps = build_partition(seq.tolist(), general_alphabet=True)
    rep = aps.space_report()
    serialized_bits = len(dump_structure(aps)) * 8
    cap_plain = n * math.ceil(math.log2(aps.sigma))
    assert serialized_bits <= cap_plain, (
        f"serialized {serialized_bits} > n*ceil(lg sigma) = {cap_plain}"
    )
    core = rep.payload_total()
    cap_core = 2.0 * rep.h0_bits + 64 * aps.sigma + 10**4
    assert core <= cap_core, f"core payload {core} > {cap_core:.0f}"
    abra = build_partition([1, 2, 5, 1, 3, 1, 4, 1, 2, 5, 1]).space_report()
    assert abra.h0_bits == pytest.approx(22.44, abs=1e-2)
    print(f"\nACCEPTANCE 4: PASS 1MiB Zipf: serialized {serialized_bits} "
          f"<= {cap_plain} bits, core {core} <= {cap_core:.0f} bits; "
          f"abracadabra nH0 = {abra.h0_bits:.4f}")


# --- criterion 5: permutations ---------------------------------------------------


def test_criterion_5_permutations():
    rng = np.random.default_rng(505)
    # exhaustive apply/inverse round trips, all kinds, n up to 1024
    for n in (1, 2, 3, 17, 128, 1024):
        for kind in KINDS:
            pi = rng.permutation(np.arange(1, n + 1)).tolist()
            rp = build_run_permutation(pi, kind)
            inv = np.empty(n + 1, dtype=np.int64)
            for i, v in enumerate(pi, 1):
                inv[v] = i
            for i in range(1, n + 1):
                v = rp.apply(i)
                assert v == pi[i - 1]
                assert rp.inverse(v) == i
                assert rp.inverse(i) == int(inv[i])
            dec = rp.decomposition
            h = dec.entropy()
            assert h <= math.log2(dec.rho) + 1e-12
            if n > 1:
                assert n * h >= (dec.rho - 1) * math.log2(n) - 1e-9
    # powers equal naive k-fold application, |k| <= n, walk bound instrumented
    total_power = 0
    for n, t_exp, stride in ((1, 1, 1), (2, 2, 1), (5, 2, 1), (17, 3, 1),
                             (64, 4, 1), (256, 8, 4)):
        pi = rng.permutation(np.arange(1, n + 1)).tolist()
        inv = [0] * (n + 1)
        for i, v in enumerate(pi, 1):
            inv[v] = i
        kind = KINDS[n % len(KINDS)]
        rp = build_run_permutation(pi, kind, power_step=t_exp)
        for i in range(1, n + 1, stride):
            y = i
            for k in range(0, n + 1):  # forward, incrementally
                assert rp.power(i, k) == y, (i, k)
                assert rp.last_power_walk <= t_exp - 1 + t_exp // 2
                y = pi[y - 1]
                total_power += 1
            y = i
            for k in range(0, -n - 1, -1):  # backward
                assert rp.power(i, k) == y, (i, k)
                assert rp.last_power_walk <= t_exp - 1 + t_exp // 2
                y = inv[y]
                total_power += 1
    print(f"\nACCEPTANCE 5: PASS permutations: exhaustive round trips "
          f"(4 kinds, n<=1024), {total_power} power checks, walks <= t - 1 + t // 2")


# --- criterion 6: functions -------------------------------------------------------


def test_criterion_6_functions():
    rng = np.random.default_rng(606)
    modes = ("direct", "runs-interleaved", "runs-contiguous")
    for trial in range(200):
        n = int(rng.integers(1, 1025))
        sigma = int(rng.integers(1, min(n, 64) + 1))
        f = rng.integers(1, sigma + 1, size=n)
        f[:sigma] = np.arange(1, sigma + 1)
        f = rng.permutation(f).tolist()
        fn = build_function(f, mode=modes[trial % 3])
        for i in range(1, n + 1):
            assert fn.eval(i) == f[i - 1]
        if fn.pi is not None:  # the delimiter-bitmap identity, query by query
            for i in range(1, n + 1):
                assert fn.b.rank(fn.b.select(fn.pi.apply(i), 0), 1) == f[i - 1]
        seen = []
        for a in range(1, sigma + 1):
            pre = fn.preimage(a)
            assert len(pre) == fn.preimage_size(a) == f.count(a)
            assert all(f[i - 1] == a for i in pre)
            seen.extend(pre)
        assert sorted(seen) == list(range(1, n + 1)), "preimages must partition"
    print("\nACCEPTANCE 6: PASS functions: 200 builds, exhaustive eval, "
          "preimage partition, bitmap identity")


# --- criterion 7: disjoint sets -----------------------------------------------------


class _NaiveDSU:
    def __init__(self, n):
        self.parent = list(range(n + 1))
        self.rank = [0] * (n + 1)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


def _same_partition(ds, naive, n):
    mapping = {}
    for i in range(1, n + 1):
        a, b = ds.find(i), naive.find(i)
        if mapping.setdefault(a, b) != b:
            return False
    return len(set(mapping.values())) == len(mapping)


def test_criterion_7_disjoint_sets():
    rng = np.random.default_rng(707)
    n = 10**4
    ds = DisjointSetCollection(n, epsilon=0.1)
    naive = _NaiveDSU(n)
    rebuilds_seen = 0
    # Operand-level agreement every op plus full partition checks at every
    # rebuild and periodically: since both sides merge exactly the same two
    # sets whenever the operand checks agree, partition equality after every
    # op follows inductively from these checks.
    for step in range(10**5):
        i, j = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        if rng.random() < 0.5:
            ds.union(i, j)
            naive.union(i, j)
        assert (ds.find(i) == ds.find(j)) == (naive.find(i) == naive.find(j))
        if ds.rebuild_count > rebuilds_seen:
            rebuilds_seen = ds.rebuild_count
            assert _same_partition(ds, naive, n), f"diverged at rebuild, op {step}"
        if step % 20000 == 19999:
            assert _same_partition(ds, naive, n), f"diverged at op {step}"
    assert _same_partition(ds, naive, n)
    bound = math.ceil(math.log(math.log2(n)) / math.log(1.1)) + 1
    assert ds.rebuild_count <= bound, (ds.rebuild_count, bound)

    n2 = 1 << 16
    ds2 = DisjointSetCollection(n2, epsilon=0.1)
    initial = ds2.ids_payload_bits()
    for a in range(2, n2 + 1):
        ds2.union(1, a)
    final = ds2.ids_payload_bits()
    bound2 = math.ceil(math.log(math.log2(n2)) / math.log(1.1)) + 1
    assert ds2.rebuild_count <= bound2
    assert final < 0.05 * initial, f"{final} not < 5% of {initial}"
    print(f"\nACCEPTANCE 7: PASS dsets: 1e5 ops partition-equal, "
          f"rebuilds {ds.rebuild_count} <= {bound}; merge 2^16 payload "
          f"{final}/{initial} = {final/initial:.3%} < 5%")


# --- criterion 8: self-index ---------------------------------------------------------


def _occurrences_bytes(text: bytes, pat: bytes):
    out = []
    start = text.find(pat)
    while start != -1:
        out.append(start + 1)
        start = text.find(pat, start + 1)
    return out


def test_criterion_8_self_index():
    rng = np.random.default_rng(808)
    # frozen BWT anchor
    fm_abra = FmIndex("abracadabra")
    assert fm_abra.bwt_string() == "ard$rcaaaabb"

    counted = located = 0
    for trial in range(100):
        n = int(rng.integers(16, 4097))
        sigma = int(rng.integers(2, 65))
        text = bytes(rng.integers(0, sigma, size=n).tolist())
        fm = FmIndex(text)
        for q in range(1000):
            m = int(rng.integers(1, 9))
            if q % 4 and m <= n:
                start = int(rng.integers(0, n - m + 1))
                pat = text[start : start + m]
            else:
                pat = bytes(rng.integers(0, sigma + 2, size=m).tolist())
            want = _occurrences_bytes(text, pat)
            assert fm.count(pat) == len(want)
            counted += 1
            if q < 100:
                assert fm.locate(pat) == want
                located += 1
        for _ in range(5):
            l = int(rng.integers(1, n + 1))
            r = min(n, l + int(rng.integers(0, 64)))
            assert fm.extract_bytes(l, r) == text[l - 1 : r]

    corpus = natural_text(110_000)
    assert len(corpus) >= 100 * 1024
    fm = FmIndex(corpus, sample_rate=4)
    for q in range(1000):
        m = int(rng.integers(1, 9))
        start = int(rng.integers(0, len(corpus) - m))
        pat = corpus[start : start + m] if q % 3 else bytes(
            rng.integers(97, 123, size=m).tolist()
        )
        want = _occurrences_bytes(corpus, pat)
        assert fm.count(pat) == len(want)
        assert fm.locate(pat) == want
        counted += 1
        located += 1
    for _ in range(50):
        l = int(rng.integers(1, len(corpus) - 100))
        r = l + int(rng.integers(0, 100))
        assert fm.extract_bytes(l, r) == corpus[l - 1 : r]
    print(f"\nACCEPTANCE 8: PASS self-index: {counted} counts, {located} "
          f"locate sets, extracts on 100 random texts + {len(corpus)//1024} KiB corpus")


# --- criterion 9: serialization --------------------------------------------------------


def test_criterion_9_serialization():
    rng = np.random.default_rng(909)
    n = 600
    seq = zipf_or_uniform(rng, n, 40, 1.0).tolist()
    pi = rng.permutation(np.arange(1, n + 1)).tolist()
    f = zipf_or_uniform(rng, n, 17, 0.5).tolist()
    structures = [
        ("seq", build_partition(seq, general_alphabet=True)),
        ("perm", build_run_permutation(pi, "interleaved-general", power_step=4)),
        ("func", build_function(f, mode="runs-interleaved")),
        ("index", FmIndex(seq)),
    ]
    for name, obj in structures:
        data = dump_structure(obj)
        back, _, _ = load_structure(data)
        assert dump_structure(back) == data, f"{name}: bytes differ"
        for _ in range(1000):
            i = int(rng.integers(1, n + 1))
            if name == "seq":
                assert back.access(i) == obj.access(i)
                a = seq[int(rng.integers(0, n))]
                assert back.rank(a, i) == obj.rank(a, i)
            elif name == "perm":
                assert back.apply(i) == obj.apply(i)
                assert back.inverse(i) == obj.inverse(i)
                k = int(rng.integers(-2 * n, 2 * n + 1))
                assert back.power(i, k) == obj.power(i, k)
            elif name == "func":
                assert back.eval(i) == obj.eval(i)
            else:
                pat = seq[i - 1 : i - 1 + int(rng.integers(1, 5))]
                assert back.count(pat) == obj.count(pat)
    print("\nACCEPTANCE 9: PASS serialization: byte-identical round trips, "
          "1000 identical answers per kind")
