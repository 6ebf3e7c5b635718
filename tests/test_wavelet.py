import math

import numpy as np
import pytest

from apds.errors import InputError, NotFoundError, OutOfRangeError
from apds.stats import h0
from apds.wavelet import PolySequence, canonical_codes, huffman_code_lengths


def scan_rank(seq, a, i):
    return sum(1 for x in seq[:i] if x == a)

def scan_select(seq, a, j):
    seen = 0
    for pos, x in enumerate(seq, 1):
        if x == a:
            seen += 1
            if seen == j:
                return pos
    return None


T_ABRA = [4, 9, 9, 4, 12, 4, 12, 4, 9, 9, 4]  # class string of "abracadabra"


def dense(seq):
    # remap to [1..sigma] preserving order, as callers of PolySequence do
    vals = sorted(set(seq))
    m = {v: i + 1 for i, v in enumerate(vals)}
    return [m[v] for v in seq], m


def test_access_examples():
    seq, m = dense(T_ABRA)
    ps = PolySequence(seq)
    assert ps.access(5) == m[12]
    assert PolySequence([7]).access(1) == 7
    assert PolySequence([1, 2, 1]).access(3) == 1


def test_rank_examples():
    seq, m = dense(T_ABRA)
    ps = PolySequence(seq)
    assert ps.rank(m[9], 9) == 3
    assert ps.rank(m[9], 0) == 0
    assert PolySequence([1, 2, 1], alphabet_size=3).rank(3, 3) == 0


def test_select_examples():
    seq, m = dense(T_ABRA)
    ps = PolySequence(seq)
    assert ps.select(m[9], 4) == 10
    assert PolySequence([5], alphabet_size=5).select(5, 1) == 1
    with pytest.raises(NotFoundError):
        ps.select(m[12], 3)


def test_errors():
    ps = PolySequence([1, 2, 3])
    with pytest.raises(OutOfRangeError):
        ps.access(4)
    with pytest.raises(OutOfRangeError):
        ps.access(0)
    with pytest.raises(InputError):
        PolySequence([])
    with pytest.raises(InputError):
        PolySequence([0, 1])


@pytest.mark.parametrize("n,sigma", [(1, 1), (2, 2), (17, 3), (64, 8), (256, 2),
                                     (512, 16), (300, 31)])
def test_oracle_equivalence_exhaustive(n, sigma):
    rng = np.random.default_rng(n * 31 + sigma)
    seq = rng.integers(1, sigma + 1, size=n).tolist()
    ps = PolySequence(seq, alphabet_size=sigma)
    for i in range(1, n + 1):
        assert ps.access(i) == seq[i - 1]
        assert ps.access_rank(i) == (seq[i - 1], ps.rank(seq[i - 1], i))
    for i in (0, n + 1):
        with pytest.raises(OutOfRangeError):
            ps.access_rank(i)
    for a in range(1, sigma + 1):
        for i in range(n + 1):
            assert ps.rank(a, i) == scan_rank(seq, a, i)
        occ = seq.count(a)
        for j in range(1, occ + 1):
            assert ps.select(a, j) == scan_select(seq, a, j)
        if occ < n:
            with pytest.raises(NotFoundError):
                ps.select(a, occ + 1)


def test_skewed_distribution_oracle():
    # exercises sparse node bitmaps
    rng = np.random.default_rng(77)
    seq = np.where(rng.random(5000) < 0.97, 1, rng.integers(2, 5, size=5000))
    ps = PolySequence(seq.tolist())
    lst = seq.tolist()
    for i in rng.integers(1, 5001, size=200):
        assert ps.access(int(i)) == lst[i - 1]
    for a in range(1, 5):
        for i in rng.integers(0, 5001, size=50):
            assert ps.rank(a, int(i)) == scan_rank(lst, a, int(i))
        occ = lst.count(a)
        for j in rng.integers(1, occ + 1, size=min(occ, 50)):
            assert ps.select(a, int(j)) == scan_select(lst, a, int(j))


def test_duality_properties():
    rng = np.random.default_rng(5)
    seq = rng.integers(1, 9, size=400).tolist()
    ps = PolySequence(seq)
    for a in range(1, 9):
        occ = seq.count(a)
        for j in range(1, occ + 1):
            assert ps.rank(a, ps.select(a, j)) == j
        for i in range(1, 401, 7):
            r = ps.rank(a, i)
            if r:
                p = ps.select(a, r)
                assert p <= i
                assert (p == i) == (seq[i - 1] == a)


def zipf_sequence(rng, n, sigma, theta):
    w = 1.0 / np.arange(1, sigma + 1) ** theta
    return rng.choice(np.arange(1, sigma + 1), size=n, p=w / w.sum())


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_space_bound_zipf(theta):
    # payload + topology <= n*H0 + 0.5n + 4*sigma*lg n
    rng = np.random.default_rng(int(theta * 10))
    n, sigma = 1 << 15, 12
    seq = zipf_sequence(rng, n, sigma, theta)
    ps = PolySequence(seq.tolist(), alphabet_size=sigma)
    bound = n * h0(seq) + 0.5 * n + 4 * sigma * math.log2(n)
    assert ps.payload_bits() + ps.topology_bits() <= bound


def test_constant_sequence_compresses_to_nothing():
    ps = PolySequence([3] * 10000, alphabet_size=4)
    assert ps.payload_bits() == 0
    assert ps.rank(3, 10000) == 10000
    assert ps.rank(2, 500) == 0
    assert ps.select(3, 17) == 17


def test_serialize_round_trip():
    rng = np.random.default_rng(21)
    for seq in (
        rng.integers(1, 7, size=300).tolist(),
        [1] * 50,
        np.where(rng.random(2000) < 0.95, 2, 1).tolist(),
    ):
        ps = PolySequence(seq)
        data = ps.serialize()
        back = PolySequence.deserialize(data)
        assert back.serialize() == data
        for i in range(1, len(seq) + 1, 11):
            assert back.access(i) == ps.access(i)
        for a in set(seq):
            assert back.rank(a, len(seq)) == ps.rank(a, len(seq))


def test_canonical_codes_prefix_free():
    counts = np.array([50, 20, 10, 10, 5, 5])
    lengths = huffman_code_lengths(counts)
    codes = canonical_codes(lengths)
    items = [(int(codes[s]), int(lengths[s])) for s in range(6)]
    for a, (ca, la) in enumerate(items):
        for b, (cb, lb) in enumerate(items):
            if a != b and la <= lb:
                assert (cb >> (lb - la)) != ca, "prefix property violated"
    # Kraft equality for a complete code
    assert sum(2.0 ** -l for _, l in items) == pytest.approx(1.0)
