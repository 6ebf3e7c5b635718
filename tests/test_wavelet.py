import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apds.bits import ByteWriter
from apds.bitvec import bitvector
from apds.errors import InputError, NotFoundError, OutOfRangeError
from apds.stats import h0
from apds.wavelet import PolySequence, huffman_code_lengths, matrix_shape


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


def test_matrix_shape_codes_prefix_free():
    counts = np.array([50, 20, 10, 10, 5, 5])
    lengths = huffman_code_lengths(counts)
    codes = matrix_shape(lengths.tolist())[0]
    items = [(int(codes[s]), int(lengths[s])) for s in range(6)]
    for a, (ca, la) in enumerate(items):
        for b, (cb, lb) in enumerate(items):
            if a != b and la <= lb:
                assert (cb >> (lb - la)) != ca, "prefix property violated"
    # Kraft equality for a complete code
    assert sum(2.0 ** -l for _, l in items) == pytest.approx(1.0)


def member_list_lengths(counts: np.ndarray) -> np.ndarray:
    """Huffman code lengths by the member-list formula: each heap entry
    carries its leaves, and every merge adds one to each of their lengths.
    Equal counts pop in serial order: the leaves in symbol order, then the
    merged nodes in creation order."""
    lengths = np.zeros(counts.size, dtype=np.int64)
    alive = [int(s) for s in np.flatnonzero(counts > 0)]
    if len(alive) <= 1:
        return lengths
    heap = [(int(counts[s]), serial, [s]) for serial, s in enumerate(alive)]
    heapq.heapify(heap)
    serial = len(heap)
    while len(heap) > 1:
        c1, _, m1 = heapq.heappop(heap)
        c2, _, m2 = heapq.heappop(heap)
        lengths[m1] += 1
        lengths[m2] += 1
        heapq.heappush(heap, (c1 + c2, serial, m1 + m2))
        serial += 1
    return lengths


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=300),  # zero counts and many ties
    st.lists(st.integers(0, 10**6), min_size=1, max_size=300),
    st.lists(st.sampled_from([0, 1, 2, 4, 8, 16]), min_size=1, max_size=300),  # merged ties leaves
    st.integers(1, 300).flatmap(  # one symbol present
        lambda sigma: st.tuples(st.integers(0, sigma - 1), st.integers(1, 10**9)).map(
            lambda t: [t[1] if s == t[0] else 0 for s in range(sigma)])),
))
@example([0, 0, 0])
@example([5])
@example([1] * 300)
def test_huffman_lengths_match_member_lists(counts):
    counts = np.array(counts, dtype=np.int64)
    lengths = huffman_code_lengths(counts)
    assert lengths.dtype == np.int64
    assert lengths.tolist() == member_list_lengths(counts).tolist()


@st.composite
def count_vectors(draw):
    """Symbol counts over sigma <= 64: random, skewed towards one symbol,
    two symbols or one, and sometimes an alphabet past the largest symbol."""
    sigma = draw(st.integers(1, 64))
    counts = np.array(draw(st.lists(st.integers(0, 20), min_size=sigma, max_size=sigma)))
    shape = draw(st.sampled_from(["random", "skewed", "two", "constant"]))
    keep = draw(st.lists(st.integers(0, sigma - 1), min_size=2, max_size=2))
    if shape == "skewed":
        counts[keep[0]] += draw(st.integers(100, 1000))
    elif shape in ("two", "constant"):
        mask = np.zeros(sigma, dtype=bool)
        mask[keep[: 1 if shape == "constant" else 2]] = True
        counts = np.where(mask, np.maximum(counts, 1), 0)
    if counts.sum() == 0:
        counts[keep[0]] = 1
    extra = draw(st.sampled_from([0, 0, 1, 7]))
    return np.append(counts, np.zeros(extra, dtype=np.int64)), draw(st.integers(0, 2**32))


@settings(max_examples=100, deadline=None)
@given(count_vectors())
def test_matrix_matches_scan_oracle(case):
    counts, seed = case
    sigma = counts.size
    seq = np.random.default_rng(seed).permutation(np.repeat(np.arange(1, sigma + 1), counts))
    n = seq.size
    ps = PolySequence(seq, alphabet_size=sigma)
    lst = seq.tolist()
    prefix = np.zeros((sigma + 1, n + 1), dtype=np.int64)  # prefix[a, i] = rank_a(i)
    prefix[seq, np.arange(1, n + 1)] = 1
    prefix = np.cumsum(prefix, axis=1)
    for i in range(1, n + 1):
        assert ps.access_rank(i) == (lst[i - 1], prefix[lst[i - 1], i])
    probes = sorted({0, n, *np.linspace(0, n, 17).astype(int).tolist()})
    for a in range(1, sigma + 1):
        for i in probes:
            assert ps.rank(a, i) == prefix[a, i]
        where = np.flatnonzero(seq == a) + 1
        for j, pos in enumerate(where.tolist(), 1):
            assert ps.select(a, j) == pos
        with pytest.raises(NotFoundError):
            ps.select(a, where.size + 1)
    assert len(ps._levels) == int(huffman_code_lengths(counts).max(initial=0))
    data = ps.serialize()
    back = PolySequence.deserialize(data)
    assert back.serialize() == data
    assert np.array_equal(back.decode(), seq)


def _with_levels(ps, lengths, levels):
    w = ByteWriter()
    w.ints(lengths)
    w.ints(ps._counts)
    for bv in levels:
        w.blob(bv.serialize())
    return w.getvalue()


def test_load_rejects_levels_that_disagree_with_the_code_lengths():
    seq = np.random.default_rng(8).integers(1, 7, size=300)
    ps = PolySequence(seq, alphabet_size=7)  # symbol 7 is absent
    first, second, *rest = ps._levels
    assert _with_levels(ps, ps._lengths, ps._levels) == ps.serialize()
    bits = second.to_bits()
    flipped = bits.copy()
    flipped[0] ^= 1
    for level in (bits[:-1], np.append(bits, 0), flipped):  # length, length, zeros
        with pytest.raises(InputError):
            PolySequence.deserialize(_with_levels(ps, ps._lengths, [first, bitvector(level), *rest]))
    for sym, delta in ((0, 1), (6, 1)):  # not a full tree; a code for an absent symbol
        lengths = ps._lengths.copy()
        lengths[sym] += delta
        with pytest.raises(InputError):
            PolySequence.deserialize(_with_levels(ps, lengths, ps._levels))
