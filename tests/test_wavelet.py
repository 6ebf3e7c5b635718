import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apds.bits import ByteWriter, pack_fixed, unpack_bits
from apds.bitvec import PlainBitVector, SparseBitVector, bitvector
from apds.errors import InputError, NotFoundError, OutOfRangeError
from apds.selfcheck import rank_select_mismatch, reload
from apds.stats import h0
from apds.wavelet import BalancedSequence, PolySequence, huffman_code_lengths, matrix_shape


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
    seq = rng.integers(1, sigma + 1, size=n)
    ps = PolySequence(seq, alphabet_size=sigma)
    assert rank_select_mismatch(ps, seq, symbols=range(sigma + 2)) is None


def test_skewed_distribution_oracle():
    # exercises sparse node bitmaps
    rng = np.random.default_rng(77)
    seq = np.where(rng.random(5000) < 0.97, 1, rng.integers(2, 5, size=5000))
    assert rank_select_mismatch(PolySequence(seq.tolist()), seq) is None


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


@settings(max_examples=300)
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


@settings(max_examples=100)
@given(count_vectors())
def test_matrix_matches_prefix_counts(case):
    counts, seed = case
    sigma = counts.size
    seq = np.random.default_rng(seed).permutation(np.repeat(np.arange(1, sigma + 1), counts))
    ps = PolySequence(seq, alphabet_size=sigma)
    # rank at every i costs sigma * n calls: five symbols spread over the
    # alphabet, every absent one and one past it; the checker asks the
    # others around their occurrences
    symbols = {*range(1, sigma + 1, -(-sigma // 5)), *(np.flatnonzero(counts == 0) + 1), sigma + 1}
    assert rank_select_mismatch(ps, seq, symbols) is None
    assert len(ps._levels) == int(huffman_code_lengths(counts).max(initial=0))
    data = ps.serialize()
    back = PolySequence.deserialize(data)
    assert back.serialize() == data
    assert np.array_equal(back.decode(), seq)


def _with_levels(ps, levels):
    w = ByteWriter()
    w.ints(ps._counts)
    for bv in levels:
        w.blob(bv.serialize())
    return w.getvalue()


def test_load_rejects_levels_that_disagree_with_the_code_lengths():
    """The code lengths are derived from the stored counts, so only the
    levels can disagree with them: in length or in zero count."""
    seq = np.random.default_rng(8).integers(1, 7, size=300)
    ps = PolySequence(seq, alphabet_size=7)  # symbol 7 is absent
    first, second, *rest = ps._levels
    assert _with_levels(ps, ps._levels) == ps.serialize()
    bits = second.to_bits()
    flipped = bits.copy()
    flipped[0] ^= 1
    for level in (bits[:-1], np.append(bits, 0), flipped):  # length, length, zeros
        with pytest.raises(InputError):
            PolySequence.deserialize(_with_levels(ps, [first, bitvector(level), *rest]))


def _near_64(lo: int, hi: int):
    """64 m - 1, 64 m or 64 m + 1 for m in [lo..hi]."""
    return st.tuples(st.integers(lo, hi), st.sampled_from([-1, 0, 1])).map(
        lambda t: 64 * t[0] + t[1])


@st.composite
def mixed_matrices(draw):
    """A sequence whose one symbol holds >= 90 % and whose other symbols,
    two or more, share the rest: the first level (all n bits, the minority
    the rest) is sparse and the levels of the rest below it are plain.  The
    length n and the rest's count, the first plain level's length, fall at
    and around multiples of 64."""
    n = draw(_near_64(5, 20))
    ends = [r for r in (63, 64, 65, 127, 128, 129) if r <= n // 10]
    rest = draw(st.one_of(st.integers(2, n // 10), st.sampled_from(ends or [2])))
    sigma = draw(st.integers(3, 12))
    dominant = draw(st.integers(1, sigma))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    others = np.setdiff1d(np.arange(1, sigma + 1), [dominant])
    tail = others[rng.integers(0, others.size, size=rest)]
    tail[:2] = others[:2]  # two of them at least, so a level below the first
    seq = np.full(n, dominant)
    seq[rng.choice(n, size=rest, replace=False)] = tail
    return seq, sigma


@settings(max_examples=30)
@given(mixed_matrices())
def test_mixed_sparse_and_plain_walks_match_scan(case):
    seq, sigma = case
    built = PolySequence(seq, alphabet_size=sigma)
    for ps in (built, reload(built)):
        assert {bv.kind for bv in ps._levels} == {"plain", "sparse"}
        assert rank_select_mismatch(ps, seq, symbols=range(sigma + 2)) is None


def _count_bitvector_calls(monkeypatch) -> list:
    """Wrap rank and access_rank of both bitvector kinds; each call appends
    (kind, method name) to the returned list."""
    calls = []
    for cls in (PlainBitVector, SparseBitVector):
        for name in ("rank", "access_rank"):
            def counted(self, *args, _method=getattr(cls, name), _key=(cls.kind, name)):
                calls.append(_key)
                return _method(self, *args)
            monkeypatch.setattr(cls, name, counted)
    return calls


def test_plain_levels_are_read_inline(monkeypatch):
    """access_rank, rank and rank_pair read a plain level's words and ones
    counts themselves; a sparse level still answers through its methods."""
    rng = np.random.default_rng(3)
    plain = PolySequence(rng.integers(1, 9, size=1000), alphabet_size=8)
    mixed = PolySequence(np.where(rng.random(1000) < 0.95, 1, rng.integers(2, 6, size=1000)))
    assert {bv.kind for bv in plain._levels} == {"plain"}
    assert {bv.kind for bv in mixed._levels} == {"plain", "sparse"}
    calls = _count_bitvector_calls(monkeypatch)
    for i in (1, 64, 65, 500, 1000):
        plain.access_rank(i)
        plain.rank(3, i)
        plain.rank_pair(3, i - 1, i)
    assert calls == []
    for a in range(1, 6):
        mixed.rank(a, 640)
        mixed.rank_pair(a, 128, 999)
    assert ("sparse", "rank") in calls
    mixed.access_rank(321)
    assert ("sparse", "access_rank") in calls
    assert {kind for kind, _ in calls} == {"sparse"}


# --- BalancedSequence ------------------------------------------------------------


def test_balanced_levels_are_an_lsb_first_radix_sort():
    """Level d holds bit d of each code c - 1 in the order of the codes'
    bits below d, so the leaves end in symbol order; the levels are one
    vector, each level padded to whole words."""
    seq = np.random.default_rng(4).integers(1, 12, size=150)  # 11 symbols: 4 levels
    bs = BalancedSequence(seq)
    assert (bs.sigma, bs.n, len(bs._walk)) == (11, 150, 4)
    rows = unpack_bits(bs._bv.words, len(bs._bv)).reshape(4, 192)
    code = seq - 1
    for d, row in enumerate(rows):
        assert row[:150].tolist() == ((code >> d) & 1).tolist() and not row[150:].any()
        code = code[np.argsort((code >> d) & 1, kind="stable")]
    assert code.tolist() == sorted(seq - 1)
    assert np.array_equal(bs.symbol_counts(), np.bincount(seq, minlength=12)[1:])


def test_balanced_one_symbol_has_no_levels():
    bs = BalancedSequence([1] * 70)
    assert bs._bv.words.size == 0 and bs.payload_bits() == 0
    assert (bs.access_rank(9), bs.rank(1, 70), bs.select(1, 70)) == ((1, 9), 70, 70)
    assert BalancedSequence.deserialize(bs.serialize()).serialize() == bs.serialize()


def balanced_payload(sigma, low, width, packed, words) -> bytes:
    w = ByteWriter()
    w.uint(sigma)
    w.uint(low)
    w.uint(width)
    w.ints(packed)
    w.ints(words)
    return w.getvalue()


def balanced_corruptions(bs) -> dict:
    """Payloads of ``bs`` that load must refuse, by name, each with a word
    of its error.  ``bs`` has a length that is not a multiple of 64."""
    counts = bs.symbol_counts()
    low, words = int(counts.min()), bs._bv.words
    width = int(counts.max() - low).bit_length()
    offsets = (counts - low).astype(np.uint64)
    packed = pack_fixed(offsets, width)
    nw = words.size // len(bs._walk)
    assert bs.n % 64 and balanced_payload(
        bs.sigma, low, width, packed, words) == bs.serialize()
    padded, flipped = words.copy(), words.copy()
    padded[nw - 1] |= np.uint64(1 << 63)  # past n in level 0's last word
    flipped[nw] ^= np.uint64(1)  # the first bit of level 1
    out = {
        "extra word": (balanced_payload(bs.sigma, low, width, packed, np.append(words, 0)),
                       "words do not match"),
        "missing word": (balanced_payload(bs.sigma, low, width, packed, words[:-1]),
                         "words do not match"),
        "padding bit": (balanced_payload(bs.sigma, low, width, packed, padded), "padding bit"),
        "level zeros": (balanced_payload(bs.sigma, low, width, packed, flipped),
                        "does not match the symbol counts"),
        "wider counts": (balanced_payload(bs.sigma, low, width + 1,
                                          pack_fixed(offsets, width + 1), words),
                         "not offsets from their minimum"),
        "minimum": (balanced_payload(bs.sigma, low - 1, width + 1,
                                     pack_fixed(offsets + 1, width + 1), words),
                    "not offsets from their minimum"),
        "count width": (balanced_payload(bs.sigma, low, width + 40, packed, words),
                        "wrong width or length"),
        "count length": (balanced_payload(bs.sigma, low, width, np.append(packed, 0), words),
                         "wrong width or length"),

        "no symbols": (balanced_payload(0, 0, 0, [], []), "wrong width or length"),
        "2**40 symbols": (balanced_payload(1 << 40, 1, 0, [], words), "wrong width or length"),
    }
    if packed.size:  # a bit past the last count (sigma * width % 64 > 0)
        packed = packed.copy()
        packed[-1] |= np.uint64(1 << 63)
        out["count padding"] = (balanced_payload(bs.sigma, low, width, packed, words),
                                "wrong width or length")
    return out


@pytest.mark.parametrize("counts", ["varied", "equal"])
def test_balanced_load_refuses_counts_and_words_that_disagree(counts):
    """40 symbols (6 levels) of 1,000 positions, their counts stored at 5
    bits or at width 0, as an ApSequence class of one frequency has them."""
    seq = np.random.default_rng(6).integers(1, 41, size=1000)
    if counts == "equal":
        seq = np.repeat(np.arange(1, 41), 25)
    for data, message in balanced_corruptions(BalancedSequence(seq)).values():
        with pytest.raises(InputError, match=message):
            BalancedSequence.deserialize(data)


def test_balanced_access_refuses_a_code_past_the_alphabet():
    """Symbols 2, 3 (codes 01, 10) with level 1's two bits swapped: every
    zero count holds, but position 1 spells code 11, past the three symbols."""
    bs = BalancedSequence([2, 3], alphabet_size=3)
    assert bs._bv.words.tolist() == [0b01, 0b01]
    data = bs.serialize()
    bad = BalancedSequence.deserialize(data.replace(bytes([1, 2, 1, 1]), bytes([1, 2, 1, 2])))
    assert bad.access(2) == 1  # code 00: a wrong answer no check can see
    with pytest.raises(InputError, match="past the alphabet"):
        bad.access(1)
