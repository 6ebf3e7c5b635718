import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apds import bitvec
from apds.bitvec import (
    SELECT_SAMPLE,
    PlainBitVector,
    SparseBitVector,
    SparseDictionary,
    alphabet_ranks,
    bitvector,
    bitvector_from_positions,
    count_before,
    count_dtype,
    count_owner,
    counts_before,
    load_bitvector,
    load_unary_counts,
    unary_counts,
)
from apds.bits import ByteWriter, pack_fixed, unpack_fixed
from apds.errors import InputError, NotFoundError, OutOfRangeError
from apds.selfcheck import BitSequence, rank_select_mismatch


def assert_conforms(bv, bits):
    """Both bits' counts, and every query through the shared checker, which
    reads bit b as symbol b + 1."""
    bits = np.asarray(bits, dtype=np.int64)
    assert (bv.count(0), bv.count(1)) == (bits.size - bits.sum(), bits.sum())
    assert rank_select_mismatch(BitSequence(bv), bits + 1) is None


V = [1, 0, 0, 0, 1, 0, 0, 1, 0, 1]  # "1000100101"


def test_rank_examples():
    bv = PlainBitVector.from_bits(V)
    assert bv.rank(7, 1) == 2
    assert bv.rank(0, 1) == 0
    assert bv.rank(10, 0) == 6


def test_select_examples():
    bv = PlainBitVector.from_bits(V)
    assert bv.select(5, 0) == 7
    assert PlainBitVector.from_bits([1]).select(1, 1) == 1
    with pytest.raises(NotFoundError):
        bv.select(5, 1)


def test_rank_out_of_range():
    bv = PlainBitVector.from_bits(V)
    with pytest.raises(OutOfRangeError):
        bv.rank(11, 1)
    with pytest.raises(OutOfRangeError):
        bv.rank(-1, 0)


@pytest.mark.parametrize("kind", ["plain", "sparse-ones", "sparse-zeros"])
def test_bit_other_than_0_or_1_is_refused(kind):
    """On bits 10010000, rank(8, 2) read 2 on the plain vector and 6 on the
    sparse one storing ones; every kind now refuses the bit."""
    bits = np.array([1, 0, 0, 1, 0, 0, 0, 0])
    bv = {"plain": lambda: PlainBitVector.from_bits(bits),
          "sparse-ones": lambda: SparseBitVector(8, np.flatnonzero(bits), 1),
          "sparse-zeros": lambda: SparseBitVector(8, np.flatnonzero(bits == 0), 0)}[kind]()
    for bit in (2, -1, 8):
        with pytest.raises(InputError, match="bit must be 0 or 1"):
            bv.rank(8, bit)
        with pytest.raises(InputError, match="bit must be 0 or 1"):
            bv.select(1, bit)
    assert (bv.rank(8, True), bv.rank(8, False), bv.select(2, True)) == (2, 6, 4)


@pytest.mark.parametrize("cls", ["plain", "sparse", "sparse0", "auto"])
@pytest.mark.parametrize("n,density", [(1, 0.5), (63, 0.5), (64, 0.2), (65, 0.9),
                                       (500, 0.03), (1200, 0.5), (4096, 0.01)])
def test_oracle_equivalence(cls, n, density):
    rng = np.random.default_rng(n * 1000 + int(density * 100))
    bits = (rng.random(n) < density).astype(np.uint8)
    if cls == "plain":
        bv = PlainBitVector.from_bits(bits)
    elif cls == "sparse":
        bv = SparseBitVector(n, np.flatnonzero(bits), 1)
    elif cls == "sparse0":  # stores the zero positions
        bv = SparseBitVector(n, np.flatnonzero(bits == 0), 0)
    else:
        bv = bitvector(bits)
    assert_conforms(bv, bits)


@pytest.mark.parametrize("stored", [0, 1])
@pytest.mark.parametrize("layout", ["edges", "stored-first", "stored-last", "skewed"])
def test_sparse_complement_select_at_first_and_last(stored, layout):
    """Select of the bit a sparse vector does not store, against the
    positions of that bit, at the first and last such bit and around the
    stored positions."""
    rng = np.random.default_rng(17)
    n = 1 << 16 if layout == "skewed" else 600
    where = {"edges": np.array([1, 2, 300, n - 2]),  # complement at both ends
             "stored-first": np.arange(40),  # the first complement bit is 41
             "stored-last": np.arange(n - 40, n),  # the last complement bit is n - 40
             "skewed": np.sort(rng.choice(n, n // 33, replace=False))}[layout]
    bv = SparseBitVector(n, where, stored)
    bits = np.full(n, 1 - stored, dtype=np.uint8)
    bits[where] = stored
    other = np.flatnonzero(bits != stored) + 1
    js = {1, other.size, *rng.integers(1, other.size + 1, 50).tolist()}
    for j in js:
        assert bv.select(j, 1 - stored) == other[j - 1]
    with pytest.raises(NotFoundError):
        bv.select(other.size + 1, 1 - stored)


def test_rank_select_inverse_properties():
    rng = np.random.default_rng(7)
    for n in (100, 777, 2048):
        bits = (rng.random(n) < 0.3).astype(np.uint8)
        bv = bitvector(bits)
        for bit in (0, 1):
            for j in range(1, bv.count(bit) + 1):
                assert bv.rank(bv.select(j, bit), bit) == j
        for i in range(1, n + 1):
            r = bv.rank(i, 1)
            if r:
                assert bv.select(r, 1) <= i


def test_select_crossing_sample_boundaries():
    # more than one sample gap of each bit value
    bits = (np.random.default_rng(11).random(3000) < 0.5).astype(np.uint8)
    assert_conforms(PlainBitVector.from_bits(bits), bits)


def test_factory_chooses_sparse():
    rng = np.random.default_rng(3)
    dense = (rng.random(1024) < 0.5).astype(np.uint8)
    sparse = (rng.random(1024) < 0.02).astype(np.uint8)
    inverted = (rng.random(1024) < 0.98).astype(np.uint8)
    assert bitvector(dense).kind == "plain"
    assert bitvector(sparse).kind == "sparse"
    assert bitvector(inverted).kind == "sparse"


@pytest.mark.parametrize("frac", [0.001, 0.01, 0.1])
def test_sparse_space_bound(frac):
    # payload <= k*lg(n/k) + 2k + n/8 (engineering o(n) allowance),
    # directories <= 0.25*n
    n = 1 << 16
    rng = np.random.default_rng(int(frac * 10000))
    k = max(1, int(n * frac))
    pos = np.sort(rng.choice(n, size=k, replace=False))
    bv = SparseBitVector(n, pos, 1)
    bound = k * math.log2(n / k) + 2 * k + n / 8
    assert bv.payload_bits() <= bound
    assert bv.directory_bits() <= 0.25 * n


def test_empty_and_all_ones():
    bv = bitvector([])
    assert bv.rank(0, 1) == 0
    with pytest.raises(NotFoundError):
        bv.select(1, 1)
    ones = SparseBitVector(400, np.arange(400), 1)
    assert ones.rank(400, 1) == 400
    assert ones.select(400, 1) == 400
    with pytest.raises(NotFoundError):
        ones.select(1, 0)


def test_serialization_round_trip():
    rng = np.random.default_rng(5)
    for n, density in ((100, 0.5), (3000, 0.02), (3000, 0.98)):
        bits = (rng.random(n) < density).astype(np.uint8)
        bv = bitvector(bits)
        data = bv.serialize()
        back = load_bitvector(data)
        assert back.serialize() == data
        for i in range(0, n + 1, 13):
            assert back.rank(i, 1) == bv.rank(i, 1)
        for j in range(1, bv.count(1) + 1, 7):
            assert back.select(j, 1) == bv.select(j, 1)


def test_from_positions():
    bv = bitvector_from_positions(10, [0, 4, 7, 9])
    assert [bv.access(i) for i in range(1, 11)] == V


# --- SparseDictionary -------------------------------------------------------

def test_dict_examples():
    d = SparseDictionary([3, 7, 40])
    assert d.index_of(7) == 2
    assert d.index_of(8) is None
    assert SparseDictionary([5]).index_of(5) == 1
    assert d.value_of(3) == 40
    assert SparseDictionary([5]).value_of(1) == 5
    with pytest.raises(OutOfRangeError):
        d.value_of(4)
    assert d.indices_of([40, 3, 7]) == [3, 1, 2]
    for absent in ([3, 8], [0], [41], [-1], [2**40]):
        assert d.indices_of(absent) is None
    assert d.values_of([3, 1]).tolist() == [40, 3]


def test_dict_round_trip_property():
    rng = np.random.default_rng(13)
    vals = np.unique(rng.integers(1, 10**6, size=200))
    d = SparseDictionary(vals, universe_max=10**6)
    for i in range(1, len(d) + 1):
        assert d.index_of(d.value_of(i)) == i
    for a in rng.integers(1, 10**6, size=300):
        idx = d.index_of(int(a))
        if a in set(vals.tolist()):
            assert d.value_of(idx) == a
        else:
            assert idx is None
    with pytest.raises(OutOfRangeError):
        d.index_of(10**7)


def test_dict_serialize():
    d = SparseDictionary([10, 200, 3000])
    back = SparseDictionary.deserialize(d.serialize())
    assert back.values().tolist() == [10, 200, 3000]
    assert back.serialize() == d.serialize()
    # dense (plain) and sparse encodings, against the value_of reference
    for vals in (np.arange(1, 400, 2), np.arange(5, 5000, 97)):
        back = SparseDictionary.deserialize(SparseDictionary(vals).serialize())
        assert back.values().tolist() == [
            back.value_of(i) for i in range(1, back.size + 1)
        ]


def test_dict_rejects_bad_values():
    with pytest.raises(InputError):
        SparseDictionary([])
    with pytest.raises(InputError):
        SparseDictionary([0, 3])


def swap_sparse_lows(data: bytes, a: int, b: int) -> bytes:
    """A sparse bitvector's bytes with its low parts a and b (0-based) swapped."""
    bv = load_bitvector(data)
    lows = unpack_fixed(bv._lows, bv.low_width, bv.k)
    lows[[a, b]] = lows[[b, a]]
    w = ByteWriter()
    w.uint(2)
    w.uint(bv.n)
    w.uint(bv.stored)
    w.ints(pack_fixed(lows, bv.low_width))
    w.ints(bv._upper.words)
    return w.getvalue()


def test_dict_with_swapped_low_parts_is_refused():
    """Values 101, 102 and 103 share bucket 0 of a sparse dictionary over
    [1..4096]; with two of their low parts swapped they no longer rise."""
    data = SparseDictionary([101, 102, 103, 4096]).serialize()
    assert load_bitvector(data).kind == "sparse"
    for a, b in ((0, 1), (1, 2)):
        bad = swap_sparse_lows(data, a, b)
        assert load_bitvector(bad).to_bits().sum() == 4  # loads as a bitvector
        with pytest.raises(InputError):
            SparseDictionary.deserialize(bad)


@pytest.mark.parametrize("positions", [[101, 100, 102], [100, 100, 102]],
                         ids=["swapped", "repeated"])
def test_verify_refuses_positions_that_do_not_rise(positions):
    """Low parts swapped or repeated inside one bucket load, and verify
    refuses them; the rising positions pass."""
    SparseBitVector(4096, [100, 101, 102], 1).verify()
    bad = load_bitvector(SparseBitVector(4096, positions, 1).serialize())
    with pytest.raises(InputError, match="do not rise"):
        bad.verify()


def _unique_alphabet_ranks(values):
    """alphabet_ranks by np.unique alone: (ranks, distinct values), or
    (values, None) when the values are exactly 1..sigma."""
    uniq = np.unique(values)
    if uniq[0] == 1 and uniq[-1] == uniq.size:
        return values, None
    return np.searchsorted(uniq, values).astype(np.int64) + 1, uniq


@st.composite
def _symbol_arrays(draw):
    """Symbols >= 1 whose largest is n - 1, n or n + 1 (either side of the
    bincount switch), far above n, or exactly 1..sigma."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["n-1", "n", "n+1", "wide", "exact"]))
    if shape == "exact":
        sigma = draw(st.integers(1, n))
        return rng.permutation(np.arange(n) % sigma + 1).astype(np.int64)
    top = {"n-1": max(n - 1, 1), "n": n, "n+1": n + 1, "wide": 1 << 40}[shape]
    values = rng.integers(1, top + 1, n, dtype=np.int64)
    values[rng.integers(n)] = top
    return values


@settings(max_examples=300)
@given(_symbol_arrays())
@example(np.array([1], dtype=np.int64))
@example(np.array([2], dtype=np.int64))
@example(np.array([3, 1, 3], dtype=np.int64))
@example(np.array([4, 1, 3], dtype=np.int64))
def test_alphabet_ranks_match_unique_formula(values):
    ranks, alphabet = alphabet_ranks(values)
    want, uniq = _unique_alphabet_ranks(values)
    if uniq is None:
        assert alphabet is None and ranks is values
        return
    assert ranks.dtype == np.int64 and np.array_equal(ranks, want)
    assert alphabet.serialize() == SparseDictionary(uniq).serialize()
    assert np.array_equal(alphabet.values(), uniq)


@pytest.mark.parametrize("values", [[0, 1, 2], [2, 0, 2], [0, 7, 9]])
def test_alphabet_ranks_refuse_zero_on_both_paths(values):
    with pytest.raises(InputError):
        alphabet_ranks(np.array(values, dtype=np.int64))


# --- every query at every position, against prefix counts -------------------

def test_plain_every_query_short_lengths():
    """n = 1..200 at three densities: every tail width of the last word."""
    rng = np.random.default_rng(23)
    for n in range(1, 201):
        for density in (0.1, 0.5, 0.9):
            bits = (rng.random(n) < density).astype(np.uint8)
            assert_conforms(PlainBitVector.from_bits(bits), bits)


@pytest.mark.parametrize("words", [1, 4, 64, 65, 130])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_plain_every_query_around_word_multiples(words, delta):
    """n = 64k - 1, 64k, 64k + 1: across the per-word counts, up to their
    last entry (rank(n) when n ends a word), and (at 130 words, half ones)
    across many SELECT_SAMPLE gaps of each bit."""
    n = 64 * words + delta
    bits = (np.random.default_rng(n).random(n) < 0.5).astype(np.uint8)
    assert_conforms(PlainBitVector.from_bits(bits), bits)


@st.composite
def _plain_bits(draw):
    """n = 64k - 1, 64k or 64k + 1 bits whose ones or zeros number a multiple
    of SELECT_SAMPLE, one fewer or one more; or all zeros, all ones, or one
    bit (a one among zeros, a zero among ones) in a padded last word."""
    words = draw(st.integers(1, 40))
    n = 64 * words + draw(st.sampled_from([-1, 0, 1]))
    shape = draw(st.sampled_from(["ones", "zeros", "all-zeros", "all-ones", "lone"]))
    flip = draw(st.integers(0, 1))
    bits = np.zeros(n, dtype=np.uint8)
    if shape == "lone":
        if n % 64 == 0:
            n -= 1
            bits = bits[:n]
        bits[draw(st.integers(n // 64 * 64, n - 1))] = 1
        return bits ^ flip
    if shape in ("all-zeros", "all-ones"):
        return bits ^ (shape == "all-ones")
    count = draw(st.integers(0, n // SELECT_SAMPLE)) * SELECT_SAMPLE
    count = min(max(count + draw(st.sampled_from([-1, 0, 1])), 0), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits[rng.choice(n, count, replace=False)] = 1
    return bits ^ (shape == "zeros")


@settings(max_examples=150)
@given(_plain_bits())
@example(np.zeros(63, dtype=np.uint8))
@example(np.ones(65, dtype=np.uint8))
@example(np.eye(1, 129, 128, dtype=np.uint8)[0])
@example(1 - np.eye(1, 129, 128, dtype=np.uint8)[0])
@example(np.arange(4 * SELECT_SAMPLE + 1) % 2 == 0)
def test_plain_every_query_across_select_samples(bits):
    """rank, access_rank and select of both bits at every position, against
    numpy prefix counts, with each bit's count at and around sample ends."""
    bits = np.asarray(bits, dtype=np.uint8)
    assert_conforms(PlainBitVector.from_bits(bits), bits)


def test_plain_every_query_with_64_bit_counts(monkeypatch):
    """The uint64 directory that vectors of 2**32 bits or more take, forced
    on short vectors."""
    monkeypatch.setattr(bitvec, "count_dtype", lambda n: np.dtype(np.uint64))
    rng = np.random.default_rng(31)
    for n in (1, 64, 65, 3 * SELECT_SAMPLE + 1, 2000):
        bits = (rng.random(n) < 0.4).astype(np.uint8)
        bv = PlainBitVector.from_bits(bits)
        assert bv._cum.itemsize == 8 and bv._samp0.itemsize == 8
        assert_conforms(bv, bits)


def test_count_dtype_switches_at_2_to_the_32_bits():
    assert count_dtype(0) == np.uint32
    assert count_dtype(2**32 - 1) == np.uint32
    assert count_dtype(2**32) == np.uint64
    assert count_dtype(2**40) == np.uint64


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 257, 4096, 100_003, 1 << 20])
@pytest.mark.parametrize("density", [0.0, 0.02, 0.5, 1.0])
def test_plain_directory_bound(n, density):
    """Counts and samples take at most 0.65 n + 192 bits: 32 bits per word
    plus one, and 32 bits per SELECT_SAMPLE occurrences of each bit plus
    one sample past the last."""
    bits = (np.random.default_rng(n).random(n) < density).astype(np.uint8)
    assert PlainBitVector.from_bits(bits).directory_bits() <= 0.65 * n + 192


@pytest.mark.parametrize("n", [65, 127, 4097, 8000])
def test_plain_zero_select_into_padded_last_word(n):
    """Zeros only at the end, in a last word with padding: the complemented
    padding reads as ones above them."""
    for zeros in (1, 2, n % 64):
        bits = np.ones(n, dtype=np.uint8)
        bits[n - zeros:] = 0
        assert_conforms(PlainBitVector.from_bits(bits), bits)
    assert_conforms(PlainBitVector.from_bits(np.zeros(n, np.uint8)), np.zeros(n, np.uint8))


def _sparse_cases():
    k16 = 1 << 14  # low width 7 at k = 100: buckets 128 positions wide
    return {
        # few positions, most buckets empty
        "empty-buckets": (4096, [5, 3000, 3001]),
        # 100 positions in one bucket: its run of ones crosses an upper word
        "one-full-bucket": (k16, list(range(1024, 1124))),
        # 10 positions, low width 10: at bucket starts (multiples of 2048),
        # at a bucket's last position, at 1 and at n
        "bucket-starts-and-ends": (k16, sorted([0, *range(2048, k16, 2048), 6143, k16 - 1])),
        "single-at-n": (300, [299]),
        "single-at-1": (300, [0]),
        # more than n/2 positions: low width 0
        "low-width-0": (300, sorted(np.random.default_rng(3).choice(300, 200, replace=False))),
        "all": (257, list(range(257))),
    }


@pytest.mark.parametrize("stored", [0, 1])
@pytest.mark.parametrize("case", list(_sparse_cases()))
def test_sparse_every_query(case, stored):
    """A directly built sparse vector and its loaded copy: to_bits(), the
    low width, and every query against prefix counts (rank of the stored
    bit is _stored_rank at every i)."""
    n, where = _sparse_cases()[case]
    bv = SparseBitVector(n, np.asarray(where), stored)
    bits = np.full(n, 1 - stored, dtype=np.uint8)
    bits[where] = stored
    assert bv.to_bits().tolist() == bits.tolist()
    assert bv.low_width == {"low-width-0": 0, "one-full-bucket": 7,
                            "bucket-starts-and-ends": 10}.get(case, bv.low_width)
    assert_conforms(bv, bits)
    assert_conforms(load_bitvector(bv.serialize()), bits)


@pytest.mark.parametrize("case", ["empty-buckets", "bucket-starts-and-ends", "low-width-0"])
def test_sparse_access_rank_makes_no_upper_select1(case, monkeypatch):
    n, where = _sparse_cases()[case]
    bv = SparseBitVector(n, np.asarray(where), 1)
    upper_select = bv._upper.select
    bits_asked = []

    def counting_select(j, bit=1):
        bits_asked.append(bit)
        return upper_select(j, bit)

    monkeypatch.setattr(bv._upper, "select", counting_select)
    assert [bv.access_rank(i)[0] for i in range(1, n + 1)] == bv.to_bits().tolist()
    assert 0 in bits_asked and 1 not in bits_asked


# --- the unary count codec ------------------------------------------------------

@st.composite
def _count_sequences(draw):
    """m = 1..40 counts: small counts with zeros among them, all zeros, or
    runs longer than SELECT_SAMPLE."""
    m = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["small", "all-zero", "long"]))
    if shape == "all-zero":
        return np.zeros(m, dtype=np.int64)
    values = st.integers(0, 5) if shape == "small" else st.sampled_from(
        [0, 1, SELECT_SAMPLE + 1, 3 * SELECT_SAMPLE])
    return np.array(draw(st.lists(values, min_size=m, max_size=m)), dtype=np.int64)


@settings(max_examples=120)
@given(_count_sequences())
@example(np.array([0], dtype=np.int64))
@example(np.array([7], dtype=np.int64))
@example(np.array([0, 0, 0], dtype=np.int64))
@example(np.array([2 * SELECT_SAMPLE + 5, 0, SELECT_SAMPLE], dtype=np.int64))
def test_unary_counts_match_cumsum(counts):
    """The layout 1 0^c_1 1 ... 0^c_m 1 in the factory's encoding; then, on
    a plain vector and on sparse vectors storing either bit, count_before
    at every a in 1..m+1, count_owner at every unit and counts_before,
    against np.cumsum."""
    m = counts.size
    before = np.concatenate([[0], np.cumsum(counts)])
    bits = np.zeros(int(before[-1]) + m + 1, dtype=np.uint8)
    bits[before + np.arange(m + 1)] = 1
    bv = unary_counts(counts)
    assert bv.serialize() == bitvector(bits).serialize()
    owner = np.repeat(np.arange(1, m + 1), counts).tolist()
    n = bits.size
    for enc in (PlainBitVector.from_bits(bits), SparseBitVector(n, np.flatnonzero(bits), 1),
                SparseBitVector(n, np.flatnonzero(bits == 0), 0)):
        assert [count_before(enc, a) for a in range(1, m + 2)] == before.tolist()
        assert [count_owner(enc, x) for x in range(1, len(owner) + 1)] == owner
        assert np.array_equal(counts_before(enc), before)


def test_load_unary_counts_refuses_other_vectors():
    """The units must number ``total`` and the delimiters m + 1 (at least 2
    when m is not given), with one at each end."""
    good = unary_counts([2, 0, 3])
    assert load_unary_counts(good.serialize(), 5, 3).to_bits().tolist() == [1, 0, 0, 1, 1,
                                                                             0, 0, 0, 1]
    assert load_unary_counts(good.serialize(), 5).count(1) == 4
    bad = [(good, 6, 3), (good, 5, 2), (good, 5, 4), (bitvector([1]), 0, None),
           (bitvector([0, 1, 0, 1, 1, 0, 0, 0, 1]), 5, 3),
           (bitvector([1, 0, 0, 1, 1, 0, 0, 1, 0]), 5, 3)]
    for bv, total, m in bad:
        with pytest.raises(InputError):
            load_unary_counts(bv.serialize(), total, m)
