import math

import numpy as np
import pytest

from apds.bitvec import (
    PlainBitVector,
    SparseBitVector,
    SparseDictionary,
    bitvector,
    bitvector_from_positions,
    load_bitvector,
)
from apds.errors import InputError, NotFoundError, OutOfRangeError


def scan_rank(bits, i, bit):
    return sum(1 for b in bits[:i] if b == bit)

def scan_select(bits, j, bit):
    seen = 0
    for pos, b in enumerate(bits, 1):
        if b == bit:
            seen += 1
            if seen == j:
                return pos
    return None


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
    lst = bits.tolist()
    for i in range(n + 1):
        assert bv.rank(i, 1) == scan_rank(lst, i, 1)
        assert bv.rank(i, 0) == scan_rank(lst, i, 0)
    for bit in (0, 1):
        total = bv.count(bit)
        assert total == lst.count(bit)
        for j in range(1, total + 1):
            assert bv.select(j, bit) == scan_select(lst, j, bit)
        if total < n:
            with pytest.raises(NotFoundError):
                bv.select(total + 1, bit)
    for i in range(1, n + 1):
        assert bv.access(i) == lst[i - 1]
        assert bv.access_rank(i) == (lst[i - 1], bv.rank(i, lst[i - 1]))
    for i in (0, n + 1):
        with pytest.raises(OutOfRangeError):
            bv.access_rank(i)


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
    rng = np.random.default_rng(11)
    bits = (rng.random(3000) < 0.5).astype(np.uint8)
    bv = PlainBitVector.from_bits(bits)
    lst = bits.tolist()
    for bit in (0, 1):
        for j in range(1, bv.count(bit) + 1, 97):
            assert bv.select(j, bit) == scan_select(lst, j, bit)


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
