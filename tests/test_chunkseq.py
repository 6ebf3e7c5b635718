import math

import numpy as np
import pytest

from apds.bitvec import bitvector
from apds.chunkseq import LargeSequence
from apds.errors import InputError, NotFoundError, OutOfRangeError


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


def test_access_examples():
    ls = LargeSequence([1, 2, 1, 2], alphabet_size=2)
    assert ls.access(3) == 1
    sigma = 17
    assert LargeSequence([sigma], alphabet_size=sigma).access(1) == sigma
    rng = np.random.default_rng(0)
    seq = rng.integers(1, 41, size=64).tolist()
    ls = LargeSequence(seq, alphabet_size=40)
    for i in range(1, 65):
        assert ls.access(i) == seq[i - 1]


def test_rank_examples():
    ls = LargeSequence([1, 2, 1, 2], alphabet_size=2)
    assert ls.rank(2, 3) == 1
    assert ls.rank(1, 0) == 0
    assert LargeSequence([1, 2], alphabet_size=2).rank(2, 2) == 1


def test_select_examples():
    ls = LargeSequence([1, 2, 1, 2], alphabet_size=2)
    assert ls.select(2, 2) == 4
    assert LargeSequence([1], alphabet_size=1).select(1, 1) == 1
    ls2 = LargeSequence([1, 1, 2], alphabet_size=3)
    with pytest.raises(NotFoundError):
        ls2.select(3, 1)


def test_errors():
    ls = LargeSequence([1, 2, 3], alphabet_size=3)
    with pytest.raises(OutOfRangeError):
        ls.access(4)
    with pytest.raises(OutOfRangeError):
        ls.rank(4, 2)
    with pytest.raises(OutOfRangeError):
        ls.rank(0, 2)
    with pytest.raises(InputError):
        LargeSequence([])


@pytest.mark.parametrize("n,sigma", [(1, 1), (5, 5), (16, 4), (63, 8), (64, 64),
                                     (100, 40), (257, 19), (1024, striped := 100)])
def test_oracle_equivalence_exhaustive(n, sigma):
    rng = np.random.default_rng(n * 7 + sigma)
    seq = rng.integers(1, sigma + 1, size=n).tolist()
    ls = LargeSequence(seq, alphabet_size=sigma)
    for i in range(1, n + 1):
        assert ls.access(i) == seq[i - 1]
        assert ls.access_rank(i) == (seq[i - 1], ls.rank(seq[i - 1], i))
    for i in (0, n + 1):
        with pytest.raises(OutOfRangeError):
            ls.access_rank(i)
    step = max(1, sigma // 17)
    for a in range(1, sigma + 1, step):
        for i in range(n + 1):
            assert ls.rank(a, i) == scan_rank(seq, a, i)
        occ = seq.count(a)
        for j in range(1, occ + 1):
            assert ls.select(a, j) == scan_select(seq, a, j)


def test_forward_inverse_consistency():
    rng = np.random.default_rng(42)
    seq = rng.integers(1, 33, size=200).tolist()
    ls = LargeSequence(seq, alphabet_size=32)
    for k0 in range(ls.chunks):
        L = ls._chunk_len(k0)
        for p in range(1, L + 1):
            assert ls._inverse(k0, ls._forward(k0, p)) == p


def test_duality():
    rng = np.random.default_rng(3)
    seq = rng.integers(1, 65, size=512).tolist()
    ls = LargeSequence(seq, alphabet_size=64)
    for a in range(1, 65, 5):
        occ = seq.count(a)
        for j in range(1, occ + 1):
            assert ls.rank(a, ls.select(a, j)) == j


@pytest.mark.parametrize("n,sigma", [(4096, 64), (2048, 256), (1024, 1024)])
def test_space_bound(n, sigma):
    rng = np.random.default_rng(sigma)
    seq = rng.integers(1, sigma + 1, size=n)
    ls = LargeSequence(seq, alphabet_size=sigma)
    w = math.ceil(math.log2(sigma))
    bound = (
        n * w
        + 0.5 * n * w / max(1.0, math.log2(math.log2(sigma)))
        + 4 * (n + ls.per_chunk_overhead_bits())
    )
    assert ls.payload_bits() <= bound


def test_last_chunk_shorter():
    seq = list(range(1, 11)) * 3 + [5, 5, 7]  # n=33, sigma=10, last chunk len 3
    ls = LargeSequence(seq, alphabet_size=10)
    for i in range(1, 34):
        assert ls.access(i) == seq[i - 1]
    for a in (5, 7, 10):
        for i in range(34):
            assert ls.rank(a, i) == scan_rank(seq, a, i)


def test_serialize_round_trip():
    rng = np.random.default_rng(9)
    seq = rng.integers(1, 50, size=300).tolist()
    ls = LargeSequence(seq, alphabet_size=49)
    data = ls.serialize()
    back = LargeSequence.deserialize(data)
    assert back.serialize() == data
    assert np.array_equal(back._cocc, ls._cocc)
    for i in range(1, 301, 7):
        assert back.access(i) == seq[i - 1]
    for a in range(1, 50, 3):
        assert back.rank(a, 300) == scan_rank(seq, a, 300)
        occ = seq.count(a)
        if occ:
            assert back.select(a, occ) == scan_select(seq, a, occ)


def test_load_rejects_wrong_distribution_count():
    """The cumulative counts are read off the chunk distribution, so a
    distribution with a one too many is refused on load."""
    ls = LargeSequence([3, 1, 2, 3, 3, 1, 2], alphabet_size=3)
    ls._dist = bitvector(np.append(ls._dist.to_bits(), 1))
    with pytest.raises(InputError):
        LargeSequence.deserialize(ls.serialize())


def corrupt_cycle_walk(sigma=300):
    """A sequence of two permutations of [1..sigma], the first starting
    with sigma, and its serialized store with in-chunk position 1 made a
    fixed point of the forward permutation: nothing maps to sorted index
    sigma any more, so the cycle walk behind select(sigma, 1) never ends."""
    rng = np.random.default_rng(5)
    seq = np.concatenate([[sigma], rng.permutation(np.arange(1, sigma)),
                          rng.permutation(np.arange(1, sigma + 1))])
    good = LargeSequence(seq, alphabet_size=sigma).serialize()
    data = bytearray(good)
    width = (sigma - 1).bit_length()
    # n, sigma, the word count, then the packed forward permutation
    word0 = int.from_bytes(data[24:32], "little") & ~((1 << width) - 1)
    data[24:32] = word0.to_bytes(8, "little")
    return seq, good, bytes(data)


def test_corrupt_cycle_walk_raises_input_error():
    _, _, data = corrupt_cycle_walk()
    ls = LargeSequence.deserialize(data)
    assert ls._forward(0, 1) == 1
    with pytest.raises(InputError):
        ls.select(300, 1)
