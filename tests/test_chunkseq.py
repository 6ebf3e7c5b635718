import math

import numpy as np
import pytest

from apds.bits import ByteWriter
from apds.chunkseq import LargeSequence
from apds.errors import InputError, NotFoundError, OutOfRangeError
from apds.selfcheck import rank_select_mismatch


def argsort_permutation(n, sigma, seed):
    """The stable argsort of n draws over [1..sigma], plus one: a permutation
    of [1..n] made of sigma increasing runs at most."""
    seq = np.random.default_rng(seed).integers(1, sigma + 1, size=n)
    return np.argsort(seq, kind="stable") + 1


def test_access_examples():
    ls = LargeSequence([2, 1], alphabet_size=2)
    assert [ls.access(1), ls.access(2)] == [2, 1]
    assert LargeSequence([1], alphabet_size=1).access(1) == 1
    seq = np.random.default_rng(0).permutation(64) + 1
    ls = LargeSequence(seq, alphabet_size=64)
    for i in range(1, 65):
        assert ls.access(i) == seq[i - 1]
        assert ls.access_rank(i) == (seq[i - 1], 1)


def test_rank_examples():
    ls = LargeSequence([3, 1, 2], alphabet_size=3)
    assert [ls.rank(1, i) for i in range(4)] == [0, 0, 1, 1]
    assert [ls.rank(3, i) for i in range(4)] == [0, 1, 1, 1]
    assert LargeSequence([1, 2], alphabet_size=2).rank(2, 2) == 1


def test_select_examples():
    ls = LargeSequence([3, 1, 2], alphabet_size=3)
    assert [ls.select(a, 1) for a in (1, 2, 3)] == [2, 3, 1]
    assert LargeSequence([1], alphabet_size=1).select(1, 1) == 1
    with pytest.raises(NotFoundError):
        ls.select(1, 2)


def test_errors():
    """A position out of range raises; a symbol out of [1..sigma] is absent:
    rank 0, and select NotFoundError."""
    ls = LargeSequence([2, 3, 1], alphabet_size=3)
    with pytest.raises(OutOfRangeError):
        ls.access(4)
    with pytest.raises(OutOfRangeError):
        ls.rank(4, 4)
    assert ls.rank(4, 2) == ls.rank(0, 2) == 0
    with pytest.raises(NotFoundError):
        ls.select(4, 1)
    with pytest.raises(InputError):
        LargeSequence([])


@pytest.mark.parametrize("seq,alphabet_size", [
    ([1, 1], None), ([2, 3], None), ([1, 2, 2], None), ([3, 1], None),
    ([1, 2, 3], 4), ([2, 1, 3, 3, 4], None)])
def test_build_refuses_a_non_permutation(seq, alphabet_size):
    with pytest.raises(InputError, match="permutation"):
        LargeSequence(seq, alphabet_size=alphabet_size)


@pytest.mark.parametrize("n,sigma", [(1, 1), (5, 5), (16, 4), (63, 8), (64, 64),
                                     (100, 40), (257, 19), (1024, 100)])
def test_oracle_equivalence_exhaustive(n, sigma):
    perm = argsort_permutation(n, sigma, n * 7 + sigma)
    ls = LargeSequence(perm, alphabet_size=n)
    symbols = [*range(1, n + 1, max(1, n // 17)), n + 1]
    assert rank_select_mismatch(ls, perm, symbols) is None


def test_forward_inverse_consistency():
    """The identity, one 200-cycle and a random permutation."""
    for perm in (np.arange(1, 201), np.roll(np.arange(1, 201), 1),
                 np.random.default_rng(42).permutation(200) + 1):
        ls = LargeSequence(perm)
        assert [ls._inverse(ls.access(p)) for p in range(1, 201)] == list(range(1, 201))


def test_duality():
    ls = LargeSequence(np.random.default_rng(3).permutation(512) + 1)
    for a in range(1, 513, 5):
        p = ls.select(a, 1)
        assert (ls.rank(a, p - 1), ls.rank(a, p)) == (0, 1)


@pytest.mark.parametrize("n,sigma", [(4096, 64), (2048, 256), (1024, 1024)])
def test_space_bound(n, sigma):
    """n ceil(lg n) bits for pi, and as many for pi^-1, which the directory
    counts before the first select derives it and after."""
    ls = LargeSequence(argsort_permutation(n, sigma, sigma))
    w = math.ceil(math.log2(n))
    assert ls.payload_bits() == ls.directory_bits() == n * w
    assert ls._inv_view is None
    ls.select(1, 1)
    assert ls._inv_view is not None and ls.directory_bits() == n * w


def test_serialize_round_trip():
    """The payload is sigma and pi; both copies derive the same pi^-1 on
    their first select."""
    perm = argsort_permutation(300, 49, 9)
    ls = LargeSequence(perm, alphabet_size=300)
    data = ls.serialize()
    back = LargeSequence.deserialize(data)
    assert back.serialize() == data == _payload(ls)
    assert back.select(1, 1) == ls.select(1, 1)
    assert back._inv_view.tobytes() == ls._inv_view.tobytes()
    assert rank_select_mismatch(back, perm) is None


def _payload(ls, fwd_words=None):
    """ls's payload, sigma and pi, with pi's words replaced."""
    w = ByteWriter()
    w.uint(ls.sigma)
    w.ints(ls._fwd_words if fwd_words is None else fwd_words)
    return w.getvalue()


@pytest.mark.parametrize("change", [-1, 1], ids=["-1-pi", "1-pi"])
def test_load_refuses_a_wrong_word_count(change):
    """pi's words one short or one over."""
    ls = LargeSequence(np.random.default_rng(4).permutation(100) + 1)
    assert LargeSequence.deserialize(_payload(ls)).serialize() == ls.serialize()
    words = ls._fwd_words
    assert words.size > 1
    words = words[:-1] if change < 0 else np.append(words, 1)
    with pytest.raises(InputError, match="differ from the header"):
        LargeSequence.deserialize(_payload(ls, fwd_words=words))


def repeated_pi(sigma=300):
    """A permutation of [1..sigma] starting with sigma (in an ApSequence,
    one class stored as a LargeSequence), and its serialized store with
    position 1 made a fixed point of the permutation: nothing maps to
    sigma any more, and the value 1 occurs twice."""
    rng = np.random.default_rng(5)
    seq = np.concatenate([[sigma], rng.permutation(np.arange(1, sigma))])
    good = LargeSequence(seq, alphabet_size=sigma).serialize()
    data = bytearray(good)
    width = (sigma - 1).bit_length()
    # sigma (a two-byte varint), the width byte (8) and the one-byte word
    # count, then the packed permutation
    assert data[2] == 8
    word0 = int.from_bytes(data[4:12], "little") & ~((1 << width) - 1)
    data[4:12] = word0.to_bytes(8, "little")
    return seq, good, bytes(data)


def test_corrupt_cycle_walk_raises_input_error():
    _, _, data = repeated_pi()
    ls = LargeSequence.deserialize(data)
    assert ls.access(1) == 1
    with pytest.raises(InputError, match="not a permutation"):
        ls.select(300, 1)


def test_repeated_value_ends_rank_and_select_in_input_error():
    """A loaded pi of [1, 1, 3, 4]: access answers what is stored, and every
    rank and select, the first and those after it, ends in InputError, as
    verify does."""
    ls = LargeSequence([2, 1, 3, 4])
    bad = LargeSequence.deserialize(_payload(ls, fwd_words=ls._fwd_words & ~np.uint64(3)))
    assert [bad.access(i) for i in range(1, 5)] == [1, 1, 3, 4]
    for query in (lambda: bad.select(3, 1), lambda: bad.rank(1, 2), lambda: bad.select(2, 1)):
        with pytest.raises(InputError, match="not a permutation"):
            query()
    assert bad._inv_view is None
    with pytest.raises(InputError, match="not a permutation"):
        bad.verify()


def test_value_past_sigma_is_input_error():
    """sigma = 3 takes 2 bits per value, so a stored 3 reads as pi(i) = 4:
    access, decode and a first select end in InputError."""
    ls = LargeSequence([2, 3, 1], alphabet_size=3)
    bad = LargeSequence.deserialize(_payload(ls, fwd_words=ls._fwd_words | np.uint64(3)))
    with pytest.raises(InputError, match="past 3"):
        bad.access(1)
    with pytest.raises(InputError, match="past 3"):
        bad.decode()
    with pytest.raises(InputError, match="past 3"):
        bad.select(2, 1)
