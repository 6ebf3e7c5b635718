"""One rank/select contract for every structure that answers it.

Each factory builds a structure from a sequence over [1..sigma] and
returns it with the sequence it stores; each row is checked built and
loaded by ``selfcheck.rank_select_mismatch`` against numpy prefix counts.
Bitvectors are sequences over [1..2] through ``selfcheck.BitSequence``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apds.apseq import build_partition
from apds.bitvec import PlainBitVector, SparseBitVector
from apds.chunkseq import LargeSequence
from apds.errors import NotFoundError, OutOfRangeError
from apds.selfcheck import (BitSequence, _dominant_sequence, _zipf_sequence,
                            rank_select_mismatch, reload)
from apds.wavelet import BalancedSequence, PolySequence


def _dense(seq):
    return np.unique(seq, return_inverse=True)[1].reshape(-1) + 1


def _argsort(seq):
    """The permutation that any sequence gives: its stable argsort, plus one."""
    return np.argsort(seq, kind="stable") + 1


FACTORIES = {  # name: (largest alphabet, seq -> (structure, the sequence it stores))
    "plain": (2, lambda s: (BitSequence(PlainBitVector.from_bits(s - 1)), s)),
    "sparse-ones": (2, lambda s: (BitSequence(SparseBitVector(s.size, np.flatnonzero(s == 2), 1)),
                                  s)),
    "sparse-zeros": (2, lambda s: (BitSequence(SparseBitVector(s.size, np.flatnonzero(s == 1), 0)),
                                   s)),
    "poly": (None, lambda s: (PolySequence(s), s)),
    "large": (None, lambda s: (LargeSequence(_argsort(s)), _argsort(s))),
    "balanced": (None, lambda s: (BalancedSequence(s), s)),
    "ap-dense": (None, lambda s: (build_partition(_dense(s)), _dense(s))),
    # symbol a stored as 1000 a + 7: a dictionary over a gapped universe
    "ap-general": (None, lambda s: (build_partition(1000 * s + 7, general_alphabet=True),
                                    1000 * s + 7)),
}

SHAPES = {  # name: (rng, n, sigma) -> a sequence over [1..sigma]
    "uniform": lambda rng, n, sigma: rng.integers(1, sigma + 1, size=n),
    "zipf": _zipf_sequence,
    "dominant": lambda rng, n, sigma: np.minimum(_dominant_sequence(rng, n), sigma),
    "one-symbol": lambda rng, n, sigma: np.full(n, sigma),
    "sigma=n": lambda rng, n, sigma: rng.permutation(sigma) + 1,
}


def _shape(name, factory):
    """Bitvectors take 700 bits (a padded last word); sequences 300 symbols
    over 24 (five levels of five words, the last padded, in
    BalancedSequence; LargeSequence stores their argsort, a permutation of
    300 in 24 increasing runs at most); sigma = n takes 60 symbols (one
    class of 60, a LargeSequence, in ApSequence)."""
    sigma = FACTORIES[factory][0] or (60 if name == "sigma=n" else 24)
    n = sigma if name == "sigma=n" else 700 if FACTORIES[factory][0] else 300
    return np.asarray(SHAPES[name](np.random.default_rng(1), n, sigma), dtype=np.int64)


def assert_conforms(factory, seq):
    struct, stored = FACTORIES[factory][1](np.asarray(seq, dtype=np.int64))
    for copy in (struct, reload(struct)):
        assert rank_select_mismatch(copy, stored) is None


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("factory", list(FACTORIES))
def test_every_query_on_every_shape(factory, shape):
    assert_conforms(factory, _shape(shape, factory))


# bit patterns as (n, positions of symbol 2), each also taken complemented
BIT_ROWS = {
    # low width 10: buckets 0 and 3 empty, 1024 and 2048 with low part 0
    "low-part-0": (4096, [1024, 2048, 3000]),
    "first-and-last": (300, [0, 299]),
    "two-at-each-end": (300, [0, 1, 298, 299]),
    "n=1": (1, [0]),
    "none": (5, []),
}


@pytest.mark.parametrize("complement", [False, True])
@pytest.mark.parametrize("row", list(BIT_ROWS))
@pytest.mark.parametrize("factory", ["plain", "sparse-ones", "sparse-zeros"])
def test_bit_rows(factory, row, complement):
    n, where = BIT_ROWS[row]
    seq = np.ones(n, dtype=np.int64)
    seq[where] = 2
    assert_conforms(factory, 3 - seq if complement else seq)


@st.composite
def _bit_patterns(draw):
    """Up to 60 positions of one bit among up to 3000: the sparse
    vectors' buckets, from empty to crowded."""
    n = draw(st.integers(1, 3000))
    where = draw(st.lists(st.integers(0, n - 1), max_size=min(n, 60), unique=True))
    seq = np.full(n, draw(st.integers(1, 2)), dtype=np.int64)
    seq[where] = 3 - seq[0]
    return seq


@st.composite
def _sequences(draw):
    """Any shape at up to 80 symbols over up to 12 (sigma = n: a
    permutation of [1..sigma]); dominant needs 20."""
    shape = draw(st.sampled_from(sorted(SHAPES)))
    n = draw(st.integers(20 if shape == "dominant" else 1, 80))
    sigma = draw(st.integers(1, min(n, 12)))
    seq = SHAPES[shape](np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, sigma)
    return np.asarray(seq, dtype=np.int64)


@pytest.mark.parametrize("factory", ["plain", "sparse-ones", "sparse-zeros"])
@settings(max_examples=40)
@given(_bit_patterns())
def test_drawn_bit_patterns(factory, seq):
    assert_conforms(factory, seq)


@pytest.mark.parametrize("factory", ["poly", "large", "balanced", "ap-dense", "ap-general"])
@settings(max_examples=25)
@given(_sequences())
@example(np.array([1]))
@example(np.array([3, 3, 3]))
def test_drawn_sequences(factory, seq):
    assert_conforms(factory, seq)


def test_large_sequence_answers_symbols_outside_its_alphabet():
    """rank 0 and NotFoundError, as the other sequences answer; the
    position is checked first."""
    ls = LargeSequence([5, 2, 7, 1, 3, 6, 4], alphabet_size=7)
    assert [ls.rank(a, 4) for a in (0, 8, 10**9)] == [0, 0, 0]
    for a in (0, 8):
        with pytest.raises(NotFoundError):
            ls.select(a, 1)
        with pytest.raises(OutOfRangeError):
            ls.rank(a, 8)
        with pytest.raises(OutOfRangeError):
            ls.select(a, 0)


# --- the checker itself ---------------------------------------------------------

class OneWrongAnswer:
    """A correct structure, but for ``name(*args)``, which answers ``answer``."""

    def __init__(self, inner, name, args, answer):
        self.inner, self.fault = inner, (name, args, answer)

    def __getattr__(self, name):
        method = getattr(self.inner, name)

        def ask(*args):
            return self.fault[2] if (name, args) == self.fault[:2] else method(*args)

        ask.__name__ = name
        return ask


SEQ = [1, 2, 1, 3, 3, 1]


@pytest.mark.parametrize("name,args,answer", [
    ("access", (2,), 1),
    ("access_rank", (4,), (3, 2)),
    ("rank", (1, 3), 1),
    ("rank", (4, 6), 1),  # the absent symbol
    ("rank_pair", (3, 2, 6), (0, 1)),
    ("select", (3, 2), 4),
    ("select", (1, 4), 6),  # past the last 1: no NotFoundError
    ("decode", (), np.array([1, 2, 1, 3, 3, 2])),
    ("access", (0,), 1),  # no OutOfRangeError
    ("rank", (2, 7), 1),
    ("rank_pair", (2, 1, 0), (1, 0)),
], ids=lambda v: str(v).replace(" ", ""))
def test_checker_finds_one_wrong_answer(name, args, answer):
    good = PolySequence(SEQ)
    assert rank_select_mismatch(OneWrongAnswer(good, "none", (), None), SEQ) is None
    witness = rank_select_mismatch(OneWrongAnswer(good, name, args, answer), SEQ)
    assert witness is not None and witness.startswith(name), witness


@pytest.mark.parametrize("name,args,answer", [
    ("rank", (1, 3), 1),  # at an occurrence of 1
    ("rank", (3, 3), 1),  # just before the first 3
    ("rank", (2, 6), 0),  # at n
    ("select", (3, 2), 4),
    ("select", (2, 2), 6),  # past the last 2: no NotFoundError
], ids=lambda v: str(v).replace(" ", ""))
def test_checker_asks_every_symbol_when_rank_is_narrowed(name, args, answer):
    """Rank at every i of the absent symbol 4 only: every symbol of the
    sequence is still asked rank around its occurrences, and select."""
    good = PolySequence(SEQ)
    assert rank_select_mismatch(good, SEQ, symbols=[4]) is None
    witness = rank_select_mismatch(OneWrongAnswer(good, name, args, answer), SEQ, symbols=[4])
    assert witness is not None and witness.startswith(name), witness
