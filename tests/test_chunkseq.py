import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apds.apseq import build_partition
from apds.bits import ByteWriter
from apds.chunkseq import CycleIndex, LargeSequence, cycle_order
from apds.container import dump_structure, load_structure
from apds.errors import InputError, NotFoundError, OutOfRangeError
from apds.selfcheck import rank_select_mismatch
from test_container import reseal


def argsort_permutation(n, sigma, seed):
    """The stable argsort of n draws over [1..sigma], plus one: a permutation
    of [1..n] made of sigma increasing runs at most."""
    seq = np.random.default_rng(seed).integers(1, sigma + 1, size=n)
    return np.argsort(seq, kind="stable") + 1


def naive_cycle_order(succ):
    """Every element in walk order, each cycle from its least element, and
    the cycle lengths: the plain walk that tries every start in turn."""
    seen, order, lengths = [False] * len(succ), [], []
    for s in range(len(succ)):
        x, first = s, len(order)
        while not seen[x]:
            seen[x] = True
            order.append(x)
            x = succ[x]
        if len(order) > first:
            lengths.append(len(order) - first)
    return order, lengths


@st.composite
def permutations_with_fixed_points(draw, fixed):
    """A permutation of [0..n) as a successor list, with no fixed point,
    some or only fixed points."""
    n = draw(st.integers(2 if fixed == "none" else 0, 60))
    if fixed == "all":
        return list(range(n))
    elems = draw(st.permutations(range(n)))
    shortest = 2 if fixed == "none" else 1
    cuts, k = [], 0
    while n - k >= 2 * shortest:
        k += draw(st.integers(shortest, n - k - shortest))
        cuts.append(k)
    succ = np.arange(n)
    for cyc in np.split(np.array(elems, dtype=np.int64), cuts):
        succ[cyc] = np.roll(cyc, -1)
    return succ.tolist()


@pytest.mark.parametrize("fixed", ["none", "some", "all"])
def test_cycle_order_matches_naive_walk(fixed):
    @settings(max_examples=150, deadline=None)
    @given(succ=permutations_with_fixed_points(fixed))
    def check(succ):
        order, lengths = cycle_order(np.array(succ, dtype=np.int64))
        assert (order.tolist(), lengths.tolist()) == naive_cycle_order(succ)
        assert order.dtype == lengths.dtype == np.int64
        if fixed == "none":
            assert (lengths > 1).all()
    check()


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
    """The identity (no marks), one 200-cycle and a random permutation."""
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
    """n ceil(lg n) bits for pi, and less than 3n for the marks and back
    pointers: fewer than 2n / ceil(lg n) marks, each with a pointer."""
    ls = LargeSequence(argsort_permutation(n, sigma, sigma))
    w = math.ceil(math.log2(n))
    assert ls.payload_bits() <= n * w + 3 * n


def test_serialize_round_trip():
    perm = argsort_permutation(300, 49, 9)
    ls = LargeSequence(perm, alphabet_size=300)
    data = ls.serialize()
    back = LargeSequence.deserialize(data)
    assert back.serialize() == data
    assert list(back._cycles.marks) == list(ls._cycles.marks) and len(ls._cycles.marks) > 0
    assert rank_select_mismatch(back, perm) is None


def _payload(ls, fwd_words=None, marks=None):
    """ls's payload, with its permutation words or its cycle marks replaced."""
    cycles = ls._cycles
    w = ByteWriter()
    w.uint(ls.sigma)
    w.ints(ls._fwd_words if fwd_words is None else fwd_words)
    c = ByteWriter()
    c.uint(cycles.step)
    c.ints(cycles.cycle_lengths)
    c.ints(np.asarray(cycles.marks if marks is None else marks) - 1)
    w.blob(c.getvalue())
    return w.getvalue()


@pytest.mark.parametrize("field", ["pi", "marks"])
@pytest.mark.parametrize("change", [-1, 1])
def test_load_refuses_a_wrong_word_count(field, change):
    """pi's words one short or one over, or one mark fewer or more than the
    cycle lengths give."""
    ls = LargeSequence(np.random.default_rng(4).permutation(100) + 1)
    assert LargeSequence.deserialize(_payload(ls)).serialize() == ls.serialize()
    words = ls._fwd_words if field == "pi" else np.asarray(ls._cycles.marks)
    assert words.size > 1
    words = words[:-1] if change < 0 else np.append(words, 1)
    data = _payload(ls, **{"fwd_words" if field == "pi" else "marks": words})
    with pytest.raises(InputError, match="differ from the header"):
        LargeSequence.deserialize(data)


def corrupt_cycle_walk(sigma=300):
    """A permutation of [1..sigma] starting with sigma (in an ApSequence,
    one class stored as a LargeSequence), and its serialized store with
    position 1 made a fixed point of the permutation: nothing maps to
    sigma any more, so the cycle walk behind select(sigma, 1) never ends."""
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
    _, _, data = corrupt_cycle_walk()
    ls = LargeSequence.deserialize(data)
    assert ls.access(1) == 1
    with pytest.raises(InputError, match="cycle walk"):
        ls.select(300, 1)


def test_value_past_sigma_is_input_error():
    """sigma = 3 takes 2 bits per value, so a stored 3 reads as pi(i) = 4:
    access, decode and a walk through it end in InputError."""
    ls = LargeSequence([2, 3, 1], alphabet_size=3)
    bad = LargeSequence.deserialize(_payload(ls, fwd_words=ls._fwd_words | np.uint64(3)))
    with pytest.raises(InputError, match="past 3"):
        bad.access(1)
    with pytest.raises(InputError, match="past 3"):
        bad.decode()
    with pytest.raises(InputError, match="past 3"):
        bad.select(2, 1)


WALKED = {"identity": lambda: np.arange(1, 201),
          "one 200-cycle": lambda: np.roll(np.arange(1, 201), 1),
          "random of 10^4": lambda: np.random.default_rng(6).permutation(10**4) + 1}


@pytest.mark.parametrize("name", WALKED)
def test_inverse_walk_bound(name):
    """power(a, -1, pi) with no backward step applies pi at most 2t - 2
    times for t = ceil(lg sigma), counted at pi itself, and answers pi^-1(a)."""
    pi = WALKED[name]()
    t = math.ceil(math.log2(pi.size))
    ci = CycleIndex(pi, t)
    values = pi.tolist()
    calls = []

    def forward(y):
        calls.append(y)
        return values[y - 1]

    for a in range(1, pi.size + 1):
        calls.clear()
        y, steps = ci.power(a, -1, forward)
        assert values[y - 1] == a
        assert steps == len(calls) <= (1 if name == "identity" else 2 * t - 2), a


def _swapped_marks(sigma=300, seed=8):
    """A permutation of [1..sigma], its store, and two payloads of that store
    with two marks of its longest cycle swapped: the first two, and the
    first and the last."""
    perm = np.random.default_rng(seed).permutation(sigma) + 1
    ls = LargeSequence(perm)
    ci = ls._cycles
    lengths = np.asarray(ci.cycle_lengths)
    sizes = -(-lengths // ci.step)
    c = int(np.argmax(lengths))
    first, last = int(sizes[:c].sum()), int(sizes[:c + 1].sum()) - 1
    assert last - first >= 2
    payloads = []
    for j in (first + 1, last):
        marks = np.asarray(ci.marks).copy()
        marks[[first, j]] = marks[[j, first]]
        payloads.append(_payload(ls, marks=marks))
    return perm, ls, payloads


def _answers_right_or_input_error(seq, perm) -> int:
    """Every select(a, 1) and the ranks beside it, over all of seq's
    symbols, equal perm's or end in InputError; returns how many ended so."""
    where = np.argsort(perm) + 1
    refused = 0
    for a in range(1, perm.size + 1):
        y = int(where[a - 1])
        for query, want in ((lambda: seq.select(a, 1), y), (lambda: seq.rank(a, y), 1),
                            (lambda: seq.rank(a, y - 1), 0)):
            try:
                assert query() == want, a
            except InputError:
                refused += 1
    return refused


def test_swapped_marks_never_answer_wrong():
    """Two marks of one cycle swapped: the store loads, and every rank and
    select answers right or ends in InputError, in the store and in a
    resealed sequence container whose one class it is; verify refuses
    both."""
    perm, ls, payloads = _swapped_marks()
    container = dump_structure(build_partition(perm))
    good = ls.serialize()
    assert container.count(good) == 1
    for data in payloads:
        bad = LargeSequence.deserialize(data)
        assert _answers_right_or_input_error(bad, perm) > 0
        with pytest.raises(InputError, match="cycle index"):
            bad.verify()
        seq = load_structure(reseal(container.replace(good, data)))[0]
        assert _answers_right_or_input_error(seq, perm) > 0
        with pytest.raises(InputError, match="cycle index"):
            seq.verify()
    assert _answers_right_or_input_error(ls, perm) == 0
