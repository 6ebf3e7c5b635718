import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apds.apseq import (ApSequence, Partition, _store_for, build_partition, class_of,
                        poly_threshold)
from apds.bits import ByteWriter
from apds.chunkseq import LargeSequence
from apds.errors import InputError, NotFoundError, OutOfRangeError
from apds.selfcheck import rank_select_mismatch, reload
from apds.stats import convexity_lower_bound, h0
from apds.wavelet import BalancedSequence, PolySequence

ABRA = [1, 2, 5, 1, 3, 1, 4, 1, 2, 5, 1]  # "abracadabra", a..d,r -> 1..5


def test_partition_worked_example():
    aps = build_partition(ABRA)
    part = aps.partition
    t = part.class_values[aps.T.decode() - 1]
    assert t.tolist() == [4, 9, 9, 4, 12, 4, 12, 4, 9, 9, 4]
    m = part.class_values[part.symbol_class_dense - 1]
    assert m.tolist() == [4, 9, 12, 12, 9]  # m[a..r]
    assert part.class_values.tolist() == [4, 9, 12]
    assert part.sub_sigma.tolist() == [1, 2, 2]
    assert part.sub_len.tolist() == [5, 4, 2]
    # projected class strings; the one-symbol class of 'a' keeps no store
    assert aps.subs[0] is None
    assert [aps.subs[1].access(i) for i in range(1, 5)] == [1, 2, 1, 2]
    assert [aps.subs[2].access(i) for i in range(1, 3)] == [1, 2]


def test_single_symbol_and_constant():
    aps = build_partition([1])
    assert aps.partition.class_values[aps.T.decode() - 1].tolist() == [0]
    assert aps.partition.class_values[aps.partition.symbol_class_dense - 1].tolist() == [0]
    assert aps.partition.num_classes == 1
    assert aps.access(1) == 1
    aps2 = build_partition([1] * 9)  # occ == n stays class 0
    assert aps2.partition.class_values.tolist() == [0]


def test_general_alphabet():
    aps = build_partition([10, 200, 3000, 10, 10], general_alphabet=True)
    assert aps.alphabet_dict.values().tolist() == [10, 200, 3000]
    assert aps.sigma == 3
    assert aps.access(2) == 200
    assert aps.rank(10, 5) == 3
    assert aps.rank(11, 5) == 0  # absent symbol
    assert aps.select(3000, 1) == 3
    with pytest.raises(NotFoundError):
        aps.select(77, 1)


def test_identity_general_alphabet_keeps_no_dictionary():
    seq = [1, 3, 2, 1]
    aps = build_partition(seq, general_alphabet=True)
    assert aps.alphabet_dict is None
    plain = build_partition(seq)
    for i in range(1, 5):
        assert aps.access(i) == plain.access(i) == seq[i - 1]
    for a in (0, 1, 2, 3, 4):
        assert [aps.rank(a, i) for i in range(5)] == [plain.rank(a, i) for i in range(5)]
    assert aps.select(1, 2) == 4
    assert aps.serialize() == plain.serialize()
    for values in ([7, 7], [10, 200, 3000]):
        assert build_partition(values, general_alphabet=True).alphabet_dict is not None


def test_access_examples():
    aps = build_partition(ABRA)
    assert aps.access(5) == 3  # 'c'
    assert aps.access(11) == 1  # 'a'
    assert build_partition([7, 7], general_alphabet=True).access(1) == 7


def test_rank_examples():
    aps = build_partition(ABRA)
    assert aps.rank(2, 9) == 2  # 'b' up to 9
    assert aps.rank(2, 0) == 0
    assert aps.rank(26, 11) == 0  # 'z' absent


def test_select_examples():
    aps = build_partition(ABRA)
    assert aps.select(5, 2) == 10  # second 'r'
    assert aps.select(3, 1) == 5  # 'c'
    with pytest.raises(NotFoundError):
        aps.select(3, 2)


def test_input_errors():
    with pytest.raises(InputError):
        build_partition([])
    with pytest.raises(InputError):
        build_partition([0, 1])
    with pytest.raises(InputError):
        build_partition([-3])
    with pytest.raises(InputError):
        build_partition([1, 3])  # symbol 2 absent: not an effective alphabet
    with pytest.raises(OutOfRangeError):
        build_partition(ABRA).access(12)


def test_class_of_rounding():
    # exact products at powers of two stay at the mathematical ceiling
    assert class_of(4, 1) == 4  # lg(4)*lg(4)
    assert class_of(4, 4) == 0
    assert class_of(16, 2) == 12  # lg(8)*lg(16)
    assert class_of(11, 5) == 4


def scalar_class_of(n, occ):
    """The reference: the class formula for one count, in math's floats."""
    x = (math.log2(n) - math.log2(occ)) * math.log2(n)
    nearest = round(x)
    if abs(x - nearest) <= 4 * math.ulp(max(abs(x), 1.0)):
        return int(nearest)
    return int(math.ceil(x))


@pytest.mark.parametrize("n", [2, 3, 7, 16, 1000, 1621, 1652, 2272, 3242, 7957,
                               1 << 16, (1 << 16) + 1, 3 << 18, 1 << 20])
def test_class_of_vector_matches_scalar(n):
    """Every count 1..3000, every power of two up to n and n itself.  The
    grid holds exact integer products (power-of-two ratios, occ = n) and
    products within 1e-6 of one: (1652, 150) and (2272, 1665).  At
    n = occ = 1621 numpy's log2 can be an ulp off math.log2, which leaves
    the product 0 off by 4 ulps of 1 and more."""
    occ = np.unique(np.concatenate([np.arange(1, min(n, 3000) + 1),
                                    1 << np.arange(n.bit_length()), [n]]))
    occ = occ[occ <= n]
    got = class_of(n, occ)
    assert got.dtype == np.int64 and got.shape == occ.shape
    assert got.tolist() == [scalar_class_of(n, c) for c in occ.tolist()]


def zipf(rng, n, sigma, theta):
    w = 1.0 / np.arange(1, sigma + 1) ** theta
    out = rng.choice(np.arange(1, sigma + 1), size=n, p=w / w.sum())
    # force effectiveness: make sure every symbol appears
    out[: sigma] = np.arange(1, sigma + 1)
    return out


@pytest.mark.parametrize("n,sigma,theta", [(50, 8, 1.0), (300, 20, 0.5),
                                           (1000, 64, 1.5), (2000, 300, 1.0),
                                           (512, 512, 0.0)])
def test_oracle_equivalence(n, sigma, theta):
    rng = np.random.default_rng(n + sigma)
    seq = zipf(rng, n, sigma, theta) if theta else rng.permutation(np.arange(1, sigma + 1))
    # rank at every i costs sigma * n calls: every (sigma // 23)-th symbol,
    # and one past the alphabet; the checker asks the others around their
    # occurrences
    syms = [*range(1, sigma + 1, max(1, sigma // 23)), sigma + 1]
    assert rank_select_mismatch(build_partition(seq), seq, syms) is None
    # the same sequence over a general alphabet, symbol a stored as 7a + 3:
    # the absent symbol at every i
    gen = build_partition(7 * seq + 3, general_alphabet=True)
    assert rank_select_mismatch(gen, 7 * seq + 3, [7 * sigma + 10]) is None


def test_duality_property():
    rng = np.random.default_rng(8)
    seq = zipf(rng, 700, 40, 1.2).tolist()
    aps = build_partition(seq)
    for a in sorted(set(seq)):
        occ = seq.count(a)
        for j in range(1, occ + 1):
            assert aps.rank(a, aps.select(a, j)) == j
    for i in range(1, 701, 11):
        a = seq[i - 1]
        r = aps.rank(a, i)
        assert aps.select(a, r) == i


def test_partition_identity_and_bounds():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(2, 3000))
        sigma = int(rng.integers(1, min(n, 400) + 1))
        theta = float(rng.uniform(0.0, 2.0))
        seq = zipf(rng, n, sigma, theta)
        part = Partition.of(np.asarray(seq))
        part.check_invariants()
        nh0t, sub, nh0s, slack = part.identity_terms()
        assert nh0t + sub < nh0s + slack + 1e-9 * max(1.0, nh0s + slack)
        assert nh0s >= convexity_lower_bound(n, sigma) - 1e-9 * max(1.0, nh0s)


def test_store_rule_boundaries():
    top = poly_threshold(4096)
    assert top == 12
    assert _store_for(1, 7, 4096) is None
    assert _store_for(2, 2, 4096) is _store_for(top, 100, 4096) is PolySequence
    assert _store_for(top + 1, top + 1, 4096) is _store_for(900, 900, 4096) is LargeSequence
    assert _store_for(top + 1, top + 2, 4096) is _store_for(900, 901, 4096) is BalancedSequence


def test_sub_structure_choice():
    """No store for one symbol, PolySequence up to floor(lg n) symbols;
    above that, LargeSequence when every member occurs once (s_l is a
    permutation) and BalancedSequence when one repeats; built and loaded."""
    rng = np.random.default_rng(5)
    seq = rng.integers(1, 513, size=4096)
    seq[:512] = np.arange(1, 513)
    seq = np.concatenate([seq, np.arange(513, 577)])  # 64 symbols once each: one class
    aps = build_partition(seq.tolist())
    assert {LargeSequence, BalancedSequence} <= {type(s) for s in aps.subs}
    for built in (aps, build_partition(ABRA)):
        top, part = poly_threshold(built.n), built.partition
        want = [None if s == 1 else PolySequence if s <= top
                else LargeSequence if s == n_l else BalancedSequence
                for s, n_l in zip(part.sub_sigma.tolist(), part.sub_len.tolist())]
        for copy in (built, ApSequence.deserialize(built.serialize())):
            assert [None if s is None else type(s) for s in copy.subs] == want


def test_space_report_abracadabra():
    aps = build_partition(ABRA)
    rep = aps.space_report()
    # a wavelet matrix counts its stored symbol counts, one byte each here;
    # the one-symbol class (symbol 1) keeps no store and counts 0 bits
    assert [None if s is None else s.sigma for s in aps.subs] == [None, 2, 2]
    assert aps.T.topology_bits() == 8 * aps.T.sigma
    assert [(s.payload_bits, s.directory_bits) for s in rep.sections[2:3]] == [(0, 0)]
    assert rep.h0_bits == pytest.approx(22.44, abs=1e-2)
    assert rep.partition_bits == pytest.approx(22.44, abs=1e-2)
    assert rep.bound_bits == pytest.approx(25.62, abs=1e-2)
    assert rep.n == 11 and rep.sigma == 5
    text = rep.format()
    assert "h0_bits" in text and "sections[]" in text


def test_space_report_edge_cases():
    rep = build_partition([3] * 64, general_alphabet=True).space_report()
    assert rep.h0_bits == 0.0
    assert rep.partition_bits == 0.0
    n = 256
    rep2 = build_partition(list(range(1, n + 1))).space_report()
    assert rep2.h0_bits == pytest.approx(n * math.log2(n), abs=1e-6)


PARTITION_FIELDS = ("occ", "symbol_class_dense", "sub_sigma", "sub_len")


def test_serialize_round_trip():
    rng = np.random.default_rng(23)
    large = rng.integers(1, 257, size=2048)
    large[:256] = np.arange(1, 257)  # classes above floor(lg n) symbols
    large = np.concatenate([large, np.arange(257, 321)])  # and one permutation class
    for seq, general in [
        (ABRA, False),
        (zipf(rng, 800, 50, 1.0).tolist(), False),
        ((zipf(rng, 500, 20, 1.0) * 37).tolist(), True),
        (large.tolist(), False),
        ([4] * 9, True),
    ]:
        aps = build_partition(seq, general_alphabet=general)
        if len(seq) == large.size:
            assert {LargeSequence, BalancedSequence} <= {type(s) for s in aps.subs}
        data = aps.serialize()
        back = ApSequence.deserialize(data)
        assert back.serialize() == data
        for field in PARTITION_FIELDS:
            assert np.array_equal(getattr(back.partition, field),
                                  getattr(aps.partition, field)), field
        for i in range(1, len(seq) + 1, 7):
            assert back.access(i) == aps.access(i)
        for a in sorted(set(seq))[:10]:
            assert back.rank(a, len(seq)) == aps.rank(a, len(seq))
            assert back.select(a, 1) == aps.select(a, 1)
        assert back.decode().tolist() == list(seq)
        assert back.space_report().n == aps.n


def test_load_rejects_swapped_class_stores():
    """Two stored classes (one-symbol classes store nothing) of 2 and 3
    symbols, written in each other's place."""
    aps = build_partition([1] * 16 + [2, 3] * 6 + [4, 5, 6] * 2 + [7])
    assert aps.partition.sub_sigma.tolist() == [1, 2, 3, 1]
    aps.subs[1], aps.subs[2] = aps.subs[2], aps.subs[1]
    with pytest.raises(InputError):
        ApSequence.deserialize(aps.serialize())


def _fields(*values) -> bytes:
    """A payload of ints (lists) and blobs (bytes)."""
    w = ByteWriter()
    for v in values:
        w.blob(v) if isinstance(v, bytes) else w.ints(v)
    return w.getvalue()


def test_load_refuses_empty_counts():
    """n is no longer stored: a class string, or a wavelet matrix, whose
    symbol counts sum to 0 is refused, as a header n of 0 was."""
    empty = _fields([0])  # counts [0]
    with pytest.raises(InputError):
        PolySequence.deserialize(empty)
    with pytest.raises(InputError):
        PolySequence.deserialize(_fields([]))
    one = PolySequence([1]).serialize()
    with pytest.raises(InputError):  # no dictionary, t and m empty
        ApSequence.deserialize(_fields(b"", empty, empty))
    # the one class has one symbol, so no class store is written
    assert ApSequence.deserialize(_fields(b"", one, one)).decode().tolist() == [1]


def test_load_derives_class_values_and_refuses_falling_ones():
    """Symbol 1 occurs 8 times in 9 (class value 1), symbol 2 once (class
    value 11).  The same sequence with the two class ids swapped in T and M
    is refused: its derived class values fall.  Both classes have one
    symbol, so no class store is written."""
    def payload(t, m):
        return _fields(b"", PolySequence(t).serialize(), PolySequence(m).serialize())

    good = ApSequence.deserialize(payload([1] * 8 + [2], [1, 2]))
    assert good.partition.class_values.tolist() == [class_of(9, 8), class_of(9, 1)] == [1, 11]
    assert good.decode().tolist() == [1] * 8 + [2]
    with pytest.raises(InputError):
        ApSequence.deserialize(payload([2] * 8 + [1], [2, 1]))


def test_load_refuses_an_empty_class_that_t_uses():
    """M leaves class 2 without a symbol while T gives it a position."""
    t = PolySequence([1] * 8 + [2] + [3] * 3).serialize()
    m = PolySequence([1, 3], alphabet_size=3).serialize()
    with pytest.raises(InputError):
        ApSequence.deserialize(_fields(b"", t, m))


def test_load_refuses_a_one_symbol_class_without_positions():
    """Three one-symbol classes, the second of which T never uses."""
    t = PolySequence([1] * 8 + [3] * 3, alphabet_size=3)
    assert t.symbol_counts().tolist() == [8, 0, 3]
    m = PolySequence([1, 2, 3]).serialize()
    with pytest.raises(InputError):
        ApSequence.deserialize(_fields(b"", t.serialize(), m))


def check_symbol_map(aps):
    """The query arrays give M's access_rank for every symbol and M's
    select for every class l and local symbol 1 <= x <= sigma_l."""
    for a in range(1, aps.sigma + 1):
        assert (aps._cls[a - 1], aps._local[a - 1]) == aps.M.access_rank(a), a
    for l, sig_l in enumerate(aps.partition.sub_sigma.tolist(), 1):
        for x in range(1, sig_l + 1):
            assert aps._order[aps._class_start[l] + x - 1] == aps.M.select(l, x), (l, x)


def both_sides(seq, general=False):
    aps = build_partition(seq, general_alphabet=general)
    return aps, ApSequence.deserialize(aps.serialize())


def large_class_input():
    """2,112 symbols: classes of more than floor(lg n) symbols that repeat
    some (BalancedSequence stores), then 64 symbols once each, one class
    (a LargeSequence)."""
    rng = np.random.default_rng(31)
    seq = rng.integers(1, 257, size=2048)
    seq[:256] = np.arange(1, 257)
    return seq.tolist() + list(range(257, 321))


def t_edited_across_the_permutation_rule() -> dict:
    """ApSequence payloads of ``large_class_input()`` whose T moves
    positions of one class to class 1, so that the class crosses
    n_l = sigma_l and its store is read as the other kind; M and the
    stores are as built."""
    aps = ApSequence(large_class_input())
    t, part = aps.T.decode(), aps.partition
    out = {}
    for name, kind in (("permutation class loses a position", LargeSequence),
                       ("balanced class down to n_l = sigma_l", BalancedSequence)):
        l = next(l for l, s in enumerate(aps.subs, 1) if isinstance(s, kind))
        assert l != 1 and (kind is LargeSequence) == (part.sub_len[l - 1] == part.sub_sigma[l - 1])
        edited = t.copy()
        edited[np.flatnonzero(t == l)[: max(1, part.sub_len[l - 1] - part.sub_sigma[l - 1])]] = 1
        aps.T = PolySequence(edited, alphabet_size=t.max())
        out[name] = aps.serialize()
    return out


@pytest.mark.parametrize("name", list(t_edited_across_the_permutation_rule()))
def test_class_moved_across_the_permutation_rule_is_refused(name):
    with pytest.raises(InputError):
        ApSequence.deserialize(t_edited_across_the_permutation_rule()[name])


MAP_CASES = pytest.mark.parametrize("seq,general", [
    ([1, 2, 3, 4] * 5, False),  # one class
    ([4] * 9, True),  # sigma = 1
    ([1], False),
    (ABRA, False),
    ([10, 200, 3000, 10, 10, 77, 200, 10], True),  # general alphabet
    (large_class_input(), False),  # BalancedSequence and LargeSequence classes
], ids=["one-class", "sigma-1", "n-1", "abra", "general", "large"])


@MAP_CASES
def test_symbol_map_arrays_match_m(seq, general):
    for aps in both_sides(seq, general):
        if len(seq) == 2112:
            assert {LargeSequence, BalancedSequence} <= {type(s) for s in aps.subs}
        check_symbol_map(aps)


@MAP_CASES
def test_one_symbol_classes_keep_no_store(seq, general):
    """A class's store slot is None exactly when the class has one symbol,
    built and loaded, and decode fills its positions from T."""
    for aps in both_sides(seq, general):
        assert [s is None for s in aps.subs] == (aps.partition.sub_sigma == 1).tolist()
        assert aps.decode().tolist() == list(seq)


@settings(max_examples=60)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=60), st.integers(0, 2**32 - 1))
def test_symbol_map_arrays_match_m_random_counts(counts, seed):
    seq = np.repeat(np.arange(1, len(counts) + 1), counts)
    np.random.default_rng(seed).shuffle(seq)
    for aps in both_sides(seq.tolist()):
        check_symbol_map(aps)
        assert aps.decode().tolist() == seq.tolist()


def test_queries_make_no_call_on_m(monkeypatch):
    """access, access_rank, rank and select read the symbol map's arrays,
    never the compressed M, after build and after load."""
    seq = large_class_input()[:1500] + ABRA
    for aps in both_sides(seq, general=True):
        calls = []
        for name in ("access", "access_rank", "rank", "select", "decode"):
            method = getattr(aps.M, name)
            monkeypatch.setattr(aps.M, name,
                                lambda *a, _m=method, _n=name: calls.append(_n) or _m(*a))
        assert rank_select_mismatch(aps, seq, symbols=sorted(set(seq))[::32]) is None
        assert calls == []


@pytest.mark.parametrize("seq,general", [
    ([1, 1, 1, 2, 2, 3, 4], False),
    ([5, 5, 5, 7, 7, 9, 1000], True),
], ids=["plain", "general"])
def test_select_past_the_last_occurrence_names_the_symbol(seq, general):
    """The not-found error of select names the caller's symbol, whether its
    class has one symbol (answered from t) or more (answered from s_l)."""
    for aps in both_sides(seq, general):
        assert set(aps.partition.sub_sigma.tolist()) == {1, 2}
        for a in sorted(set(seq)):
            j = seq.count(a) + 1
            with pytest.raises(NotFoundError, match=f"^fewer than {j} occurrences of symbol {a}$"):
                aps.select(a, j)
            assert aps.select(a, j - 1) == len(seq) - seq[::-1].index(a)


@settings(max_examples=40)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=6), st.integers(0, 2**32 - 1),
       st.booleans())
def test_rank_pair_matches_two_ranks(counts, seed, general):
    """rank_pair(a, i, j) == (rank_a(i), rank_a(j)) for every 0 <= i <= j <= n,
    on PolySequence and ApSequence, built and loaded, for present, absent and
    out-of-universe symbols; one count makes a one-symbol matrix, and
    ``general`` stores symbol a as 7a + 3 in a general alphabet."""
    sigma = len(counts)
    seq = np.random.default_rng(seed).permutation(np.repeat(np.arange(1, sigma + 1), counts))
    n = seq.size
    ps = PolySequence(seq, alphabet_size=sigma + 1)  # symbol sigma + 1 is absent
    if general:
        stored = 7 * seq + 3
        ap_symbols = [7 * a + 3 for a in range(1, sigma + 1)] + [1, 11, 10**9]
    else:
        stored = seq
        ap_symbols = list(range(sigma + 2))
    cases = ([(ps, seq, range(sigma + 3)), (reload(ps), seq, range(sigma + 3))]
             + [(s, stored, ap_symbols) for s in both_sides(stored.tolist(), general)])
    for s, want, symbols in cases:
        assert rank_select_mismatch(s, want, symbols) is None
        for a in symbols:
            ranks = [s.rank(a, i) for i in range(n + 1)]
            for i in range(n + 1):
                for j in range(i, n + 1):
                    assert s.rank_pair(a, i, j) == (ranks[i], ranks[j])
