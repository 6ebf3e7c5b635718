import math

import numpy as np
import pytest

from apds.apseq import ApSequence, Partition, build_partition, class_of
from apds.chunkseq import LargeSequence
from apds.errors import InputError, NotFoundError, OutOfRangeError
from apds.stats import convexity_lower_bound, h0
from apds.wavelet import PolySequence

ABRA = [1, 2, 5, 1, 3, 1, 4, 1, 2, 5, 1]  # "abracadabra", a..d,r -> 1..5


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


def test_partition_worked_example():
    aps = build_partition(ABRA)
    part = aps.partition
    assert part.t_raw.tolist() == [4, 9, 9, 4, 12, 4, 12, 4, 9, 9, 4]
    assert part.symbol_class.tolist() == [4, 9, 12, 12, 9]  # m[a..r]
    assert part.class_values.tolist() == [4, 9, 12]
    assert part.sub_sigma.tolist() == [1, 2, 2]
    assert part.sub_len.tolist() == [5, 4, 2]
    # projected class strings
    assert [aps.subs[0].access(i) for i in range(1, 6)] == [1] * 5
    assert [aps.subs[1].access(i) for i in range(1, 5)] == [1, 2, 1, 2]
    assert [aps.subs[2].access(i) for i in range(1, 3)] == [1, 2]


def test_single_symbol_and_constant():
    aps = build_partition([1])
    assert aps.partition.t_raw.tolist() == [0]
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
    seq = zipf(rng, n, sigma, theta).tolist() if theta else rng.permutation(
        np.arange(1, sigma + 1)).tolist()
    aps = build_partition(seq)
    # the same sequence over a general alphabet: symbol a stored as 7a + 3
    gen = build_partition([7 * a + 3 for a in seq], general_alphabet=True)
    for i in range(1, n + 1):
        a = seq[i - 1]
        assert aps.access(i) == a
        assert aps.access_rank(i) == (a, aps.rank(a, i))
        assert gen.access_rank(i) == (7 * a + 3, gen.rank(7 * a + 3, i))
    for s in (aps, gen):
        for i in (0, n + 1):
            with pytest.raises(OutOfRangeError):
                s.access_rank(i)
    syms = sorted(set(seq))[:: max(1, sigma // 23)]
    for a in syms:
        for i in range(0, n + 1, 3):
            assert aps.rank(a, i) == scan_rank(seq, a, i)
        occ = seq.count(a)
        for j in range(1, occ + 1, max(1, occ // 50)):
            assert aps.select(a, j) == scan_select(seq, a, j)


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
        part = Partition(np.asarray(seq))
        part.check_invariants()
        nh0t, sub, nh0s, slack = part.identity_terms()
        assert nh0t + sub < nh0s + slack + 1e-9 * max(1.0, nh0s + slack)
        assert nh0s >= convexity_lower_bound(n, sigma) - 1e-9 * max(1.0, nh0s)


def test_sub_structure_choice():
    # sigma_l above floor(lg n) must use the large-alphabet store
    rng = np.random.default_rng(5)
    n = 4096
    seq = rng.integers(1, 513, size=n)
    seq[:512] = np.arange(1, 513)
    aps = build_partition(seq.tolist())
    kinds = {type(s) for s in aps.subs}
    assert LargeSequence in kinds
    abra = build_partition(ABRA)
    assert all(isinstance(s, PolySequence) for s in abra.subs)


def test_space_report_abracadabra():
    rep = build_partition(ABRA).space_report()
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


PARTITION_FIELDS = ("occ", "symbol_class_dense", "symbol_class", "sub_sigma", "sub_len")


def test_serialize_round_trip():
    rng = np.random.default_rng(23)
    large = rng.integers(1, 257, size=2048)
    large[:256] = np.arange(1, 257)  # classes above floor(lg n) symbols
    for seq, general in [
        (ABRA, False),
        (zipf(rng, 800, 50, 1.0).tolist(), False),
        ((zipf(rng, 500, 20, 1.0) * 37).tolist(), True),
        (large.tolist(), False),
        ([4] * 9, True),
    ]:
        aps = build_partition(seq, general_alphabet=general)
        if len(seq) == large.size:
            assert LargeSequence in {type(s) for s in aps.subs}
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
    aps = build_partition(ABRA)
    assert aps.subs[0].sigma != aps.subs[1].sigma
    aps.subs[0], aps.subs[1] = aps.subs[1], aps.subs[0]
    with pytest.raises(InputError):
        ApSequence.deserialize(aps.serialize())
