import numpy as np
import pytest

from apds.bitvec import SparseDictionary, unary_counts
from apds.cfunction import MODES, CompressedFunction, build_function
from apds.errors import InputError, NotFoundError, OutOfRangeError
from apds.stats import h0, h_runs

F_EX = [1, 1, 2, 3, 2, 1]


def bits_of(bv):
    return "".join(str(bv.access(i)) for i in range(1, len(bv) + 1))


def test_build_example_bitmap_and_pi():
    fn = build_function(F_EX, mode="runs-interleaved")
    assert bits_of(fn.b) == "1000100101"
    assert [fn.pi.apply(i) for i in range(1, 7)] == [1, 2, 4, 6, 5, 3]


def test_build_constant_and_injective():
    fn = build_function([1, 1, 1], mode="runs-interleaved")
    assert bits_of(fn.b) == "10001"
    assert [fn.pi.apply(i) for i in (1, 2, 3)] == [1, 2, 3]
    fn2 = build_function([1, 2, 3], mode="runs-contiguous")
    assert bits_of(fn2.b) == "1010101"


def test_non_surjective_rejected_unless_remapped():
    with pytest.raises(InputError):
        build_function([1, 3])
    fn = build_function([10, 70, 10], mode="direct", remap=True)
    assert fn.eval(2) == 70
    assert fn.preimage_size(10) == 2
    with pytest.raises(OutOfRangeError):
        fn.preimage_size(11)


@pytest.mark.parametrize("mode", MODES)
def test_remap_of_values_already_one_to_sigma_stores_no_dictionary(mode):
    f = [3, 1, 2, 2, 4, 1, 3, 3, 4, 1]
    fn = build_function(f, mode=mode, remap=True)
    plain = build_function(f, mode=mode)
    assert fn.value_dict is None
    assert fn.serialize() == plain.serialize()
    assert [fn.eval(i) for i in range(1, len(f) + 1)] == f
    for a in range(1, 5):
        assert fn.preimage(a) == plain.preimage(a)
    with pytest.raises(OutOfRangeError):
        fn.preimage_size(5)


def test_eval_examples():
    for mode in MODES:
        fn = build_function(F_EX, mode=mode)
        assert fn.eval(5) == 2
        assert [fn.eval(i) for i in range(1, 7)] == F_EX
    const = build_function([1, 1, 1, 1], mode="runs-interleaved")
    assert all(const.eval(i) == 1 for i in range(1, 5))


def test_preimage_size_examples():
    for mode in MODES:
        fn = build_function(F_EX, mode=mode)
        assert fn.preimage_size(2) == 2
        assert fn.preimage_size(3) == 1
        assert fn.preimage_size(1) == 3
    const = build_function([1] * 7)
    assert const.preimage_size(1) == 7


def test_preimage_select_examples():
    fn = build_function(F_EX, mode="runs-interleaved")
    assert set(fn.preimage(2)) == {3, 5}
    assert fn.preimage_select(3, 1) == 4
    assert fn.preimage(2, sort=True) == [3, 5]
    with pytest.raises(NotFoundError):
        fn.preimage_select(3, 2)
    direct = build_function(F_EX, mode="direct")
    assert direct.preimage_select(2, 1) == 3  # ap_select delegation


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n,sigma", [(1, 1), (10, 3), (100, 9), (500, 40)])
def test_eval_matches_input_exhaustive(mode, n, sigma):
    rng = np.random.default_rng(n + sigma * 3)
    f = rng.integers(1, sigma + 1, size=n)
    f[:sigma] = np.arange(1, sigma + 1)  # force surjectivity
    if n < sigma:
        f = np.arange(1, n + 1)
    fn = build_function(f.tolist(), mode=mode)
    for i in range(1, fn.n + 1):
        assert fn.eval(i) == f[i - 1]


@pytest.mark.parametrize("mode", MODES)
def test_preimages_partition_domain(mode):
    rng = np.random.default_rng(17)
    f = rng.integers(1, 13, size=300)
    f[:12] = np.arange(1, 13)
    fn = build_function(f.tolist(), mode=mode)
    seen = []
    total = 0
    for a in range(1, 13):
        pre = fn.preimage(a)
        total += fn.preimage_size(a)
        assert len(pre) == fn.preimage_size(a)
        assert all(f[i - 1] == a for i in pre)
        seen.extend(pre)
    assert total == 300
    assert sorted(seen) == list(range(1, 301))


def test_rank_select_identity_on_bitmap():
    # f(i) = b.rank1(b.select0(pi(i))) checked query by query
    rng = np.random.default_rng(23)
    f = rng.integers(1, 7, size=120)
    f[:6] = np.arange(1, 7)
    fn = build_function(f.tolist(), mode="runs-interleaved")
    for i in range(1, 121):
        v = fn.b.rank(fn.b.select(fn.pi.apply(i), 0), 1)
        assert v == f[i - 1]


def test_run_entropy_facts():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(2, 400))
        sigma = int(rng.integers(1, min(n, 24)))
        f = rng.integers(1, sigma + 1, size=n)
        f[:sigma] = np.arange(1, sigma + 1)
        fn = build_function(f.tolist(), mode="runs-interleaved")
        # H(runs(pi)) == H(runs(f)) by construction, both <= H0(f)
        assert fn.run_entropy() <= h0(f) + 1e-9
        assert fn.run_entropy() == pytest.approx(
            h_runs(fn.pi.decomposition.lengths), abs=0
        )


def test_adversarial_alternating_values():
    # the greedy cover would fragment [2,1,2,1,...]; the per-value
    # fallback keeps H(runs) at H0
    f = [2, 1] * 12
    fn = build_function(f, mode="runs-interleaved")
    assert fn.run_entropy() <= h0(f) + 1e-9
    assert [fn.eval(i) for i in range(1, 25)] == f


def test_monotone_ties_stay_valid():
    f = [2, 2, 1, 1, 3, 3, 2]
    for mode in ("runs-interleaved", "runs-contiguous"):
        fn = build_function(f, mode=mode)
        assert [fn.eval(i) for i in range(1, 8)] == f
        for a in (1, 2, 3):
            assert sorted(fn.preimage(a)) == [i for i, v in enumerate(f, 1) if v == a]


def naive_value_segments(f):
    """Greedy maximal segments of f, each non-decreasing or strictly
    decreasing: (length, non-decreasing) per segment."""
    out, i = [], 0
    while i < len(f):
        j, up = i + 1, True
        if j < len(f):
            up = f[j] >= f[i]
            while j < len(f) and (f[j] >= f[j - 1]) == up:
                j += 1
        out.append((j - i, up))
        i = j
    return out


def test_contiguous_runs_are_value_segments():
    rng = np.random.default_rng(41)
    for trial in range(30):
        n = int(rng.integers(1, 200))
        sigma = int(rng.integers(1, min(n, 12) + 1))
        f = rng.integers(1, sigma + 1, size=n)
        f[:sigma] = np.arange(1, sigma + 1)
        if trial % 2:
            f = np.sort(f)[::-1] if trial % 4 == 1 else np.repeat(f, 3)
        fn = build_function(f.tolist(), mode="runs-contiguous")
        dec = fn.pi.decomposition
        assert list(zip(dec.lengths.tolist(), dec.increasing.tolist())) == \
            naive_value_segments(f.tolist())


def test_sparse_bitmap_when_sigma_small():
    f = np.ones(5000, dtype=np.int64)
    f[0] = 2
    fn = build_function(f.tolist(), mode="runs-interleaved")
    assert fn.b.kind == "sparse"
    assert fn.preimage_size(1) == 4999


@pytest.mark.parametrize("mode", MODES)
def test_serialize_round_trip(mode):
    rng = np.random.default_rng(MODES.index(mode))
    f = rng.integers(1, 9, size=200)
    f[:8] = np.arange(1, 9)
    fn = build_function(f.tolist(), mode=mode)
    data = fn.serialize()
    back = CompressedFunction.deserialize(data)
    assert back.serialize() == data
    for i in range(1, 201, 7):
        assert back.eval(i) == fn.eval(i)
    for a in range(1, 9):
        assert back.preimage_size(a) == fn.preimage_size(a)
        assert back.preimage(a, sort=True) == fn.preimage(a, sort=True)
    if mode != "direct":
        assert_same_runs(back.pi.decomposition, fn.pi.decomposition)


def assert_same_runs(loaded, built):
    assert loaded.kind == built.kind
    assert np.array_equal(loaded.lengths, built.lengths)
    assert np.array_equal(loaded.increasing, built.increasing)


def test_load_rejects_unknown_mode():
    data = bytearray(build_function([1, 2, 2, 1]).serialize())
    data[0] = len(MODES)
    with pytest.raises(InputError):
        CompressedFunction.deserialize(bytes(data))


def test_per_value_runs_survive_load():
    # the patience cover's H(runs) exceeds H0 here, so one run per value is used
    f = [1, 3, 1, 2, 1, 1, 2, 3]
    fn = build_function(f, mode="runs-interleaved")
    assert fn.pi._layout.s.decode().tolist() == f
    back = CompressedFunction.deserialize(fn.serialize())
    assert_same_runs(back.pi.decomposition, fn.pi.decomposition)
    assert back.run_entropy() == fn.run_entropy()


def extra_unit_function():
    """f = [1, 1, 2, 3, 2, 1, 3, 3] in runs-interleaved mode, with one unit
    too many in value 1's run of b: nine units for n = 8.  Loaded without a
    check, eval would answer [1, 1, 1, 2, 2, 1, 3, 3]."""
    fn = build_function([1, 1, 2, 3, 2, 1, 3, 3], mode="runs-interleaved")
    fn.b = unary_counts([4, 2, 3])
    return fn


def test_load_refuses_bitmap_units_other_than_n():
    with pytest.raises(InputError):
        CompressedFunction.deserialize(extra_unit_function().serialize())


@pytest.mark.parametrize("mode", MODES)
def test_load_refuses_dictionary_size_other_than_sigma(mode):
    fn = build_function([10, 20, 30, 20], mode=mode, remap=True)
    fn.value_dict = SparseDictionary([10, 20])
    with pytest.raises(InputError):
        CompressedFunction.deserialize(fn.serialize())
