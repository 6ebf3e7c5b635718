import math

import numpy as np
import pytest

from apds.apseq import ApSequence
from apds.errors import InputError, NotFoundError, OutOfRangeError, UnsupportedOperationError
from apds.permutation import (
    KINDS,
    CycleIndex,
    PredecessorStructure,
    RunDecomposition,
    RunPermutation,
    build_run_permutation,
    decompose_runs,
)
from apds.stats import h_runs


def naive_inverse(pi):
    inv = [0] * len(pi)
    for i, v in enumerate(pi, 1):
        inv[v - 1] = i
    return inv


def naive_power(pi, i, k):
    inv = naive_inverse(pi)
    y = i
    if k >= 0:
        for _ in range(k):
            y = pi[y - 1]
    else:
        for _ in range(-k):
            y = inv[y - 1]
    return y


def test_decompose_interleaved_general_example():
    dec = decompose_runs([4, 1, 5, 2, 6, 3], "interleaved-general")
    assert dec.rho == 2
    assert dec.labels.tolist() == [1, 2, 1, 2, 1, 2]
    assert dec.increasing.all()
    assert sorted(dec.lengths.tolist()) == [3, 3]


def test_decompose_identity_all_kinds():
    for kind in KINDS:
        dec = decompose_runs([1, 2, 3], kind)
        assert dec.rho == 1


def test_decompose_interleaved_strict_example():
    dec = decompose_runs([3, 1, 4, 2], "interleaved-strict")
    assert dec.rho == 2
    # runs ordered by minimum: {1,2} at positions 2,4 and {3,4} at 1,3
    assert dec.min_values.tolist() == [1, 3]
    assert dec.labels.tolist() == [2, 1, 2, 1]
    assert dec.lengths.tolist() == [2, 2]


def test_decompose_rejects_non_bijection():
    with pytest.raises(InputError):
        decompose_runs([1, 1, 3], "interleaved-general")
    with pytest.raises(InputError):
        decompose_runs([2, 3, 4], "contiguous-general")
    with pytest.raises(InputError):
        decompose_runs([], "contiguous-general")


def test_contiguous_decompositions():
    dec = decompose_runs([2, 1, 3], "contiguous-general")
    assert dec.rho == 2
    assert dec.lengths.tolist() == [2, 1]
    assert dec.increasing.tolist() == [False, True]
    dec2 = decompose_runs([3, 1, 4, 2], "contiguous-strict")
    assert dec2.rho == 4
    dec3 = decompose_runs([5, 4, 3, 2, 1], "contiguous-strict")
    assert dec3.rho == 1
    assert not dec3.increasing[0]


def naive_contiguous_runs(pi, strict):
    """Greedy left-to-right monotone segments (steps +-1 when strict):
    (start, length, increasing, minimum) per run."""
    def joins(j, up):
        return (pi[j] > pi[j - 1]) == up and (not strict or abs(pi[j] - pi[j - 1]) == 1)

    out, i = [], 0
    while i < len(pi):
        j, up = i + 1, True
        if j < len(pi) and (not strict or abs(pi[j] - pi[i]) == 1):
            up = pi[j] > pi[i]
            while j < len(pi) and joins(j, up):
                j += 1
        out.append((i + 1, j - i, up, min(pi[i:j])))
        i = j
    return out


@pytest.mark.parametrize("kind", ["contiguous-general", "contiguous-strict"])
def test_contiguous_cover_matches_loop(kind):
    rng = np.random.default_rng(43)
    for trial in range(60):
        n = int(rng.integers(1, 80))
        if trial % 2:  # a few shuffled monotone blocks
            cuts = np.sort(rng.integers(0, n, 3))
            blocks = [b[::rng.choice([1, -1])] for b in np.split(np.arange(1, n + 1), cuts)]
            pi = np.concatenate([blocks[k] for k in rng.permutation(len(blocks))])
        else:
            pi = rng.permutation(np.arange(1, n + 1))
        dec = decompose_runs(pi, kind)
        got = list(zip(dec.starts.tolist(), dec.lengths.tolist(),
                       dec.increasing.tolist(), dec.min_values.tolist()))
        assert got == naive_contiguous_runs(pi.tolist(), kind == "contiguous-strict")
        assert dec.labels.tolist() == np.repeat(np.arange(1, dec.rho + 1), dec.lengths).tolist()


def test_apply_thm3_example():
    rp = build_run_permutation([4, 1, 5, 2, 6, 3], "interleaved-general")
    assert rp.apply(3) == 5
    assert [rp.apply(i) for i in range(1, 7)] == [4, 1, 5, 2, 6, 3]
    assert rp.inverse(2) == 4


def test_apply_strict_example():
    rp = build_run_permutation([3, 1, 4, 2], "interleaved-strict")
    assert rp.apply(3) == 4
    assert rp.inverse(2) == 4
    ident = build_run_permutation([1, 2, 3, 4], "interleaved-strict")
    assert all(ident.apply(i) == i for i in range(1, 5))


def test_decreasing_run_arithmetic():
    # manual single decreasing run exercises the reversed-rank path
    pi = np.array([3, 2, 1])
    dec = RunDecomposition(
        kind="interleaved-general",
        n=3,
        labels=np.array([1, 1, 1]),
        lengths=np.array([3]),
        increasing=np.array([False]),
        min_values=np.array([1]),
    )
    rp = RunPermutation.from_decomposition(pi, dec)
    assert [rp.apply(i) for i in (1, 2, 3)] == [3, 2, 1]
    assert [rp.inverse(v) for v in (1, 2, 3)] == [3, 2, 1]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 7, 64, 257])
def test_round_trip_random(kind, n):
    rng = np.random.default_rng(n * 13 + KINDS.index(kind))
    pi = rng.permutation(np.arange(1, n + 1))
    rp = build_run_permutation(pi, kind)
    inv = naive_inverse(pi.tolist())
    for i in range(1, n + 1):
        assert rp.apply(i) == pi[i - 1]
        assert rp.inverse(rp.apply(i)) == i
        assert rp.inverse(i) == inv[i - 1]


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip_structured(kind):
    # permutations with long runs of both directions
    pi = list(range(10, 0, -1)) + list(range(11, 21))
    rp = build_run_permutation(pi, kind)
    for i in range(1, 21):
        assert rp.apply(i) == pi[i - 1]
        assert rp.inverse(pi[i - 1]) == i


def test_mirror_property_contiguous_vs_strict():
    # contiguous-general answers must equal the brute-force table, and the
    # stored machinery is the strict layout of the inverse permutation
    rng = np.random.default_rng(5)
    pieces = []
    vals = rng.permutation(np.arange(1, 33)).tolist()
    # build a permutation from contiguous monotone chunks
    pi = []
    chunk = []
    for v in sorted(vals):
        chunk.append(v)
        if len(chunk) == 8:
            pi.extend(chunk if len(pieces) % 2 == 0 else chunk[::-1])
            pieces.append(chunk)
            chunk = []
    rp = build_run_permutation(pi, "contiguous-general")
    inv = naive_inverse(pi)
    for i in range(1, 33):
        assert rp.apply(i) == pi[i - 1]
        assert rp.inverse(i) == inv[i - 1]
    assert rp.decomposition.rho == 4


def test_entropy_facts_on_decompositions():
    rng = np.random.default_rng(31)
    for kind in KINDS:
        for n in (2, 16, 201):
            pi = rng.permutation(np.arange(1, n + 1))
            dec = decompose_runs(pi, kind)
            h = dec.entropy()
            assert h <= math.log2(dec.rho) + 1e-12
            assert n * h >= (dec.rho - 1) * math.log2(n) - 1e-9
            assert dec.lengths.sum() == n


# --- predecessor structure ---------------------------------------------------

def test_pred_examples():
    p = PredecessorStructure([1, 3], [1, 2], universe=4)
    assert p.query(2) == (1, 1)
    assert p.query(1) == (1, 1)
    assert p.query(4) == (3, 2)
    p2 = PredecessorStructure([5, 9], [1, 2], universe=20)
    assert p2.query(3) is None


def _check_pred_oracle(keys, universe, rng):
    keys = np.union1d(keys, [1, universe])
    aux = rng.permutation(keys.size) + 1
    shuffle = rng.permutation(keys.size)  # keys need not arrive sorted
    p = PredecessorStructure(keys[shuffle], aux[shuffle], universe)
    owner = dict(zip(keys.tolist(), aux.tolist()))
    skeys = keys.tolist()
    queries = [1, 2, universe - 1, universe] + rng.integers(1, universe + 1, size=400).tolist()
    for x in queries:
        expect = max(k for k in skeys if k <= x)
        assert p.query(x) == (expect, owner[expect])
    with pytest.raises(OutOfRangeError):
        p.query(universe + 1)
    with pytest.raises(OutOfRangeError):
        p.query(0)


@pytest.mark.parametrize("density", [0.25, 0.5, 1.0])
def test_pred_random_oracle(density):
    """Keys fill the given share of the universe; 1.0 makes every position a key."""
    rng = np.random.default_rng(int(density * 8))
    universe = 2000
    keys = rng.choice(np.arange(1, universe + 1), size=int(density * universe), replace=False)
    _check_pred_oracle(keys, universe, rng)


def test_pred_sparse_oracle():
    rng = np.random.default_rng(2)
    universe = 5000
    _check_pred_oracle(np.unique(rng.integers(1, universe + 1, size=120)), universe, rng)


# --- exponentiation -----------------------------------------------------------

def test_power_examples():
    rp = build_run_permutation([2, 3, 4, 5, 1], "interleaved-general", power_step=2)
    assert rp.power(2, 3) == 5
    assert rp.power(4, 0) == 4
    swap = build_run_permutation([2, 1], "contiguous-general", power_step=2)
    assert swap.power(1, -1) == 2


def test_power_requires_companion():
    rp = build_run_permutation([2, 1], "interleaved-general")
    with pytest.raises(UnsupportedOperationError):
        rp.power(1, 1)


@pytest.mark.parametrize("n,t", [(16, 2), (40, 5), (100, 7), (64, 64)])
def test_power_matches_naive(n, t):
    rng = np.random.default_rng(n + t)
    pi = rng.permutation(np.arange(1, n + 1)).tolist()
    rp = build_run_permutation(pi, "interleaved-general", power_step=t)
    for i in range(1, n + 1, max(1, n // 17)):
        for k in list(range(-n, n + 1, max(1, n // 9))) + [0, 1, -1, 3 * n + 7]:
            assert rp.power(i, k) == naive_power(pi, i, k), (i, k)
            assert rp.last_power_walk <= 2 * t


def test_power_walk_bound_instrumented():
    rng = np.random.default_rng(3)
    pi = rng.permutation(np.arange(1, 257)).tolist()
    t = 8
    rp = build_run_permutation(pi, "interleaved-strict", power_step=t)
    worst = 0
    for i in range(1, 257, 5):
        for k in (-1000, -17, -1, 1, 5, 255, 100000):
            rp.power(i, k)
            worst = max(worst, rp.last_power_walk)
    assert worst <= 2 * t


def test_cycle_index_invariants():
    rng = np.random.default_rng(9)
    pi = rng.permutation(np.arange(1, 130))
    t = 4
    ci = CycleIndex(pi, t)
    # short cycles hold no marks; long cycles are marked every t from the min
    seen = set()
    for s in range(1, 130):
        if s in seen:
            continue
        cyc = []
        x = s
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = int(pi[x - 1])
        marked = [e for e in cyc if ci.marked.access(e)]
        if len(cyc) < t:
            assert not marked
        else:
            assert marked
            positions = {e: o for o, e in enumerate(cyc)}
            offs = sorted(positions[e] for e in marked)
            gaps = [b - a for a, b in zip(offs, offs[1:])]
            gaps.append(len(cyc) - offs[-1] + offs[0])
            assert all(g <= t for g in gaps)


def test_errors():
    rp = build_run_permutation([2, 1], "interleaved-general")
    with pytest.raises(OutOfRangeError):
        rp.apply(3)
    with pytest.raises(OutOfRangeError):
        rp.inverse(0)


def _swap_first_starts(lay):
    lay.starts[[0, 1]] = lay.starts[[1, 0]]


def _shift_first_value(lay):
    lay.pi_start[0] += lay.n


def _raise_second_minimum(lay):
    lay.mins[1] += 1


def _move_a_position_to_the_next_run(lay):
    # run lengths are the label counts: one run grows, one shrinks
    labels = lay.s.decode()
    rho = int(labels.max())
    i = int(np.flatnonzero(np.bincount(labels)[labels] > 1)[0])
    labels[i] = labels[i] % rho + 1
    lay.s = ApSequence(labels)


def _drop_a_direction(lay):
    lay.incr = lay.incr[:-1]


@pytest.mark.parametrize("kind,corrupt", [
    ("contiguous-strict", _swap_first_starts),
    ("contiguous-strict", _shift_first_value),
    ("interleaved-strict", _raise_second_minimum),
    ("interleaved-strict", _move_a_position_to_the_next_run),
    ("interleaved-strict", _drop_a_direction),
])
def test_load_rejects_bad_run_records(kind, corrupt):
    rng = np.random.default_rng(3)
    rp = build_run_permutation(rng.permutation(np.arange(1, 301)), kind)
    corrupt(rp._layout)
    with pytest.raises(InputError):
        RunPermutation.deserialize(rp.serialize())


@pytest.mark.parametrize("kind", KINDS)
def test_serialize_round_trip(kind):
    rng = np.random.default_rng(71 + KINDS.index(kind))
    pi = rng.permutation(np.arange(1, 120)).tolist()
    rp = build_run_permutation(pi, kind, power_step=4)
    data = rp.serialize()
    back = RunPermutation.deserialize(data)
    assert back.serialize() == data
    for i in range(1, 120, 3):
        assert back.apply(i) == rp.apply(i)
        assert back.inverse(i) == rp.inverse(i)
        assert back.power(i, 37) == rp.power(i, 37)
    assert back.rho == rp.rho
    assert back.decomposition.kind == kind
    assert np.array_equal(back.decomposition.lengths, rp.decomposition.lengths)
    assert np.array_equal(back.decomposition.increasing, rp.decomposition.increasing)
    assert back.decomposition.entropy() == pytest.approx(rp.decomposition.entropy())
