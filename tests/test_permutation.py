import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apds import permutation
from apds.apseq import ApSequence
from apds.bits import ByteWriter
from apds.cfunction import build_function
from apds.errors import InputError, NotFoundError, OutOfRangeError, UnsupportedOperationError
from apds.permutation import (
    KINDS,
    CycleIndex,
    PredecessorStructure,
    RunDecomposition,
    RunPermutation,
    build_run_permutation,
    cycle_order,
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
    # runs labelled by value: {1,2} at positions 2,4 and {3,4} at 1,3
    assert dec.labels.tolist() == [2, 1, 2, 1]
    assert dec.lengths.tolist() == [2, 2]


def test_decompose_rejects_non_bijection():
    """0, n + 1, -1, 2**40 or a duplicate in place of one value is refused
    by every public entry, and so is an empty input."""
    good = [3, 1, 4, 2]
    dec = decompose_runs(good, "interleaved-general")
    entries = [
        lambda pi: decompose_runs(pi, "interleaved-general"),
        lambda pi: decompose_runs(pi, "contiguous-strict"),
        lambda pi: RunPermutation.build(pi, "interleaved-strict"),
        lambda pi: build_run_permutation(pi, "contiguous-general", power_step=2),
        lambda pi: RunPermutation.from_decomposition(pi, dec),
    ]
    for bad in (0, len(good) + 1, -1, 2**40, 4):
        pi = [bad, *good[1:]]
        for entry in entries:
            with pytest.raises(InputError):
                entry(pi)
    with pytest.raises(InputError):
        decompose_runs([], "contiguous-general")


def test_one_bijection_check_per_build(monkeypatch):
    """A build checks pi once: from_decomposition trusts only the read-only
    array that decompose_runs checked, and checks any other pi again."""
    calls = []
    check = permutation._validate_permutation
    monkeypatch.setattr(permutation, "_validate_permutation",
                        lambda pi: calls.append(1) or check(pi))
    pi = np.random.default_rng(4).permutation(300) + 1
    builds = [lambda kind=kind: RunPermutation.build(pi, kind, power_step=3) for kind in KINDS]
    # the last function takes the one-run-per-value fallback
    builds += [lambda f=f, mode=mode: build_function(f, mode=mode)
               for mode in ("runs-interleaved", "runs-contiguous")
               for f in ([1, 2, 3, 1, 3, 2, 2, 1], [1, 3, 1, 2, 1, 1, 2, 3])]
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 1
    dec = decompose_runs(pi, "interleaved-general")
    assert not dec.checked.flags.writeable
    calls.clear()
    RunPermutation.from_decomposition(pi.copy(), dec)
    assert len(calls) == 1


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
    (start, length, increasing) per run."""
    def joins(j, up):
        return (pi[j] > pi[j - 1]) == up and (not strict or abs(pi[j] - pi[j - 1]) == 1)

    out, i = [], 0
    while i < len(pi):
        j, up = i + 1, True
        if j < len(pi) and (not strict or abs(pi[j] - pi[i]) == 1):
            up = pi[j] > pi[i]
            while j < len(pi) and joins(j, up):
                j += 1
        out.append((i + 1, j - i, up))
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
        starts = np.cumsum(dec.lengths) - dec.lengths + 1
        got = list(zip(starts.tolist(), dec.lengths.tolist(), dec.increasing.tolist()))
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
    )
    rp = RunPermutation.from_decomposition(pi, dec)
    assert [rp.apply(i) for i in (1, 2, 3)] == [3, 2, 1]
    assert [rp.inverse(v) for v in (1, 2, 3)] == [3, 2, 1]


def test_interleaved_strict_needs_runs_in_minimum_order():
    # the value side tiles [1..n] in label order, which is not stored: the
    # runs' labels, read by value, must not fall
    dec = decompose_runs([3, 1, 4, 2], "interleaved-strict")
    swapped = RunDecomposition("interleaved-strict", 4, dec.lengths[::-1], dec.increasing[::-1],
                               3 - dec.labels)
    with pytest.raises(InputError):
        RunPermutation.from_decomposition([3, 1, 4, 2], swapped)


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
    # contiguous-general answers must equal the brute-force table: a
    # position tiling of four runs and a label string by value
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
            assert rp.last_power_walk <= t - 1 + t // 2


def test_power_walk_bound_instrumented():
    rng = np.random.default_rng(3)
    pi = rng.permutation(np.arange(1, 257)).tolist()
    t = 8
    for kind in KINDS:
        rp = build_run_permutation(pi, kind, power_step=t)
        worst = 0
        for i in range(1, 257, 5):
            for k in (-1000, -17, -1, 1, 5, 255, 100000):
                rp.power(i, k)
                worst = max(worst, rp.last_power_walk)
        assert worst <= t - 1 + t // 2, kind


def _permutation_with_cycles(lengths, rng):
    """A permutation of [1..sum(lengths)] with cycles of the given lengths
    over shuffled elements."""
    elems = rng.permutation(np.arange(1, sum(lengths) + 1)).tolist()
    pi = [0] * len(elems)
    start = 0
    for length in lengths:
        cyc = elems[start:start + length]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            pi[a - 1] = b
        start += length
    return pi


@pytest.mark.parametrize("kind", KINDS)
def test_power_every_step_against_naive(kind):
    """Every element, with t in {1, 2, 3, 5, 16}: unmarked cycles shorter
    than t, cycle lengths off multiples of t, and k from -2n to 2n, both
    against the naive k-fold application and the walk bound t - 1 + t // 2,
    before and after a serialization round trip."""
    rng = np.random.default_rng(KINDS.index(kind))
    pi = _permutation_with_cycles([1, 2, 3, 4, 6, 10, 15, 16, 17, 21, 33, 47], rng)
    n = len(pi)
    orbit = {}  # i -> its cycle in walk order from i
    for i in range(1, n + 1):
        cyc, y = [i], pi[i - 1]
        while y != i:
            cyc.append(y)
            y = pi[y - 1]
        orbit[i] = cyc
    ks = sorted({-2 * n, -n - 1, -33, -17, -16, -9, -8, -5, -3, -2, -1,
                 1, 2, 3, 5, 8, 9, 16, 17, 33, n + 1, 2 * n,
                 *rng.integers(-2 * n, 2 * n + 1, 6).tolist()})
    for t in (1, 2, 3, 5, 16):
        rp = build_run_permutation(pi, kind, power_step=t)
        for perm in (rp, RunPermutation.deserialize(rp.serialize())):
            for i in range(1, n + 1):
                cyc = orbit[i]
                for k in ks:
                    assert perm.power(i, k) == cyc[k % len(cyc)], (t, i, k)
                    assert perm.last_power_walk <= t - 1 + t // 2, (t, i, k)


@pytest.mark.parametrize("kind", KINDS)
def test_power_step_one_marks_every_fixed_point(kind):
    """With power step 1 every element is a mark, the fixed points among
    them (half the elements, between and around the longer cycles): built
    and loaded, verify accepts the permutation and power agrees with the
    naive walk."""
    rng = np.random.default_rng(40 + KINDS.index(kind))
    pi = _permutation_with_cycles([1] * 40 + [2, 3, 5, 8, 22], rng)
    n = len(pi)
    rp = build_run_permutation(pi, kind, power_step=1)
    ci = rp.companion
    assert len(ci.cycle_lengths) == 45 and list(ci.cycle_lengths).count(1) == 40
    assert ci._walk[0].count(1) == n
    for perm in (rp, RunPermutation.deserialize(rp.serialize())):
        perm.verify()
        for i in range(1, n + 1):
            for k in (-n - 3, -7, -1, 0, 1, 2, 5, 2 * n + 1):
                assert perm.power(i, k) == naive_power(pi, i, k), (i, k)
                assert perm.last_power_walk == 0


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


def test_cycle_index_invariants():
    rng = np.random.default_rng(9)
    pi = rng.permutation(np.arange(1, 130))
    t = 4
    ci = CycleIndex(pi, t)
    # short cycles hold no marks; long cycles are marked every t from the min
    is_mark = ci._walk[0].access
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
        marked = [e for e in cyc if is_mark(e)]
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


def _lengths_summing_to_2_63(lay):
    # n is the lengths' sum, which an int64 sum would wrap around
    lay.lengths = lay.lengths.copy()
    lay.lengths[0] = (1 << 63) - int(lay.lengths[1:].sum())


def _empty_first_run(lay):
    # the lengths still sum to n
    lay.lengths = lay.lengths.copy()
    lay.lengths[1] += lay.lengths[0]
    lay.lengths[0] = 0


def _repeat_a_run_in_value_order(lay):
    lay.sprime.order = lay.sprime.order.copy()
    lay.sprime.order[1] = lay.sprime.order[0]


def _drop_a_direction(lay):
    lay.increasing = lay.increasing[:-1]


def _move_a_value_to_the_next_run(lay):
    # the value side's label counts no longer match the position side's
    labels = lay.sprime.decode()
    rho = int(labels.max())
    i = int(np.flatnonzero(np.bincount(labels)[labels] > 1)[0])
    labels[i] = labels[i] % rho + 1
    lay.sprime = ApSequence(labels)


@pytest.mark.parametrize("kind,corrupt", [
    ("contiguous-strict", _lengths_summing_to_2_63),
    ("contiguous-strict", _empty_first_run),
    ("contiguous-strict", _repeat_a_run_in_value_order),
    ("contiguous-strict", _drop_a_direction),
    ("interleaved-strict", _drop_a_direction),
    ("contiguous-general", _drop_a_direction),
    ("interleaved-general", _drop_a_direction),
    ("interleaved-general", _move_a_value_to_the_next_run),
])
def test_load_rejects_bad_run_records(kind, corrupt):
    """Each corruption of a stored field is refused on load: lengths that
    sum to 2**63 or hold a 0, a value order that is not a permutation
    of the runs, a direction vector of the wrong length, and label strings
    that count the runs differently."""
    rng = np.random.default_rng(3)
    rp = build_run_permutation(rng.permutation(np.arange(1, 301)), kind)
    payload = corrupt(rp._layout)
    w = ByteWriter()
    w.uint(KINDS.index(kind) + 1)
    w.blob(rp._layout.serialize() if payload is None else payload)
    w.blob(b"")
    with pytest.raises(InputError):
        RunPermutation.deserialize(w.getvalue())


@st.composite
def run_permutations(draw):
    """A permutation of [1..n] made of random runs, each increasing or
    decreasing: the runs hold value intervals or random value sets, and
    lie one after another or interleave at random positions."""
    n = draw(st.integers(1, 300))
    runs = draw(st.integers(1, min(n, 12)))
    intervals, contiguous = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.arange(1, n + 1) if intervals else rng.permutation(n) + 1
    cuts = np.sort(rng.choice(np.arange(1, n), runs - 1, replace=False))
    parts = [np.sort(p)[:: rng.choice([1, -1])] for p in np.split(values, cuts)]
    if contiguous:
        return np.concatenate([parts[o] for o in rng.permutation(runs)])
    labels = rng.permutation(np.repeat(np.arange(runs), [p.size for p in parts]))
    pi = np.empty(n, dtype=np.int64)
    for r, p in enumerate(parts):
        pi[labels == r] = p
    return pi


@settings(max_examples=40)
@given(pi=run_permutations(), t=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_layout_matches_array(pi, t, seed):
    """apply, inverse and power of every kind, built and loaded, against
    the array; the container re-dumps byte-identically."""
    n = pi.size
    inv = np.empty(n, dtype=np.int64)
    inv[pi - 1] = np.arange(1, n + 1)
    rng = np.random.default_rng(seed)
    powers = list(zip(rng.integers(1, n + 1, 8).tolist(), rng.integers(-2 * n, 2 * n + 1, 8).tolist()))
    for kind in KINDS:
        rp = build_run_permutation(pi, kind, power_step=t)
        data = rp.serialize()
        loaded = RunPermutation.deserialize(data)
        assert loaded.serialize() == data, kind
        for perm in (rp, loaded):
            assert [perm.apply(i) for i in range(1, n + 1)] == pi.tolist(), kind
            assert [perm.inverse(v) for v in range(1, n + 1)] == inv.tolist(), kind
            for i, k in powers:
                assert perm.power(i, k) == naive_power(pi.tolist(), i, k), (kind, i, k)


@settings(max_examples=80)
@given(pi=run_permutations())
def test_interleaved_strict_is_contiguous_cover_of_inverse(pi):
    """Read by value, the interleaved-strict runs are the loop's contiguous
    runs of pi^-1, labelled in value order; by position, each run is a +-1
    value chain."""
    n = pi.size
    inv = np.empty(n, dtype=np.int64)
    inv[pi - 1] = np.arange(1, n + 1)
    dec = decompose_runs(pi, "interleaved-strict")
    by_value = dec.labels[inv - 1]
    assert (np.diff(by_value) >= 0).all()
    starts = np.flatnonzero(np.diff(by_value, prepend=0)) + 1
    runs = by_value[starts - 1]
    got = list(zip(starts.tolist(), dec.lengths[runs - 1].tolist(),
                   dec.increasing[runs - 1].tolist()))
    assert got == naive_contiguous_runs(inv.tolist(), strict=False)
    for r in range(1, dec.rho + 1):
        step = 1 if dec.increasing[r - 1] else -1
        assert (np.diff(pi[dec.labels == r]) == step).all(), r


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


def _cycles_orbits_and_powers(kind):
    """The permutation, orbits and k set of test_power_every_step_against_naive."""
    rng = np.random.default_rng(KINDS.index(kind))
    pi = _permutation_with_cycles([1, 2, 3, 4, 6, 10, 15, 16, 17, 21, 33, 47], rng)
    n = len(pi)
    orbit = {}
    for i in range(1, n + 1):
        cyc, y = [i], pi[i - 1]
        while y != i:
            cyc.append(y)
            y = pi[y - 1]
        orbit[i] = cyc
    ks = sorted({-2 * n, -n - 1, -33, -17, -16, -9, -8, -5, -3, -2, -1,
                 1, 2, 3, 5, 8, 9, 16, 17, 33, n + 1, 2 * n,
                 *rng.integers(-2 * n, 2 * n + 1, 6).tolist()})
    return pi, orbit, ks


@pytest.mark.parametrize("kind", KINDS)
def test_power_walk_stops_at_target(kind):
    """A walk that reaches pi^k(i) before any mark answers there: no power
    takes more than |k| steps, nor more than t - 1 + t // 2, built or
    loaded."""
    pi, orbit, ks = _cycles_orbits_and_powers(kind)
    for t in (1, 2, 3, 5, 16):
        rp = build_run_permutation(pi, kind, power_step=t)
        for perm in (rp, RunPermutation.deserialize(rp.serialize())):
            for i, cyc in orbit.items():
                for k in ks:
                    assert perm.power(i, k) == cyc[k % len(cyc)], (t, i, k)
                    assert perm.last_power_walk <= min(abs(k), t - 1 + t // 2), (t, i, k)


@pytest.mark.parametrize("kind", KINDS)
def test_decode_is_pi(kind):
    """decode returns pi, built and loaded, for one element, a reversal,
    blocks that fall and rise, and shuffles; verify accepts every one."""
    rng = np.random.default_rng(5 + KINDS.index(kind))
    pis = [[1], [2, 1], list(range(40, 0, -1)),
           [*range(10, 0, -1), *range(11, 21), *range(30, 20, -1)],
           *(rng.permutation(np.arange(1, n + 1)).tolist() for n in (3, 17, 200))]
    for pi in pis:
        rp = build_run_permutation(pi, kind, power_step=3)
        for perm in (rp, RunPermutation.deserialize(rp.serialize())):
            got = perm.decode()
            assert got.dtype == np.int64
            assert got.tolist() == pi
            perm.verify()
    build_run_permutation([3, 1, 2], kind).verify()  # and without a power step


@pytest.mark.parametrize("kind", KINDS)
def test_power_companion_is_stored_as_its_step(kind):
    """No cycle mark is stored: a step-t permutation serializes as the
    step-less one with its final 0 byte replaced by the varint of t."""
    pi = np.random.default_rng(3).permutation(300) + 1
    plain = build_run_permutation(pi, kind).serialize()
    assert plain[-1] == 0
    for t in (1, 16, 300, 1000):
        w = ByteWriter()
        w.uint(t)
        with_step = build_run_permutation(pi, kind, power_step=t).serialize()
        assert with_step == plain[:-1] + w.getvalue(), t
