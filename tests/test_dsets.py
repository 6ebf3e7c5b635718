import math

import numpy as np
import pytest

from apds.apseq import ApSequence
from apds.dsets import DisjointSetCollection
from apds.errors import InputError, OutOfRangeError
from apds.selfcheck import CheckFailure, suite_dsets
from apds.stats import h_sets


class NaiveDSU:
    """Textbook union-find oracle: path compression + union by rank."""

    def __init__(self, n):
        self.parent = list(range(n + 1))
        self.rank = [0] * (n + 1)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


def partitions_equal(ds, naive, n):
    mine = {}
    theirs = {}
    for i in range(1, n + 1):
        mine.setdefault(ds.find(i), []).append(i)
        theirs.setdefault(naive.find(i), []).append(i)
    return sorted(mine.values()) == sorted(theirs.values())


def test_new_collection():
    ds = DisjointSetCollection(5)
    assert len({ds.find(i) for i in range(1, 6)}) == 5
    assert ds.entropy() == pytest.approx(math.log2(5))
    assert DisjointSetCollection(1).entropy() == 0.0
    with pytest.raises(InputError):
        DisjointSetCollection(0)
    with pytest.raises(InputError):
        DisjointSetCollection(5, epsilon=0.0)
    with pytest.raises(OutOfRangeError):
        ds.find(6)


def test_union_find_contract():
    ds = DisjointSetCollection(5)
    ds.union(1, 2)
    assert ds.find(1) == ds.find(2)
    assert ds.find(3) != ds.find(1)
    before = ds.find(4)
    ds.union(4, 4)
    assert ds.find(4) == before


def test_union_entropy_example():
    ds = DisjointSetCollection(5)
    ds.union(1, 2)
    ds.union(3, 4)
    assert ds.live_sets == 3
    assert ds.entropy() == pytest.approx(2 * (2 / 5) * math.log2(5 / 2)
                                         + (1 / 5) * math.log2(5), abs=1e-9)
    for a, b in ((1, 3), (1, 5)):
        ds.union(a, b)
    assert ds.live_sets == 1
    assert ds.entropy() == pytest.approx(0.0, abs=1e-9)


def test_entropy_monotone_under_union():
    rng = np.random.default_rng(4)
    ds = DisjointSetCollection(200)
    prev = ds.entropy()
    for _ in range(300):
        i, j = rng.integers(1, 201, size=2)
        ds.union(int(i), int(j))
        assert ds.entropy() <= prev + 1e-9
        prev = ds.entropy()
        assert ds.entropy() == pytest.approx(h_sets(ds.set_sizes()), abs=1e-6)


def test_equivalence_with_textbook_oracle():
    rng = np.random.default_rng(11)
    n = 300
    ds = DisjointSetCollection(n, epsilon=0.1)
    naive = NaiveDSU(n)
    for step in range(1500):
        i, j = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        if rng.random() < 0.6:
            ds.union(i, j)
            naive.union(i, j)
            assert ds.find(i) == ds.find(j)
        else:
            same = ds.find(i) == ds.find(j)
            assert same == (naive.find(i) == naive.find(j))
        if step % 250 == 0:
            assert partitions_equal(ds, naive, n)
    assert partitions_equal(ds, naive, n)


def test_no_unions_no_rebuilds():
    ds = DisjointSetCollection(64)
    for i in range(1, 65):
        ds.find(i)
    ds.maybe_rebuild()
    assert ds.rebuild_count == 0


def test_rebuild_count_pairwise_merge():
    n = 1 << 10
    ds = DisjointSetCollection(n, epsilon=0.1)
    span = 1
    while span < n:
        for a in range(1, n + 1, 2 * span):
            ds.union(a, a + span)
        span *= 2
    assert ds.live_sets == 1
    bound = math.ceil(math.log(math.log2(n)) / math.log(1.1))
    assert ds.rebuild_count <= bound  # 25 for n=2^10, eps=0.1
    # entropy collapsed, so the final epoch stores almost nothing
    assert ds.entropy() == 0.0


def test_rebuild_count_any_sequence_bound():
    rng = np.random.default_rng(7)
    for n in (64, 500):
        ds = DisjointSetCollection(n, epsilon=0.25)
        for _ in range(4 * n):
            ds.union(int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
        bound = math.ceil(math.log(math.log2(n)) / math.log(1.25)) + 1
        assert ds.rebuild_count <= bound


def test_payload_shrinks_at_rebuilds():
    n = 1 << 12
    ds = DisjointSetCollection(n, epsilon=0.1)
    for a in range(2, n + 1):
        ds.union(1, a)
    assert ds.rebuild_count >= 5
    for ev in ds.rebuild_trace:
        assert ev["payload_bits_after"] <= ev["payload_bits_before"]
    # merged to one set: the id string is constant and costs almost nothing
    first = ds.rebuild_trace[0]["payload_bits_before"]
    assert ds.ids_payload_bits() < 0.05 * first


def test_small_n_edge_cases():
    ds = DisjointSetCollection(2, epsilon=0.1)
    ds.union(1, 2)
    assert ds.find(1) == ds.find(2)
    assert ds.rebuild_count <= 1
    one = DisjointSetCollection(1)
    assert one.find(1) == 1
    one.maybe_rebuild()
    assert one.rebuild_count == 0


def test_union_returns_find_of_its_first_element():
    """union's answer is find(i) after it, a Python int, on merging,
    repeated and self unions, across several rebuilds."""
    rng = np.random.default_rng(21)
    n = 400
    ds = DisjointSetCollection(n, epsilon=0.1)
    for _ in range(3 * n):
        i, j = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        root = ds.union(i, j)
        assert type(root) is int and root == ds.find(i) == ds.find(j)
    assert ds.rebuild_count >= 5


@pytest.mark.parametrize("n,width", [(65_535, 2), (65_536, 4)])
def test_narrow_arrays_at_the_dtype_boundary(n, width):
    """One set of every element: the last union writes size n, the widest
    value, into the size array; the oracle agrees at every union."""
    ds = DisjointSetCollection(n, epsilon=0.1)
    assert ds._parent.itemsize == ds._sizes.itemsize == width
    naive = NaiveDSU(n)
    rng = np.random.default_rng(n)
    elems = (rng.permutation(n) + 1).tolist()
    for k in range(1, n):  # join each element to one before it: a spanning tree
        i, j = elems[k], elems[int(rng.integers(0, k))]
        assert (ds.find(i) == ds.find(j)) == (naive.find(i) == naive.find(j))
        ds.union(i, j)
        naive.union(i, j)
    assert ds.live_sets == 1 and ds.set_sizes().tolist() == [n]
    assert len({ds.find(i) for i in range(1, n + 1, 97)}) == 1
    assert ds.entropy() == 0.0


def test_forest_bytes_per_epoch_id():
    """At n = 10^4 the parent and size arrays take at most 4 bytes per
    epoch id, at epoch 0 and after every rebuild."""
    rng = np.random.default_rng(5)
    n = 10**4
    ds = DisjointSetCollection(n)

    def forest_bytes_per_id():
        return (ds._parent.nbytes + ds._sizes.nbytes) / len(ds._parent)

    assert forest_bytes_per_id() == 4
    seen = 0
    while ds.live_sets > 16:
        ds.union(int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
        if ds.rebuild_count > seen:
            seen = ds.rebuild_count
            assert forest_bytes_per_id() <= 4
            assert ds.set_sizes().sum() == n
    assert seen >= 10


def test_rebuild_trace_chains_payload_bits():
    """Each rebuild starts from the bits the previous one left, the first
    from the initial ids, and the last leaves the bits reported now."""
    rng = np.random.default_rng(8)
    n = 1000
    ds = DisjointSetCollection(n, epsilon=0.1)
    while ds.live_sets > 1:
        ds.union(int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
    trace = ds.rebuild_trace
    assert len(trace) >= 5
    assert trace[0]["payload_bits_before"] == ApSequence(np.arange(1, n + 1)).payload_bits()
    for prev, ev in zip(trace, trace[1:]):
        assert ev["payload_bits_before"] == prev["payload_bits_after"]
    assert trace[-1]["payload_bits_after"] == ds.ids_payload_bits() == ds.ids.payload_bits()


def test_selfcheck_suite_checks_union_answers_and_reports_its_fault():
    assert suite_dsets(np.random.default_rng(3), 3, 48) > 0
    with pytest.raises(CheckFailure, match="dsets"):
        suite_dsets(np.random.default_rng(3), 3, 48, fault=True)
