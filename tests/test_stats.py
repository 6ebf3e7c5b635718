import math
from collections import Counter

import numpy as np
import pytest

from apds.errors import InputError
from apds.stats import (
    convexity_lower_bound,
    distribution_entropy,
    h0,
    h_runs,
    h_sets,
    hk,
)


def slow_h0(seq):
    n = len(seq)
    return sum(c / n * math.log2(n / c) for c in Counter(seq).values())


def test_h0_examples():
    assert h0(list("abracadabra")) == pytest.approx(2.0404, abs=1e-4)
    assert h0([7, 7, 7]) == 0.0
    assert h0([1, 2, 3, 4] * 8) == pytest.approx(2.0, abs=1e-12)


def test_h0_matches_slow_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 500))
        seq = rng.integers(1, 20, size=n).tolist()
        assert h0(seq) == pytest.approx(slow_h0(seq), rel=1e-12)


def test_h0_empty_errors():
    with pytest.raises(InputError):
        h0([])


def test_hk_examples():
    s = list("abracadabra")
    assert hk(s, 0) == h0(s)
    assert hk(list("ababab"), 1) == 0.0
    # frozen from the brute-force context tabulation oracle
    assert hk(s, 1) == pytest.approx(0.5454545454545454, abs=1e-12)


def brute_hk(seq, k):
    n = len(seq)
    ctx = {}
    for i in range(n - k):
        ctx.setdefault(tuple(seq[i : i + k]), []).append(seq[i + k])
    return sum(len(v) / n * slow_h0(v) for v in ctx.values())


def test_hk_matches_brute_force():
    rng = np.random.default_rng(4)
    for k in (1, 2, 3):
        for _ in range(10):
            seq = rng.integers(1, 5, size=int(rng.integers(k + 1, 200))).tolist()
            assert hk(seq, k) == pytest.approx(brute_hk(seq, k), rel=1e-12)


def test_hk_errors():
    with pytest.raises(InputError):
        hk([1, 2], 2)
    with pytest.raises(InputError):
        hk([1, 2], -1)


def test_h_runs_examples():
    assert h_runs([6]) == 0.0
    assert h_runs([3, 3]) == pytest.approx(1.0, abs=1e-12)
    assert h_runs([2, 2]) == pytest.approx(1.0, abs=1e-12)


def test_h_sets_examples():
    assert h_sets([1] * 5) == pytest.approx(math.log2(5), abs=1e-12)
    assert h_sets([9]) == 0.0
    # (2,2,1) over n=5; the same formula gives 1.9219 for sizes (2,1,1,1)
    assert h_sets([2, 2, 1]) == pytest.approx(1.5219280948873624, abs=1e-12)
    assert h_sets([2, 1, 1, 1]) == pytest.approx(1.9219280948873623, abs=1e-12)


def test_h_runs_le_lg_rho():
    rng = np.random.default_rng(9)
    for _ in range(50):
        rho = int(rng.integers(1, 40))
        lengths = rng.integers(1, 50, size=rho)
        assert h_runs(lengths) <= math.log2(rho) + 1e-12


def test_convexity_bound():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 2000))
        sigma = int(rng.integers(1, min(n, 64) + 1))
        seq = np.concatenate(
            [np.arange(1, sigma + 1), rng.integers(1, sigma + 1, size=n - sigma)]
        )
        nh0 = n * h0(seq)
        assert nh0 >= convexity_lower_bound(n, sigma) - 1e-9 * max(1.0, nh0)


def test_distribution_entropy_ignores_zeros():
    assert distribution_entropy([3, 0, 3]) == pytest.approx(1.0)


def _entropy_by_comprehension(counts) -> float:
    """Reference: the per-element filter distribution_entropy used before numpy."""
    c = np.asarray([x for x in counts if x > 0], dtype=np.float64)
    n = c.sum()
    if n == 0:
        return 0.0
    p = c / n
    return float(-(p * np.log2(p)).sum())


@pytest.mark.parametrize("counts", [
    np.array([5, 0, 0, 7, 1, 0, 2]),
    np.random.default_rng(12).integers(0, 4, size=65_536),
    np.zeros(9, dtype=np.int64),
    np.array([], dtype=np.int64),
    [4, 0, 1, 0, 3],
    [],
])
def test_distribution_entropy_matches_comprehension_reference(counts):
    assert distribution_entropy(counts) == _entropy_by_comprehension(counts)
