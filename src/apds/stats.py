"""Empirical entropy calculators and the report emitted by the CLI.

All logarithms are base 2 in double precision; 0*lg(...) terms are 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


def distribution_entropy(counts) -> float:
    """Entropy sum (c/n)*lg(n/c) of a vector of positive part sizes."""
    c = np.asarray(counts, dtype=np.float64)
    c = c[c > 0]
    n = c.sum()
    if n == 0:
        return 0.0
    p = c / n
    return float(-(p * np.log2(p)).sum())


def h0(seq) -> float:
    """Zero-order entropy in bits per symbol."""
    arr = np.asarray(seq)
    if arr.size == 0:
        raise InputError("entropy of an empty sequence is undefined")
    _, counts = np.unique(arr, return_counts=True)
    return distribution_entropy(counts)


def hk(seq, k: int) -> float:
    """k-th order entropy: average of H0 over symbols following each
    length-k context, weighted by context frequency.

    Each window of length j + 1 gets a dense id from its length-j prefix's
    id and its last symbol, one np.unique per step, so the (context, next
    symbol) pairs are counted without a loop over positions."""
    arr = np.asarray(list(seq) if isinstance(seq, (str, bytes)) else seq)
    n = arr.size
    if k < 0:
        raise InputError("context length must be >= 0")
    if k >= n:
        raise InputError("context length must be smaller than the sequence")
    if k == 0:
        return h0(arr)
    symbols, codes = np.unique(arr, return_inverse=True)
    codes, sigma, m = codes.reshape(-1).astype(np.int64), symbols.size, n - k
    context = codes[:m]
    for j in range(1, k):
        context = np.unique(context * sigma + codes[j : j + m], return_inverse=True)[1]
    pairs, counts = np.unique(context * sigma + codes[k:], return_counts=True)
    per_context = np.bincount(context)[pairs // sigma]
    return float((counts * np.log2(per_context / counts)).sum() / n)


def h_runs(run_lengths) -> float:
    """Entropy of a run-length decomposition <n_1..n_rho>."""
    return distribution_entropy(run_lengths)


def h_sets(set_sizes) -> float:
    """Entropy of the distribution of elements over disjoint sets."""
    return distribution_entropy(set_sizes)


def convexity_lower_bound(n: int, sigma: int) -> float:
    """Lower bound on n*H0 for a length-n string over an effective
    alphabet of size sigma."""
    if sigma <= 1:
        return 0.0
    rest = n - sigma + 1
    return (sigma - 1) * math.log2(n) + rest * math.log2(n / rest)


@dataclass
class SectionSpace:
    name: str
    payload_bits: int
    directory_bits: int


@dataclass
class EntropyReport:
    """Space/entropy accounting with stable field names for scripting."""

    n: int
    sigma: int
    h0_bits: float  # n * H0(s)
    partition_bits: float  # n*H0(t) + sum |s_l| * lg(sigma_l)
    bound_bits: float  # n*H0(s) + n / lg n
    total_bits: int
    sections: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def payload_total(self) -> int:
        return sum(s.payload_bits for s in self.sections)

    def format(self) -> str:
        lines = [
            f"n = {self.n}",
            f"sigma = {self.sigma}",
            f"h0_bits = {self.h0_bits:.6f}",
            f"partition_bits = {self.partition_bits:.6f}",
            f"bound_bits = {self.bound_bits:.6f}",
            f"total_bits = {self.total_bits}",
        ]
        for key, val in self.extra.items():
            lines.append(f"{key} = {val}")
        lines.append("sections[] =")
        for s in self.sections:
            lines.append(
                f"  {s.name}: payload_bits={s.payload_bits} directory_bits={s.directory_bits}"
            )
        return "\n".join(lines)
