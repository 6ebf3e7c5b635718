"""Seeded input generators and the oracles that check answers without apds.

Everything here is numpy or stdlib: an answer computed here never goes
through the code under test.
"""

from __future__ import annotations

import numpy as np

# --- sequences ---------------------------------------------------------------


def zipf_ranks(rng, n: int, sigma: int, theta: float = 1.0) -> np.ndarray:
    """n draws from ranks 0..sigma-1 with P(rank r) proportional to (r+1)^-theta."""
    w = 1.0 / np.arange(1, sigma + 1, dtype=np.float64) ** theta
    return rng.choice(sigma, size=n, p=w / w.sum())


class PositionLists:
    """Sorted 1-based positions of every symbol of ``arr``, for access,
    rank and select answers."""

    def __init__(self, arr: np.ndarray):
        self.n = arr.size
        order = np.argsort(arr, kind="stable")
        self.symbols, self.start, counts = np.unique(
            arr[order], return_index=True, return_counts=True)
        self.counts = counts
        self.pos = order + 1  # grouped by symbol, ascending inside a group
        sym_idx = np.repeat(np.arange(self.symbols.size), counts)
        self._key = sym_idx * (self.n + 1) + self.pos

    def index_of(self, symbols: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.symbols, symbols)

    def rank(self, symbols: np.ndarray, i: np.ndarray) -> np.ndarray:
        idx = self.index_of(symbols)
        hi = np.searchsorted(self._key, idx * (self.n + 1) + i, side="right")
        return hi - self.start[idx]

    def select(self, symbols: np.ndarray, j: np.ndarray) -> np.ndarray:
        return self.pos[self.start[self.index_of(symbols)] + j - 1]


# --- text ----------------------------------------------------------------------

_WORDS = (
    "the of and to a in is that it was for on are as with his they at be "
    "this from have or by one had not but what all were when we there can "
    "an your which their said if do will each about how up out them then "
    "she many some so these would other into has more her two like him see "
    "time could no make than first been its who now people my made over did "
    "down only way find use may water long little very after words called "
    "just where most know get through back much before go good new write our "
    "used me man too any day same right look think also around another came "
    "come work three word must because does part even place well such here "
    "take why things help put years different away again off went old number "
    "great tell men say small every found still between name should home big "
    "give air line set own under read last never us left end along while "
    "might next sound below saw something thought both few those always looked "
    "show large often together asked house world going want school important "
    "until form food keep children feet land side without boy once animals "
    "life enough took sometimes four head above kind began almost live page "
    "got earth need far hand high year mother light parts country father let "
    "night following picture being study second eyes soon times story boys "
    "since white days ever paper hard near sentence better best across during "
    "today others however sure means knew together river stone bridge winter"
).split()


def english_like_text(rng, size: int) -> bytes:
    """Sentences of Zipf-weighted words with capitals and punctuation,
    cut to exactly ``size`` bytes."""
    w = 1.0 / np.arange(1, len(_WORDS) + 1, dtype=np.float64)
    p = w / w.sum()
    tails = (". ", ", ", "; ", "? ", " ")
    parts, total = [], 0
    while total < size:
        words = rng.choice(len(_WORDS), size=int(rng.integers(4, 15)), p=p)
        sentence = " ".join(_WORDS[k] for k in words)
        piece = sentence.capitalize() + tails[int(rng.integers(0, len(tails)))]
        parts.append(piece)
        total += len(piece)
    return "".join(parts).encode("ascii")[:size]


class TextOracle:
    """Occurrences of patterns of 3 or more bytes: the positions of the
    pattern's first 3 bytes, from a sorted table of every 3-byte window,
    each then compared byte by byte with the rest of the pattern."""

    def __init__(self, text: bytes):
        self.buf = np.frombuffer(text, dtype=np.uint8).astype(np.int64)
        b = self.buf
        codes = (b[:-2] << 16) | (b[1:-1] << 8) | b[2:]
        self._order = np.argsort(codes, kind="stable")
        self._codes = codes[self._order]

    def find_all(self, pat: bytes) -> np.ndarray:
        """1-based start of every (overlapping) occurrence, ascending."""
        if len(pat) < 3:
            raise ValueError("patterns need at least 3 bytes")
        code = (pat[0] << 16) | (pat[1] << 8) | pat[2]
        lo, hi = np.searchsorted(self._codes, [code, code + 1])
        cand = self._order[lo:hi]
        cand = cand[cand + len(pat) <= self.buf.size]
        for k in range(3, len(pat)):
            cand = cand[self.buf[cand + k] == pat[k]]
        return cand + 1

    def count(self, pat: bytes) -> int:
        return int(self.find_all(pat).size)


# --- permutations and functions ---------------------------------------------------


def merged_runs_permutation(rng, n: int, runs: int) -> np.ndarray:
    """Positions dealt at random to ``runs`` increasing runs, each run holding
    one interval of consecutive values."""
    cuts = np.sort(rng.choice(np.arange(1, n), runs - 1, replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [n]]))
    labels = rng.permutation(np.repeat(np.arange(runs), sizes))
    # positions of run r, in order, receive values lo_r, lo_r + 1, ...
    order = np.argsort(labels, kind="stable")
    pi = np.empty(n, dtype=np.int64)
    pi[order] = np.arange(1, n + 1)
    return pi


def shuffled_blocks_permutation(rng, n: int, blocks: int) -> np.ndarray:
    """The identity cut into ``blocks`` intervals, shuffled, each reversed
    with probability 1/2."""
    cuts = np.sort(rng.choice(np.arange(1, n), blocks - 1, replace=False))
    parts = np.split(np.arange(1, n + 1, dtype=np.int64), cuts)
    flips = rng.random(blocks) < 0.5
    return np.concatenate([parts[o][::-1] if flips[o] else parts[o]
                           for o in rng.permutation(blocks)])


def nearly_sorted_values(rng, n: int, sigma: int, noise: float) -> np.ndarray:
    """Sorted draws from ``sigma`` distinct large values, with a share
    ``noise`` of positions overwritten at random."""
    alphabet = np.sort(rng.choice(1 << 30, size=sigma, replace=False)) + 1
    vals = np.sort(rng.integers(0, sigma, n))
    k = int(n * noise)
    vals[rng.choice(n, k, replace=False)] = rng.integers(0, sigma, k)
    return alphabet[vals]


def power_oracle(pi: np.ndarray, inv: np.ndarray, i: np.ndarray, k: np.ndarray):
    """pi^k(i) elementwise, by |k|-fold application of pi or its inverse."""
    out = i.copy()
    for step in range(1, int(np.abs(k).max(initial=0)) + 1):
        fwd = k >= step
        back = -k >= step
        out[fwd] = pi[out[fwd] - 1]
        out[back] = inv[out[back] - 1]
    return out


# --- disjoint sets ------------------------------------------------------------------


class NaiveUnionFind:
    """Parent array with path halving and nothing else."""

    def __init__(self, n: int):
        self.parent = list(range(n + 1))
        self.sets = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.sets -= 1
        return True

    def labels(self, n: int) -> np.ndarray:
        return np.array([self.find(x) for x in range(1, n + 1)], dtype=np.int64)


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True when the label arrays induce the same partition of positions."""
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    pairs = np.unique(ia.astype(np.int64) * (ib.max() + 1) + ib)
    return pairs.size == ia.max() + 1 == ib.max() + 1


def set_entropy(labels: np.ndarray) -> float:
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())
