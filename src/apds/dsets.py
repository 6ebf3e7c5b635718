"""Entropy-compressed dynamic disjoint sets over [1..n].

The string of set identifiers (one per element) lives in a compressed
ApSequence; a classical union-find runs over the identifiers that existed
at the last rebuild, so find(i) is access + find on that small universe.
As unions shrink the entropy H of the element-to-set distribution, the
whole structure is rebuilt with freshly dense identifiers:

  * while H >= 1, every time H falls by a (1+epsilon) factor;
  * once n*H falls below n/lg n, one final collapse rebuild.

That schedule keeps the rebuild count within ceil(log_{1+eps} lg n) + 1
on any operation sequence while still letting a fully merged collection
shrink to almost nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .apseq import ApSequence
from .bits import int_param
from .errors import InputError, OutOfRangeError
from .stats import h_sets


def _term(x: int, n: int) -> float:
    return 0.0 if x == 0 else (x / n) * math.log2(n / x)


class DisjointSetCollection:
    def __init__(self, n: int, epsilon: float = 0.1):
        self.n = n = int_param(n, "n")
        if not (epsilon > 0):
            raise InputError("epsilon must be > 0")
        self.epsilon = epsilon
        self.live_sets = n
        self.rebuild_count = 0
        self.rebuild_trace: list[dict] = []
        self._collapsed = False
        self._ops = 0
        self.h_current = math.log2(n) if n > 1 else 0.0
        self.entropy_at_last_rebuild = self.h_current
        self._install(np.arange(1, n + 1, dtype=np.int64))

    def _install(self, id_string: np.ndarray):
        """Install a dense id string as the new rebuild epoch."""
        self.ids = ApSequence(id_string)
        base = int(id_string.max())
        self._parent = np.arange(base + 1, dtype=np.int64)
        self._rank = np.zeros(base + 1, dtype=np.int8)
        self._sizes = np.bincount(id_string, minlength=base + 1).astype(np.int64)

    # --- union-find over the per-epoch identifiers -------------------------------

    def _uf_find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = int(self._parent[root])
        while self._parent[x] != root:
            self._parent[x], x = root, int(self._parent[x])
        return root

    def find(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"element {i} out of [1..{self.n}]")
        return self._uf_find(self.ids.access(i))

    def union(self, i: int, j: int) -> int:
        ri, rj = self.find(i), self.find(j)
        self._ops += 1
        if ri == rj:
            return ri
        if self._rank[ri] < self._rank[rj]:
            ri, rj = rj, ri
        self._parent[rj] = ri
        if self._rank[ri] == self._rank[rj]:
            self._rank[ri] += 1
        sa, sb = int(self._sizes[ri]), int(self._sizes[rj])
        self._sizes[ri] = sa + sb
        self._sizes[rj] = 0
        self.live_sets -= 1
        self.h_current += _term(sa + sb, self.n) - _term(sa, self.n) - _term(sb, self.n)
        self.maybe_rebuild()  # may swap in a fresh epoch with new ids
        return self.find(i)

    # --- rebuild policy -----------------------------------------------------------

    def _floor(self) -> float:
        return 1.0 / math.log2(self.n) if self.n > 1 else 0.0

    def maybe_rebuild(self) -> bool:
        if self._collapsed or self.n == 1:
            return False
        shrunk = self.h_current <= self.entropy_at_last_rebuild / (1 + self.epsilon)
        if shrunk and self.h_current >= 1.0:
            self._rebuild()
            return True
        if self.h_current < self._floor():
            self._rebuild()
            self._collapsed = True
            return True
        return False

    def _rebuild(self):
        before = self.ids_payload_bits()
        roots = self.ids.decode()
        while True:  # pointer jumping to the union-find roots, whole-array
            nxt = self._parent[roots]
            if np.array_equal(nxt, roots):
                break
            roots = nxt
        # dense ids in first-occurrence order
        uniq, first_idx, inverse = np.unique(
            roots, return_index=True, return_inverse=True
        )
        rank_of = np.empty(uniq.size, dtype=np.int64)
        rank_of[np.argsort(first_idx, kind="stable")] = np.arange(1, uniq.size + 1)
        fresh = rank_of[inverse]
        self._install(fresh)
        self.h_current = h_sets(self._sizes[self._sizes > 0])
        self.entropy_at_last_rebuild = self.h_current
        self.rebuild_count += 1
        self.rebuild_trace.append(
            {
                "op": self._ops,
                "entropy": self.h_current,
                "live_sets": self.live_sets,
                "payload_bits_before": before,
                "payload_bits_after": self.ids_payload_bits(),
            }
        )

    # --- reporting -----------------------------------------------------------------

    def set_sizes(self) -> np.ndarray:
        return self._sizes[self._sizes > 0].copy()

    def entropy(self) -> float:
        return self.h_current

    def ids_payload_bits(self) -> int:
        return self.ids.payload_bits()
