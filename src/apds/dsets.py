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

The forest over the base identifiers of an epoch (base = the number of sets
at its rebuild, n at epoch 0) is two arrays of base + 1 entries: the parent
of each identifier, at the narrowest unsigned dtype that holds base, and
the size of each root's set, at the narrowest that holds n (uint16 both at
n = 10^4: 32 bits per epoch identifier).  Both are read and written through
memoryviews, whose items are Python ints.  find compresses paths fully and
union links the smaller set under the larger (union by size; Tarjan & van
Leeuwen, JACM 1984), so no rank array is kept.  union returns the root of
the merged set, which is find(i) of the epoch after the union.
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
        self._ids_bits = self.ids.payload_bits()
        base = int(id_string.max())
        self._parent = memoryview(np.arange(base + 1, dtype=np.min_scalar_type(base)))
        sizes = np.bincount(id_string, minlength=base + 1)
        self._sizes = memoryview(sizes.astype(np.min_scalar_type(self.n)))

    # --- union-find over the per-epoch identifiers -------------------------------

    def _uf_find(self, x: int) -> int:
        parent = self._parent
        root = x
        while (up := parent[root]) != root:
            root = up
        while (up := parent[x]) != root:
            parent[x], x = root, up
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
        sizes = self._sizes
        sa, sb = sizes[ri], sizes[rj]
        if sa < sb:
            ri, rj, sa, sb = rj, ri, sb, sa
        self._parent[rj] = ri
        sizes[ri], sizes[rj] = sa + sb, 0
        self.live_sets -= 1
        self.h_current += _term(sa + sb, self.n) - _term(sa, self.n) - _term(sb, self.n)
        # a rebuild renumbers the sets, so the root is asked for again
        return self.find(i) if self.maybe_rebuild() else ri

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
        before = self._ids_bits
        roots = np.asarray(self._parent)
        while not np.array_equal(up := roots[roots], roots):  # pointer jumping
            roots = up
        # dense ids in first-occurrence order
        _, first, inverse = np.unique(roots[self.ids.decode()], return_index=True,
                                      return_inverse=True)
        self._install(np.argsort(np.argsort(first))[inverse] + 1)
        self.h_current = h_sets(self.set_sizes())
        self.entropy_at_last_rebuild = self.h_current
        self.rebuild_count += 1
        self.rebuild_trace.append(
            {
                "op": self._ops,
                "entropy": self.h_current,
                "live_sets": self.live_sets,
                "payload_bits_before": before,
                "payload_bits_after": self._ids_bits,
            }
        )

    # --- reporting -----------------------------------------------------------------

    def set_sizes(self) -> np.ndarray:
        sizes = np.asarray(self._sizes)
        return sizes[sizes > 0].astype(np.int64)

    def entropy(self) -> float:
        return self.h_current

    def ids_payload_bits(self) -> int:
        return self._ids_bits
