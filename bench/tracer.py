"""Spans around the public entry points of every apds layer, from outside.

``Tracer.installed()`` swaps wrappers into the classes and modules of
``apds`` and restores the originals on exit, so untraced passes run the
unmodified code.  Names a module imported by value (``get_fixed``,
``select_in_word``, ``suffix_array``) are replaced where they are looked
up.  Spans are aggregated in memory: per span name the call count, total
time and self time (total minus the time covered by child spans), and
per (op label, parent layer, span name) a call count, which gives the
ratios the per-layer metrics need without keeping every span.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

# (module, owner attribute or None for module-level functions, method names, layer)
_TARGETS = (
    ("apds.bitvec", None, ("get_fixed", "select_in_word"), "bits"),
    ("apds.chunkseq", None, ("get_fixed",), "bits"),
    ("apds.textindex", None, ("get_fixed",), "bits"),
    ("apds.bitvec", "PlainBitVector", ("access", "rank", "select", "to_bits"), "bitvec"),
    ("apds.bitvec", "SparseBitVector", ("access", "rank", "select", "to_bits"), "bitvec"),
    ("apds.wavelet", "PolySequence",
     ("__init__", "deserialize", "access", "rank", "select", "decode"), "wavelet"),
    ("apds.chunkseq", "LargeSequence",
     ("__init__", "deserialize", "access", "rank", "select", "decode"), "chunkseq"),
    ("apds.apseq", "ApSequence",
     ("__init__", "deserialize", "access", "rank", "select", "decode"), "apseq"),
    ("apds.textindex", None, ("suffix_array",), "textindex"),
    ("apds.textindex", "FmIndex",
     ("__init__", "deserialize", "count", "locate", "extract"), "textindex"),
    ("apds.permutation", "RunPermutation",
     ("from_decomposition", "deserialize", "apply", "inverse", "power"), "permutation"),
    ("apds.permutation", "PredecessorStructure", ("query",), "permutation"),
    ("apds.cfunction", "CompressedFunction",
     ("__init__", "deserialize", "eval", "preimage_select"), "cfunction"),
    ("apds.dsets", "DisjointSetCollection",
     ("__init__", "union", "find", "maybe_rebuild"), "dsets"),
    ("apds.container", None, ("dump_structure", "load_structure"), "container"),
)


class Tracer:
    """Aggregated spans of one phase; ``op`` is the label of the workload
    operation in flight (None outside the op loop)."""

    def __init__(self):
        # span name -> [calls, total seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        # (op label, parent layer or None, span name) -> calls
        self.calls = defaultdict(int)
        self.built = []  # ApSequence instances constructed while traced
        self.op = None
        self._stack = [[0.0, None]]  # [child seconds, layer]; root sentinel

    def _wrap(self, fn, span, layer, keep_instance=False):
        stack = self._stack
        spans = self.spans
        calls = self.calls

        def traced(*args, **kwargs):
            calls[(self.op, stack[-1][1], span)] += 1
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                s = spans[span]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[0]
                if keep_instance:
                    self.built.append(args[0])

        return traced

    @contextlib.contextmanager
    def installed(self):
        import importlib

        undo = []
        try:
            for modname, owner_name, names, layer in _TARGETS:
                mod = importlib.import_module(modname)
                owner = mod if owner_name is None else getattr(mod, owner_name)
                prefix = layer if owner_name is None else owner_name
                for name in names:
                    raw = owner.__dict__[name]
                    span = f"{prefix}.{name}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, span, layer))
                    else:
                        new = self._wrap(raw, span, layer,
                                         keep_instance=span == "ApSequence.__init__")
                    setattr(owner, name, new)
                    undo.append((owner, name, raw))
            # the container keeps its deserializers by value, in a table
            table = importlib.import_module("apds.container")._DESERIALIZERS
            saved = dict(table)
            for key, method in saved.items():
                table[key] = getattr(method.__self__, method.__name__)
            undo.append((table, None, saved))
            yield self
        finally:
            for owner, name, raw in reversed(undo):
                if name is None:
                    owner.update(raw)
                else:
                    setattr(owner, name, raw)

    # --- queries over the aggregates -------------------------------------------

    def total(self, span: str) -> float:
        return self.spans[span][1] if span in self.spans else 0.0

    def count(self, span: str) -> int:
        return self.spans[span][0] if span in self.spans else 0

    def layer_self(self, layer: str) -> float:
        prefixes = _LAYER_PREFIXES[layer]
        return sum(s[2] for name, s in self.spans.items()
                   if name.split(".")[0] in prefixes)

    def calls_where(self, span=None, parent=None, op=None, layer=None) -> int:
        """Calls matching every given filter; ``layer`` matches the span's
        own layer, ``op`` a prefix of the op label."""
        prefixes = _LAYER_PREFIXES[layer] if layer else None
        total = 0
        for (o, par, name), c in self.calls.items():
            if span is not None and not _span_matches(name, span):
                continue
            if prefixes is not None and name.split(".")[0] not in prefixes:
                continue
            if parent is not None and par != parent:
                continue
            if op is not None and (o is None or not o.startswith(op)):
                continue
            total += c
        return total


def _span_matches(name: str, pattern: str) -> bool:
    """``pattern`` is a full span name or ``*.method`` for any owner."""
    if pattern.startswith("*."):
        return name.endswith(pattern[1:])
    return name == pattern


_LAYER_PREFIXES = {}
for _mod, _owner, _names, _layer in _TARGETS:
    _LAYER_PREFIXES.setdefault(_layer, set()).add(_layer if _owner is None else _owner)
