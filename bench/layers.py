"""Per-layer metrics from the spans of one traced run.

``common_metrics`` covers the layers every workload goes through (packed
words, bitvectors, wavelet trees, the chunked store, ApSequence and the
container); the workloads add the metrics of their own application layer.
Counts and self times are per operation of the traced op pass; ``*_us``
means are per call of that entry point; ``build_s`` and ``load_s`` are
seconds spent in that entry point during one traced set-up or load.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

QUERY_METHODS = ("access", "rank", "select")


def per_call_us(tracer, span: str) -> float:
    calls = tracer.count(span)
    return tracer.total(span) / calls * 1e6 if calls else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def queries(tracer, owner: str) -> int:
    return sum(tracer.count(f"{owner}.{m}") for m in QUERY_METHODS)


def latency_by_label(wl, ops) -> dict:
    """label -> each operation's fastest latency over the passes (seconds)."""
    out = defaultdict(list)
    for (label, _), dt in zip(wl.queries, ops.best()):
        out[label].append(dt)
    return out


def mean_us(values) -> float:
    return float(np.mean(values)) * 1e6 if values else 0.0


def apseq_space(sequences) -> dict:
    """Model payload, n*H0 and the paper's bound n*H0 + o(n), in bits per
    symbol, over every ApSequence the traced set-up built."""
    n = payload = h0 = bound = 0.0
    for seq in sequences:
        rep = seq.space_report()
        n += rep.n
        payload += rep.payload_total()
        h0 += rep.h0_bits
        bound += rep.bound_bits
    return {"payload": ratio(payload, n), "h0": ratio(h0, n), "bound": ratio(bound, n)}


def common_metrics(phase, ops, container_bits: int, payload_bits: int) -> dict:
    """``phase`` maps build/dump/load/ops to their tracers; ``ops`` is the
    traced op pass."""
    t = phase["ops"]
    per_op = 1.0 / ops.done
    space = apseq_space(phase["build"].built)
    wavelet_calls = queries(t, "PolySequence")
    chunk_calls = queries(t, "LargeSequence")
    return {
        "bits.get_fixed_calls_per_op": t.count("bits.get_fixed") * per_op,
        "bits.select_in_word_calls_per_op": t.count("bits.select_in_word") * per_op,
        "bits.self_us_per_op": t.layer_self("bits") * per_op * 1e6,
        "bitvec.rank_calls_per_op": t.calls_where(span="*.rank", layer="bitvec") * per_op,
        "bitvec.select_calls_per_op": t.calls_where(span="*.select", layer="bitvec") * per_op,
        "bitvec.access_calls_per_op": t.calls_where(span="*.access", layer="bitvec") * per_op,
        "bitvec.sparse_calls_per_op":
            sum(t.count(f"SparseBitVector.{q}") for q in QUERY_METHODS) * per_op,
        "bitvec.self_us_per_op": t.layer_self("bitvec") * per_op * 1e6,
        "wavelet.calls_per_op": wavelet_calls * per_op,
        "wavelet.bitvec_calls_per_call":
            ratio(t.calls_where(layer="bitvec", parent="wavelet"), wavelet_calls),
        "wavelet.self_us_per_op": t.layer_self("wavelet") * per_op * 1e6,
        "wavelet.build_s": phase["build"].total("PolySequence.__init__"),
        "chunkseq.calls_per_op": chunk_calls * per_op,
        "chunkseq.get_fixed_per_call":
            ratio(t.calls_where(span="bits.get_fixed", parent="chunkseq"), chunk_calls),
        "chunkseq.self_us_per_op": t.layer_self("chunkseq") * per_op * 1e6,
        "chunkseq.build_s": phase["build"].total("LargeSequence.__init__"),
        "chunkseq.load_s": phase["load"].total("LargeSequence.deserialize"),
        "apseq.access_us": per_call_us(t, "ApSequence.access"),
        "apseq.rank_us": per_call_us(t, "ApSequence.rank"),
        "apseq.select_us": per_call_us(t, "ApSequence.select"),
        "apseq.self_us_per_op": t.layer_self("apseq") * per_op * 1e6,
        "apseq.build_s": phase["build"].total("ApSequence.__init__"),
        "apseq.load_s": phase["load"].total("ApSequence.deserialize"),
        "apseq.decode_s": t.total("ApSequence.decode") / len(ops.passes),
        "apseq.payload_bits_per_symbol": space["payload"],
        "apseq.h0_bits_per_symbol": space["h0"],
        "apseq.bound_bits_per_symbol": space["bound"],
        "container.dump_s": phase["dump"].total("container.dump_structure"),
        "container.serialized_over_payload": ratio(container_bits, payload_bits),
    }
