"""The four benchmark workloads.

Each workload makes its inputs and their oracle answers from a seed when
constructed (not timed), and then offers:

  build()             the structures, timed as set-up
  containers(s)       (label, object, input elements, input format) to dump
  with_loaded(objs)   structures in the shape build() returns, from
                      loaded containers
  new_pass(s)         fresh state for a pass, made before it (not timed)
  pass_ops(s)         one pass of (label, callable, args); a run repeats
                      whole passes, so every operation runs several times
  check_pass(s, res)  number of failed answers in one pass
  properties(s, ...)  (name, ok) facts the method must have
  cli_query(s, paths) (argv, expected stdout) for `python -m apds.cli`
"""

from __future__ import annotations

import math

import numpy as np

from apds import container
from apds.apseq import build_partition
from apds.cfunction import build_function
from apds.dsets import DisjointSetCollection
from apds.permutation import KINDS, build_run_permutation
from apds.textindex import FmIndex

import inputs
from layers import latency_by_label, mean_us
from tracer import Tracer


class Failed:
    """Stands in for the answer of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"Failed({self.exc!r})"


def count_mismatches(results, expected) -> int:
    return sum(1 for r, e in zip(results, expected) if r != e)


class Workload:
    """Defaults for workloads whose passes share one state.

    The shape of an untraced run: op passes one after another; ``cycles``
    times, evenly spaced, ``builds_per_cycle`` timed builds come before a
    pass, and ``loads_per_pass`` timed loads of every container follow each
    pass on average.  ``pass_s`` is the share of --seconds one pass stands
    for, near the wall time of an untraced pass on the reference host
    (2-core Xeon at 2.0 GHz); it turns --seconds into a pass count that
    does not depend on the host's speed.
    """

    builds_per_cycle = 1

    def new_pass(self, s):
        pass

    def layer_metrics(self, phase, traced, plain, s):
        return {}


class SeqZipf(Workload):
    """ApSequence over a general alphabet, built as `apds build --type seq`."""

    name = "seq-zipf"
    n = 1 << 20
    sigma = 1 << 16
    rounds = 700
    cycles = 3
    loads_per_pass = 0.375  # a load takes 1.5 s
    pass_s = 0.75
    loaded_check_ops = 1000

    def __init__(self, seed: int):
        n, sigma, rounds = self.n, self.sigma, self.rounds
        rng = np.random.default_rng(seed)
        alphabet = np.sort(rng.choice(1 << 31, size=sigma, replace=False)) + 1
        self.seq = alphabet[inputs.zipf_ranks(rng, n, sigma)]
        oracle = inputs.PositionLists(self.seq)
        acc_pos = rng.integers(1, n + 1, rounds)
        rank_sym = self.seq[rng.integers(0, n, rounds)]  # frequency-weighted
        rank_pos = rng.integers(1, n + 1, rounds)
        sel_sym = self.seq[rng.integers(0, n, rounds)]
        occ = oracle.counts[oracle.index_of(sel_sym)]
        sel_j = (rng.random(rounds) * occ).astype(np.int64) + 1
        self.queries = []
        self.expected = []
        for r in range(rounds):
            self.queries += [("access", (int(acc_pos[r]),)),
                             ("rank", (int(rank_sym[r]), int(rank_pos[r]))),
                             ("select", (int(sel_sym[r]), int(sel_j[r])))]
        exp_acc = self.seq[acc_pos - 1]
        exp_rank = oracle.rank(rank_sym, rank_pos)
        exp_sel = oracle.select(sel_sym, sel_j)
        for r in range(rounds):
            self.expected += [int(exp_acc[r]), int(exp_rank[r]), int(exp_sel[r])]
        self.cli_pos = int(rng.integers(1, n + 1))

    def build(self):
        return {"seq": build_partition(self.seq, general_alphabet=True)}

    def containers(self, s):
        return [("seq", s["seq"], self.n, container.FORMAT_INTS)]

    def with_loaded(self, objs):
        return {"seq": objs[0]}

    def pass_ops(self, s):
        seq = s["seq"]
        fns = {"access": seq.access, "rank": seq.rank, "select": seq.select}
        return [(label, fns[label], args) for label, args in self.queries]

    def check_pass(self, s, results):
        return count_mismatches(results, self.expected)

    def properties(self, s, loaded):
        return [("partition invariants", _holds(s["seq"].partition.check_invariants))]

    def cli_query(self, s, paths):
        p = self.cli_pos
        return (["query", "--structure", paths[0], "--op", "access", "--pos", str(p)],
                f"{int(self.seq[p - 1])}\n")

    def payload_bits(self, s):
        return s["seq"].payload_bits()


class FmText(Workload):
    """FmIndex (k=0, default sample rate) over English-like text."""

    name = "fm-text"
    n = 1 << 20
    rounds = 42
    cycles = 3
    loads_per_pass = 5
    pass_s = 1.2
    loaded_check_ops = 160
    locate_max_occ = 8
    extract_len = 100

    def __init__(self, seed: int):
        size, rounds = self.n, self.rounds
        rng = np.random.default_rng(seed)
        self.text = text = inputs.english_like_text(rng, size)
        self.oracle = oracle = inputs.TextOracle(text)
        letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
        self.queries, self.expected = [], []
        present = 0
        for _ in range(rounds):  # 10 count (2 absent), 1 locate, 1 extract
            for c in range(10):
                if c % 5 == 4:  # absent: random letters the text does not contain
                    while True:
                        pat = bytes(rng.choice(letters, int(rng.integers(5, 9))))
                        if oracle.count(pat) == 0:
                            break
                else:
                    # lengths 3..12 in turn: a count costs one backward step
                    # per byte, so every seed gets the same mix of costs
                    length = 3 + present % 10
                    present += 1
                    p = int(rng.integers(0, size - length))
                    pat = text[p : p + length]
                self.queries.append(("count", (pat,)))
                self.expected.append(oracle.count(pat))
            pat = self._locate_pattern(rng)
            self.queries.append(("locate", (pat,)))
            self.expected.append(oracle.find_all(pat).tolist())
            l = int(rng.integers(1, size - self.extract_len + 2))
            r = l + self.extract_len - 1
            self.queries.append(("extract", (l, r)))
            self.expected.append(text[l - 1 : r])
        p = int(rng.integers(0, size - 6))
        self.cli_pattern = text[p : p + 6].decode()

    def _locate_pattern(self, rng) -> bytes:
        """A text substring from a uniform position, lengthened from 3 bytes
        until it occurs at most locate_max_occ times, so that each locate
        costs a bounded number of suffix-array walks."""
        text = self.text
        p = int(rng.integers(0, self.n - 64))
        length = 3
        while self.oracle.count(text[p : p + length]) > self.locate_max_occ:
            length += 1
        return text[p : p + length]

    def build(self):
        return {"index": FmIndex(self.text)}

    def containers(self, s):
        return [("index", s["index"], self.n, container.FORMAT_BYTES)]

    def with_loaded(self, objs):
        return {"index": objs[0]}

    def pass_ops(self, s):
        fm = s["index"]
        fns = {"count": fm.count, "locate": fm.locate, "extract": fm.extract_bytes}
        return [(label, fns[label], args) for label, args in self.queries]

    def check_pass(self, s, results):
        return count_mismatches(results, self.expected)

    def properties(self, s, loaded):
        """LF steps per located row stay below the sample rate: every row
        reaches a sampled text position within rate - 1 steps."""
        fm = s["index"]
        rate = fm.sample_rate
        tracer = Tracer()
        rows = steps = 0
        worst = True
        with tracer.installed():
            for (label, args), occ in zip(self.queries, self.expected):
                if label != "locate":
                    continue
                before = tracer.count("ApSequence.access")
                fm.locate(*args)
                walked = tracer.count("ApSequence.access") - before
                worst &= walked <= len(occ) * (rate - 1)
                rows += len(occ)
                steps += walked
                if rows >= 200:
                    break
        return [(f"LF steps per row {steps / rows:.2f} < sample rate {rate}",
                 worst and steps / rows < rate)]

    def cli_query(self, s, paths):
        pat = self.cli_pattern
        return (["query", "--structure", paths[0], "--op", "count", "--pattern", pat],
                f"{self.oracle.count(pat.encode())}\n")

    def payload_bits(self, s):
        fm = s["index"]
        return (sum(p.payload_bits() for p in fm.parts) + fm.sa_marked.payload_bits()
                + 64 * (fm.sa_samples.size + fm.isa_rows.size))

    def layer_metrics(self, phase, traced, plain, s):
        lat = latency_by_label(self, plain)
        rows = sum(len(occ) for (label, _), occ in zip(self.queries, self.expected)
                   if label == "locate")
        chars = len(lat["extract"]) * self.extract_len
        walked = phase["ops"].calls_where(span="ApSequence.access", op="locate")
        return {
            "textindex.count_us": mean_us(lat["count"]),
            "textindex.locate_us_per_occ": sum(lat["locate"]) / rows * 1e6,
            "textindex.extract_us_per_char": sum(lat["extract"]) / chars * 1e6,
            "textindex.lf_steps_per_occ": walked / (rows * len(traced.passes)),
            "textindex.suffix_array_s": phase["build"].total("textindex.suffix_array"),
        }


class PermFunc(Workload):
    """RunPermutation in all four run kinds with a power companion, and
    CompressedFunction in both runs modes."""

    name = "perm-func"
    power_step = 16
    max_power = 8
    func_modes = ("runs-interleaved", "runs-contiguous")
    n = 1 << 16
    rounds = 100
    cycles = 6
    loads_per_pass = 3
    pass_s = 1.0
    loaded_check_ops = 1600

    def __init__(self, seed: int):
        n, rounds = self.n, self.rounds
        rng = np.random.default_rng(seed)
        merged = inputs.merged_runs_permutation(rng, n, 64)
        blocks = inputs.shuffled_blocks_permutation(rng, n, 256)
        self.perms = {k: merged if k.startswith("interleaved") else blocks for k in KINDS}
        self.values = inputs.nearly_sorted_values(rng, n, 1024, 0.01)
        fvals = inputs.PositionLists(self.values)
        self.queries, expected_cols = [], []
        for kind in KINDS:
            pi = self.perms[kind]
            inv = np.empty(n, dtype=np.int64)
            inv[pi - 1] = np.arange(1, n + 1)
            i, v, x = (rng.integers(1, n + 1, rounds) for _ in range(3))
            k = rng.integers(1, self.max_power + 1, rounds) * rng.choice([-1, 1], rounds)
            expected_cols += [pi[i - 1], inv[v - 1],
                              inputs.power_oracle(pi, inv, x, k)]
            self.queries += [[(f"apply/{kind}", (int(a),)) for a in i],
                             [(f"inverse/{kind}", (int(a),)) for a in v],
                             [(f"power/{kind}", (int(a), int(b))) for a, b in zip(x, k)]]
        for mode in self.func_modes:
            i = rng.integers(1, n + 1, rounds)
            a = self.values[rng.integers(0, n, rounds)]
            occ = fvals.counts[fvals.index_of(a)]
            j = (rng.random(rounds) * occ).astype(np.int64) + 1
            expected_cols += [self.values[i - 1], fvals.select(a, j)]
            self.queries += [[(f"eval/{mode}", (int(p),)) for p in i],
                             [(f"preimage/{mode}", (int(b), int(c))) for b, c in zip(a, j)]]
        # interleave the columns so that one round holds one op of each kind
        self.queries = [q for row in zip(*self.queries) for q in row]
        self.expected = [int(e) for row in zip(*expected_cols) for e in row]
        self.cli_pos = int(rng.integers(1, n + 1))

    def build(self):
        s = {k: build_run_permutation(self.perms[k], k, power_step=self.power_step)
             for k in KINDS}
        for mode in self.func_modes:
            s[mode] = build_function(self.values, mode=mode, remap=True)
        return s

    def containers(self, s):
        return [(key, s[key], self.n, container.FORMAT_INTS)
                for key in KINDS + self.func_modes]

    def with_loaded(self, objs):
        return dict(zip(KINDS + self.func_modes, objs))

    def pass_ops(self, s):
        fns = {}
        for kind in KINDS:
            perm = s[kind]
            fns[f"apply/{kind}"] = perm.apply
            fns[f"inverse/{kind}"] = perm.inverse
            fns[f"power/{kind}"] = _power_with_walk(perm)
        for mode in self.func_modes:
            fns[f"eval/{mode}"] = s[mode].eval
            fns[f"preimage/{mode}"] = s[mode].preimage_select
        return [(label, fns[label], args) for label, args in self.queries]

    def check_pass(self, s, results):
        bad = 0
        for (label, _), r, e in zip(self.queries, results, self.expected):
            if label.startswith("power/"):
                ok = isinstance(r, tuple) and r[0] == e and r[1] <= 2 * self.power_step
            else:
                ok = r == e
            bad += not ok
        return bad

    def properties(self, s, loaded):
        return []

    def cli_query(self, s, paths):
        p = self.cli_pos
        return (["query", "--structure", paths[0], "--op", "apply", "--pos", str(p)],
                f"{int(self.perms[KINDS[0]][p - 1])}\n")

    def payload_bits(self, s):
        return sum(s[key].payload_bits() for key in KINDS + self.func_modes)

    def layer_metrics(self, phase, traced, plain, s):
        lat = latency_by_label(self, plain)
        m = {}
        for kind in KINDS:
            m[f"permutation.{kind}.apply_us"] = mean_us(lat[f"apply/{kind}"])
            m[f"permutation.{kind}.inverse_us"] = mean_us(lat[f"inverse/{kind}"])
        m["permutation.power_us"] = mean_us(
            [dt for kind in KINDS for dt in lat[f"power/{kind}"]])
        walks = [r[1] for (label, _), r in zip(self.queries, plain.results)
                 if label.startswith("power/") and isinstance(r, tuple)]
        m["permutation.power_walk_mean"] = float(np.mean(walks))
        m["permutation.pred_queries_per_op"] = (
            phase["ops"].count("PredecessorStructure.query") / traced.done)
        m["permutation.build_s"] = phase["build"].total("RunPermutation.from_decomposition")
        m["permutation.load_s"] = phase["load"].total("RunPermutation.deserialize")
        m["cfunction.eval_us"] = mean_us(
            [dt for mode in self.func_modes for dt in lat[f"eval/{mode}"]])
        m["cfunction.preimage_us"] = mean_us(
            [dt for mode in self.func_modes for dt in lat[f"preimage/{mode}"]])
        m["cfunction.build_s"] = phase["build"].total("CompressedFunction.__init__")
        return m


def _power_with_walk(perm):
    def power(i, k):
        return perm.power(i, k), perm.last_power_walk
    return power


class DsuStream(Workload):
    """DisjointSetCollection fed random merging unions, each followed by a
    find, until few sets remain.  One pass is one whole stream from a fresh
    collection."""

    name = "dsu-stream"
    n = 10_000
    final_sets = 16
    cycles = 8  # a build takes 30 ms: spread its samples over the run
    builds_per_cycle = 3
    loads_per_pass = 6
    pass_s = 1.2
    loaded_check_ops = 0

    def __init__(self, seed: int):
        n, final_sets = self.n, self.final_sets
        rng = np.random.default_rng(seed)
        uf = inputs.NaiveUnionFind(n)
        self.queries, self.same = [], []
        while uf.sets > final_sets:
            # redraw pairs already joined, so every union merges two sets
            i, j = (int(x) for x in rng.integers(1, n + 1, 2))
            if not uf.union(i, j):
                continue
            k = int(rng.integers(1, n + 1))
            self.queries += [("union", (i, j)), ("find", (k,))]
            # union returns find(i); both answers come from the same state
            self.same.append(uf.find(i) == uf.find(k))
        self.final_labels = uf.labels(n)
        self.cli_pos = int(rng.integers(1, n + 1))

    def build(self):
        return {"dsets": DisjointSetCollection(self.n)}

    def new_pass(self, s):
        s["stream"] = DisjointSetCollection(self.n)
        s.setdefault("first_stream", s["stream"])

    def pass_ops(self, s):
        ds = s["stream"]
        fns = {"union": ds.union, "find": ds.find}
        return [(label, fns[label], args) for label, args in self.queries]

    def check_pass(self, s, results):
        bad = 0
        for m in range(len(results) // 2):
            u, f = results[2 * m], results[2 * m + 1]
            if isinstance(u, Failed) or isinstance(f, Failed):
                bad += isinstance(u, Failed) + isinstance(f, Failed)
            elif (u == f) != self.same[m]:
                bad += 1
        return bad

    def containers(self, s):
        """The id string before the first stream and after it."""
        return [("ids-initial", s["dsets"].ids, self.n, container.FORMAT_INTS),
                ("ids-final", s["first_stream"].ids, self.n, container.FORMAT_INTS)]

    def with_loaded(self, objs):
        return {"ids": objs}

    def properties(self, s, loaded):
        ds = s["first_stream"]
        eps = ds.epsilon
        bound = math.ceil(math.log(math.log2(self.n), 1 + eps)) + 1
        labels = np.array([ds.find(i) for i in range(1, self.n + 1)], dtype=np.int64)
        h = inputs.set_entropy(self.final_labels)
        final = ds.ids
        probe = range(1, self.n + 1, 97)
        return [
            ("partition equals naive union-find", inputs.same_partition(labels, self.final_labels)),
            (f"rebuilds {ds.rebuild_count} <= {bound}", ds.rebuild_count <= bound),
            ("live sets equal oracle", ds.live_sets == self.final_sets),
            ("entropy equals oracle", abs(ds.entropy() - h) <= 1e-9 * max(1.0, h)),
            ("loaded ids equal built ids",
             all(loaded["ids"][1].access(i) == final.access(i) for i in probe)),
        ]

    def cli_query(self, s, paths):
        p = self.cli_pos
        return (["query", "--structure", paths[1], "--op", "access", "--pos", str(p)],
                f"{s['first_stream'].ids.access(p)}\n")

    def payload_bits(self, s):
        return s["dsets"].ids.payload_bits() + s["first_stream"].ids.payload_bits()

    def layer_metrics(self, phase, traced, plain, s):
        lat = latency_by_label(self, plain)
        first = s["first_stream"]
        return {
            "dsets.union_us": mean_us(lat["union"]),
            "dsets.find_us": mean_us(lat["find"]),
            "dsets.rebuilds": first.rebuild_count,
            "dsets.rebuild_s":
                phase["ops"].total("DisjointSetCollection.maybe_rebuild") / len(traced.passes),
            "dsets.ids_bits_per_element": first.ids_payload_bits() / self.n,
        }


def _holds(check) -> bool:
    try:
        check()
    except AssertionError:
        return False
    return True


WORKLOADS = {w.name: w for w in (SeqZipf, FmText, PermFunc, DsuStream)}
