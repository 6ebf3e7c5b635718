"""Command-line interface.

Subcommands: build, query, stats, dsu, selfcheck, plus an `index` group
aliasing the build/query paths for text indexes.  Exit codes: 0 ok,
1 selfcheck/invariant failure, 2 input error, 3 query target not found.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import container
from .apseq import Partition, build_partition
from .cfunction import MODES as FUNC_MODES, build_function
from .errors import ApdsError, InputError, NotFoundError
from .permutation import KINDS as RUN_KINDS, build_run_permutation
from .selfcheck import run_selfcheck
from .stats import h0, hk
from .textindex import FmIndex
from .dsets import DisjointSetCollection

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NOT_FOUND = 3

INT64_MAX = 2**63 - 1


def _read_symbols(path: str, fmt: str) -> list:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if len(data) == 0:
        raise InputError("empty input")
    if fmt == "bytes":
        return [b + 1 for b in data]
    try:
        values = [int(tok) for tok in data.split()]
    except ValueError as exc:
        raise InputError(f"bad integer token in {path}: {exc}")
    if not values:
        raise InputError("empty input")
    if min(values) < 1:
        raise InputError("symbol values must be >= 1")
    if max(values) > INT64_MAX:
        raise InputError(f"symbol values must be <= {INT64_MAX}")
    return values


def _parse_symbol(text: str, fmt: int) -> int:
    if text is None:
        raise InputError("this op needs --symbol")
    if fmt == container.FORMAT_BYTES:
        m = re.fullmatch(r"\\(\d+)", text)
        if m:
            return int(m.group(1)) + 1
        if len(text) == 1:
            return ord(text) + 1
        raise InputError(f"bytes-format symbol must be one char or \\ddd, got {text!r}")
    try:
        return int(text)
    except ValueError:
        raise InputError(f"bad symbol {text!r}")


def _need(value, flag: str):
    if value is None:
        raise InputError(f"this op needs {flag}")
    return value


def _parse_pattern(text: str, fmt: int) -> list:
    if fmt == container.FORMAT_BYTES:
        out = []
        i = 0
        while i < len(text):
            m = re.match(r"\\(\d+)", text[i:])
            if m:
                out.append(int(m.group(1)) + 1)
                i += m.end()
            else:
                out.append(ord(text[i]) + 1)
                i += 1
        return out
    try:
        return [int(tok) for tok in re.split(r"[,\s]+", text.strip()) if tok]
    except ValueError:
        raise InputError(f"bad integer in pattern {text!r}")


def _format_symbol(value: int, fmt: int) -> int:
    return value - 1 if fmt == container.FORMAT_BYTES else value


def cmd_build(args) -> int:
    fmt = container.FORMAT_BYTES if args.format == "bytes" else container.FORMAT_INTS
    if args.type == "perm" and args.format == "bytes":
        raise InputError("permutations take ints input")
    symbols = _read_symbols(args.input, args.format)
    if args.type == "seq":
        obj = build_partition(symbols, general_alphabet=True)
        summary = obj.space_report().format()
    elif args.type == "perm":
        obj = build_run_permutation(symbols, args.runs_kind,
                                    power_step=args.power_step)
        summary = (f"n = {obj.n}\nrho = {obj.rho}\n"
                   f"payload_bits = {obj.payload_bits()}")
    elif args.type == "func":
        obj = build_function(symbols, mode=args.mode, remap=True)
        summary = (f"n = {obj.n}\nsigma = {obj.sigma}\n"
                   f"payload_bits = {obj.payload_bits()}")
    else:
        obj = FmIndex(symbols, k_context=args.k, sample_rate=args.sample_rate)
        summary = (f"n = {obj.n}\nsigma = {obj.sigma}\n"
                   f"sample_rate = {obj.sample_rate}")
    container.save_file(args.output, obj, fmt)
    print(summary)
    print(f"wrote {args.output}")
    return EXIT_OK


_SEQ_OPS = {"access", "rank", "select"}
_PERM_OPS = {"apply", "inverse", "power"}
_FUNC_OPS = {"eval", "preimage"}
_INDEX_OPS = {"count", "locate", "extract"}


def cmd_query(args) -> int:
    obj, kind, fmt = container.load_file(args.structure)
    op = args.op
    valid = {container.KIND_SEQ: _SEQ_OPS, container.KIND_PERM: _PERM_OPS,
             container.KIND_FUNC: _FUNC_OPS, container.KIND_INDEX: _INDEX_OPS}[kind]
    if op not in valid:
        raise InputError(
            f"op {op!r} does not apply to a {container.kind_name(kind)} structure"
        )
    if op == "access":
        print(_format_symbol(obj.access(_need(args.pos, "--pos")), fmt))
    elif op == "rank":
        print(obj.rank(_parse_symbol(args.symbol, fmt), _need(args.pos, "--pos")))
    elif op == "select":
        print(obj.select(_parse_symbol(args.symbol, fmt), _need(args.rank, "--rank")))
    elif op == "apply":
        print(obj.apply(_need(args.pos, "--pos")))
    elif op == "inverse":
        print(obj.inverse(_need(args.pos, "--pos")))
    elif op == "power":
        print(obj.power(_need(args.pos, "--pos"), args.k))
    elif op == "eval":
        print(_format_symbol(obj.eval(_need(args.pos, "--pos")), fmt))
    elif op == "preimage":
        a = _parse_symbol(args.symbol, fmt)
        if args.rank is not None:
            print(obj.preimage_select(a, args.rank))
        else:
            print(obj.preimage_size(a))
    elif op == "count":
        print(obj.count(_parse_pattern(_need(args.pattern, "--pattern"), fmt)))
    elif op == "locate":
        for pos in obj.locate(_parse_pattern(_need(args.pattern, "--pattern"), fmt)):
            print(pos)
    elif op == "extract":
        try:
            l, r = map(int, _need(args.range, "--range").split(":"))
        except ValueError:
            raise InputError(f"--range must be L:R with integers L and R, got {args.range!r}")
        values = obj.extract(l, r)
        if fmt == container.FORMAT_BYTES:
            sys.stdout.write(bytes(v - 1 for v in values).decode("latin-1") + "\n")
        else:
            print(" ".join(str(v) for v in values))
    return EXIT_OK


def cmd_stats(args) -> int:
    symbols = _read_symbols(args.input, args.format)
    arr = np.asarray(symbols, dtype=np.int64)
    uniq = np.unique(arr)
    dense = np.searchsorted(uniq, arr) + 1
    part = Partition(dense.astype(np.int64))
    nh0t, sub, nh0s, slack = part.identity_terms()
    print(f"n = {arr.size}")
    print(f"sigma = {uniq.size}")
    print(f"h0 = {h0(arr):.6f}")
    if args.k is not None:
        print(f"hk_{args.k} = {hk(symbols, args.k):.6f}")
    print(f"h0_bits = {nh0s:.6f}")
    print(f"partition_bits = {nh0t + sub:.6f}")
    print(f"bound_bits = {nh0s + slack:.6f}")
    return EXIT_OK


def cmd_dsu(args) -> int:
    ds = DisjointSetCollection(args.n, epsilon=args.epsilon)
    seen_rebuilds = 0
    try:
        with open(args.ops) as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise InputError(f"cannot read {args.ops}: {exc}")
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0].upper() == "U" and len(parts) == 3:
                ds.union(int(parts[1]), int(parts[2]))
            elif parts[0].upper() == "F" and len(parts) == 2:
                print(f"find({parts[1]}) = {ds.find(int(parts[1]))}")
            else:
                raise InputError(f"line {lineno}: expected 'U i j' or 'F i'")
        except ValueError:
            raise InputError(f"line {lineno}: bad integer")
        while seen_rebuilds < len(ds.rebuild_trace):
            ev = ds.rebuild_trace[seen_rebuilds]
            print(
                f"rebuild #{seen_rebuilds + 1} op={ev['op']} "
                f"entropy={ev['entropy']:.6f} live_sets={ev['live_sets']} "
                f"payload_bits={ev['payload_bits_after']}"
            )
            seen_rebuilds += 1
    print(f"live_sets = {ds.live_sets}")
    print(f"entropy = {ds.entropy():.6f}")
    print(f"payload_bits = {ds.ids_payload_bits()}")
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    return run_selfcheck(args.seed, args.iters, args.max_n,
                         inject_fault=args.inject_fault)


def _build_parser():
    p = argparse.ArgumentParser(prog="apds",
                                description="compressed rank/select toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a structure container")
    b.add_argument("--type", required=True, choices=["seq", "perm", "func", "index"])
    b.add_argument("--input", required=True)
    b.add_argument("--output", required=True)
    b.add_argument("--format", default="bytes", choices=["bytes", "ints"])
    b.add_argument("--runs-kind", default="interleaved-general", choices=RUN_KINDS)
    b.add_argument("--power-step", type=int, default=None)
    b.add_argument("--mode", default="direct", choices=FUNC_MODES)
    b.add_argument("--k", type=int, default=0)
    b.add_argument("--sample-rate", type=int, default=None)
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="query a structure container")
    q.add_argument("--structure", required=True)
    q.add_argument("--op", required=True,
                   choices=sorted(_SEQ_OPS | _PERM_OPS | _FUNC_OPS | _INDEX_OPS))
    q.add_argument("--symbol")
    q.add_argument("--pos", type=int)
    q.add_argument("--rank", type=int)
    q.add_argument("--k", type=int, default=0)
    q.add_argument("--pattern")
    q.add_argument("--range")
    q.set_defaults(func=cmd_query)

    s = sub.add_parser("stats", help="entropy report for an input file")
    s.add_argument("--input", required=True)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--format", default="bytes", choices=["bytes", "ints"])
    s.set_defaults(func=cmd_stats)

    d = sub.add_parser("dsu", help="run union/find ops from a file")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--epsilon", type=float, default=0.1)
    d.add_argument("--ops", required=True)
    d.set_defaults(func=cmd_dsu)

    c = sub.add_parser("selfcheck", help="run oracle property suites")
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--iters", type=int, default=20)
    c.add_argument("--max-n", type=int, default=256)
    c.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)
    c.set_defaults(func=cmd_selfcheck)

    idx = sub.add_parser("index", help="text index shortcuts")
    isub = idx.add_subparsers(dest="index_command", required=True)
    ib = isub.add_parser("build")
    ib.add_argument("--input", required=True)
    ib.add_argument("--output", required=True)
    ib.add_argument("--format", default="bytes", choices=["bytes", "ints"])
    ib.add_argument("--k", type=int, default=0)
    ib.add_argument("--sample-rate", type=int, default=None)
    ib.set_defaults(func=cmd_build, type="index", runs_kind="interleaved-general",
                    power_step=None, mode="direct")
    for opname in ("count", "locate", "extract"):
        iq = isub.add_parser(opname)
        iq.add_argument("--structure", required=True)
        if opname == "extract":
            iq.add_argument("--range", required=True)
            iq.set_defaults(pattern=None)
        else:
            iq.add_argument("--pattern", required=True)
            iq.set_defaults(range=None)
        iq.set_defaults(func=cmd_query, op=opname, symbol=None, pos=None,
                        rank=None, k=0)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotFoundError as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (InputError, ApdsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
