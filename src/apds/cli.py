"""Command-line interface.

Subcommands: build, query, stats, dsu, selfcheck, plus an `index` group
aliasing the build/query paths for text indexes.  The `--type` names, the
`--op` values of each kind and the `index` query subcommands all come from
``container.STRUCTURE_KINDS``; `apds query --help` lists each kind's ops.
Exit codes: 0 ok, 1 selfcheck/invariant failure, 2 input error, 3 query
target not found.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import container
from .apseq import Partition, build_partition
from .bits import symbol_array
from .bitvec import alphabet_ranks
from .cfunction import MODES as FUNC_MODES, build_function
from .errors import ApdsError, InputError, NotFoundError
from .permutation import KINDS as RUN_KINDS, build_run_permutation
from .selfcheck import run_selfcheck
from .stats import h0, hk
from .textindex import FmIndex, text_array
from .dsets import DisjointSetCollection

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NOT_FOUND = 3


def _read_symbols(path: str, fmt: str) -> np.ndarray:
    """The file's symbols as one int64 array: byte values + 1, or int tokens."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if fmt == "bytes":
        return text_array(data)
    try:
        values = np.array(data.split(), dtype=np.int64)
    except ValueError as exc:
        raise InputError(f"bad integer token in {path}: {exc}")
    except OverflowError:
        raise InputError("symbol values must lie in [1..2**63 - 1]")
    return symbol_array(values)


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
        raise InputError(f"bad integer in {text!r}")


def _parse_symbol(text: str, fmt: int) -> int:
    symbols = _parse_pattern(_need(text, "--symbol"), fmt)
    if len(symbols) != 1:
        raise InputError(f"--symbol takes one symbol, got {text!r}")
    return symbols[0]


def _format_symbol(value: int, fmt: int) -> int:
    return value - 1 if fmt == container.FORMAT_BYTES else value


# the build flags that apply to each --type, each to a parameter of its build
# function; a flag left out is None and leaves that function's default
_BUILD_FLAGS = {"seq": {}, "perm": {"runs_kind": "kind", "power_step": "power_step"},
                "func": {"mode": "mode"}, "index": {"k": "k_context", "sample_rate": "sample_rate"}}


def _build_options(args) -> dict:
    """The build function's keyword arguments from the flags given;
    InputError for a flag that does not apply to --type (the build
    functions check the values)."""
    params = _BUILD_FLAGS[args.type]
    given = {flag: value for flag in set().union(*_BUILD_FLAGS.values())
             if (value := getattr(args, flag, None)) is not None}
    stray = sorted(given.keys() - params.keys())
    if stray:
        raise InputError(f"--{stray[0].replace('_', '-')} does not apply to --type {args.type}")
    return {params[flag]: value for flag, value in given.items()}


def cmd_build(args) -> int:
    fmt = container.FORMAT_BYTES if args.format == "bytes" else container.FORMAT_INTS
    if args.type == "perm" and args.format == "bytes":
        raise InputError("permutations take ints input")
    options = _build_options(args)
    symbols = _read_symbols(args.input, args.format)
    if args.type == "seq":
        obj = build_partition(symbols, general_alphabet=True)
        summary = obj.space_report().format()
    elif args.type == "perm":
        obj = build_run_permutation(symbols, **options)
        summary = (f"n = {obj.n}\nrho = {obj.rho}\n"
                   f"payload_bits = {obj.payload_bits()}")
    elif args.type == "func":
        obj = build_function(symbols, remap=True, **options)
        summary = (f"n = {obj.n}\nsigma = {obj.sigma}\n"
                   f"payload_bits = {obj.payload_bits()}")
    else:
        obj = FmIndex(symbols, **options)
        summary = (f"n = {obj.n}\nsigma = {obj.sigma}\n"
                   f"sample_rate = {obj.sample_rate}")
    container.save_file(args.output, obj, fmt)
    print(summary)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_query(args) -> int:
    obj, _, fmt = container.load_file(args.structure)
    op, kind = args.op, container.structure_kind(obj)
    if op not in kind.ops:
        raise InputError(f"op {op!r} does not apply to a {kind.name} structure")
    if op in ("access", "rank", "select", "power"):
        obj.verify()  # a load checks the cycle marks' sizes only
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
    part = Partition.of(alphabet_ranks(symbols)[0])
    nh0t, sub, nh0s, slack = part.identity_terms()
    print(f"n = {symbols.size}")
    print(f"sigma = {part.sigma}")
    print(f"h0 = {h0(symbols):.6f}")
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
    # the suites draw n from [2..max_n]
    if args.iters < 1 or args.max_n < 2:
        raise InputError("selfcheck needs --iters >= 1 and --max-n >= 2")
    return run_selfcheck(args.seed, args.iters, args.max_n,
                         inject_fault=args.inject_fault)


def _build_parser():
    p = argparse.ArgumentParser(prog="apds",
                                description="compressed rank/select toolkit")
    kinds = container.STRUCTURE_KINDS
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a structure container")
    b.add_argument("--type", required=True, choices=[k.name for k in kinds])
    b.add_argument("--input", required=True)
    b.add_argument("--output", required=True)
    b.add_argument("--format", default="bytes", choices=["bytes", "ints"])
    b.add_argument("--runs-kind", choices=RUN_KINDS)
    b.add_argument("--power-step", type=int)
    b.add_argument("--mode", choices=FUNC_MODES)
    b.add_argument("--k", type=int)
    b.add_argument("--sample-rate", type=int)
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="query a structure container")
    q.add_argument("--structure", required=True)
    q.add_argument("--op", required=True, choices=sorted(op for k in kinds for op in k.ops),
                   help="; ".join(f"{k.name}: {', '.join(k.ops)}" for k in kinds)
                   + ". access, rank, select and power first verify the cycle marks, in O(n)")
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

    c = sub.add_parser("selfcheck", help="run oracle property suites", description=(
        "rank_select_mismatch checks PlainBitVector and SparseBitVector storing ones and zeros "
        "(bitvectors suite), and ApSequence, PolySequence and BalancedSequence on each trial's "
        "sequence and LargeSequence on its stable argsort, a permutation (sequences), each built "
        "and loaded; the other suites replay queries against naive scans."))
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
    ib.add_argument("--k", type=int)
    ib.add_argument("--sample-rate", type=int)
    ib.set_defaults(func=cmd_build, type="index")
    for opname in next(k.ops for k in kinds if k.name == "index"):
        iq = isub.add_parser(opname)
        iq.add_argument("--structure", required=True)
        iq.add_argument("--range" if opname == "extract" else "--pattern", required=True)
        iq.set_defaults(func=cmd_query, op=opname)
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
