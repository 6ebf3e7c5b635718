import argparse
import os
import subprocess
import sys

import numpy as np
import pytest

from apds.apseq import ApSequence
from apds.bitvec import SparseDictionary
from apds.cli import _build_parser, main
from apds.container import (CRC_START, FORMAT_BYTES, FORMAT_INTS, HEADER_BYTES, KIND_INDEX,
                            KIND_SEQ, STRUCTURE_KINDS, dump_structure, load_structure,
                            pack_container, save_file)
from apds.selfcheck import suite_sequences
from apds.wavelet import BalancedSequence, PolySequence
from test_apseq import large_class_input, t_edited_across_the_permutation_rule
from test_bitvec import swap_sparse_lows
from test_cfunction import extra_unit_function
from test_chunkseq import corrupt_cycle_walk
from test_container import _structures, reseal
from test_textindex import all_ones_samples_index
from test_wavelet import balanced_corruptions


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def abra_file(tmp_path):
    p = tmp_path / "abra.txt"
    p.write_bytes(b"abracadabra")
    return str(p)


def test_build_seq_summary(abra_file, tmp_path, capsys):
    out_path = str(tmp_path / "abra.apds")
    code, out, _ = run_cli(capsys, "build", "--type", "seq",
                           "--input", abra_file, "--output", out_path)
    assert code == 0
    assert "n = 11" in out
    assert "sigma = 5" in out


def test_query_rank_example(abra_file, tmp_path, capsys):
    out_path = str(tmp_path / "abra.apds")
    run_cli(capsys, "build", "--type", "seq", "--input", abra_file,
            "--output", out_path)
    code, out, _ = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "rank", "--symbol", "a", "--pos", "8")
    assert code == 0
    assert out.strip() == "4"
    code, out, _ = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "access", "--pos", "5")
    assert out.strip() == str(ord("c"))


def test_query_select_not_found_exit_3(abra_file, tmp_path, capsys):
    out_path = str(tmp_path / "abra.apds")
    run_cli(capsys, "build", "--type", "seq", "--input", abra_file,
            "--output", out_path)
    code, _, err = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "select", "--symbol", "c", "--rank", "2")
    assert code == 3
    assert "not found" in err.lower()


def test_select_not_found_names_the_callers_symbol(tmp_path, capsys):
    src = tmp_path / "s.txt"
    src.write_text("5 5 5 7 7 9 1000")
    out_path = str(tmp_path / "s.apds")
    run_cli(capsys, "build", "--type", "seq", "--format", "ints", "--input", str(src),
            "--output", out_path)
    for symbol, rank in (("1000", "5"), ("5", "4")):  # a two- and a one-symbol class
        code, _, err = run_cli(capsys, "query", "--structure", out_path,
                               "--op", "select", "--symbol", symbol, "--rank", rank)
        assert code == 3
        assert f"fewer than {rank} occurrences of symbol {symbol}" in err


def test_empty_input_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    code, _, err = run_cli(capsys, "build", "--type", "seq",
                           "--input", str(empty), "--output",
                           str(tmp_path / "o.apds"))
    assert code == 2
    assert "empty input" in err


def test_build_perm_and_power(tmp_path, capsys):
    p = tmp_path / "p.txt"
    p.write_text("3 1 4 2")
    out_path = str(tmp_path / "p.apds")
    code, out, _ = run_cli(capsys, "build", "--type", "perm", "--format", "ints",
                           "--input", str(p), "--output", out_path,
                           "--runs-kind", "interleaved-strict",
                           "--power-step", "2")
    assert code == 0
    assert "rho = 2" in out
    code, out, _ = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "apply", "--pos", "3")
    assert out.strip() == "4"
    code, out, _ = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "power", "--pos", "1", "--k", "-1")
    assert out.strip() == "2"


def test_non_bijective_perm_rejected(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 1 2")
    code, _, err = run_cli(capsys, "build", "--type", "perm", "--format", "ints",
                           "--input", str(p), "--output", str(tmp_path / "x"))
    assert code == 2
    assert "bijection" in err


def test_build_func_and_preimage(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("1 1 2 3 2 1")
    out_path = str(tmp_path / "f.apds")
    run_cli(capsys, "build", "--type", "func", "--format", "ints",
            "--input", str(f), "--output", out_path, "--mode", "runs-interleaved")
    code, out, _ = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "eval", "--pos", "5")
    assert out.strip() == "2"
    code, out, _ = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "preimage", "--symbol", "2")
    assert out.strip() == "2"
    code, out, _ = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "preimage", "--symbol", "3", "--rank", "1")
    assert out.strip() == "4"


def test_index_build_and_locate(abra_file, tmp_path, capsys):
    out_path = str(tmp_path / "abra.idx")
    run_cli(capsys, "build", "--type", "index", "--input", abra_file,
            "--output", out_path)
    code, out, _ = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "locate", "--pattern", "abra")
    assert code == 0
    assert out.split() == ["1", "8"]
    code, out, _ = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "count", "--pattern", "abra")
    assert out.strip() == "2"
    code, out, _ = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "extract", "--range", "4:6")
    assert out.strip() == "aca"


def test_index_alias_subcommands(abra_file, tmp_path, capsys):
    out_path = str(tmp_path / "abra2.idx")
    code, _, _ = run_cli(capsys, "index", "build", "--input", abra_file,
                         "--output", out_path)
    assert code == 0
    code, out, _ = run_cli(capsys, "index", "locate", "--structure", out_path,
                           "--pattern", "abra")
    assert out.split() == ["1", "8"]
    code, out, _ = run_cli(capsys, "index", "extract", "--structure", out_path,
                           "--range", "1:4")
    assert out.strip() == "abra"


def test_wrong_op_for_structure(abra_file, tmp_path, capsys):
    out_path = str(tmp_path / "abra.apds")
    run_cli(capsys, "build", "--type", "seq", "--input", abra_file,
            "--output", out_path)
    code, _, err = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "locate", "--pattern", "a")
    assert code == 2
    assert "does not apply" in err
    # every op outside a kind's row, on a container of each kind
    all_ops = {op for k in STRUCTURE_KINDS for op in k.ops}
    for (obj, _), kind in zip(_structures(), STRUCTURE_KINDS):
        path = str(tmp_path / f"{kind.name}.apds")
        save_file(path, obj)
        for op in sorted(all_ops - set(kind.ops)):
            code, out, err = run_cli(capsys, "query", "--structure", path, "--op", op)
            assert (code, out) == (2, "")
            assert f"op {op!r} does not apply to a {kind.name} structure" in err


def _choices(parser, *path):
    """The choices of the action with dest path[-1], in the subcommand path[:-1]."""
    for name in path[:-1]:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    if path[-1] is None:  # the parser's own subcommands
        return list(next(a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)).choices)
    return list(next(a for a in parser._actions if a.dest == path[-1]).choices)


def test_kind_choices_come_from_the_table():
    parser = _build_parser()
    assert _choices(parser, "build", "type") == [k.name for k in STRUCTURE_KINDS]
    assert set(_choices(parser, "query", "op")) == {op for k in STRUCTURE_KINDS for op in k.ops}
    index_ops = next(k.ops for k in STRUCTURE_KINDS if k.name == "index")
    assert _choices(parser, "index", None) == ["build", *index_ops]


def test_stats_output(abra_file, capsys):
    code, out, _ = run_cli(capsys, "stats", "--input", abra_file, "--k", "1")
    assert code == 0
    assert "h0 = 2.040373" in out
    assert "hk_1 = 0.545455" in out
    assert "n = 11" in out


def test_dsu_command(tmp_path, capsys):
    ops = tmp_path / "ops.txt"
    ops.write_text("U 1 2\nF 1\nF 3\nU 3 4\nF 4\n")
    code, out, _ = run_cli(capsys, "dsu", "--n", "5", "--epsilon", "0.1",
                           "--ops", str(ops))
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("find")]
    assert len(lines) == 3
    assert "live_sets = 3" in out


def test_dsu_bad_ops_file(tmp_path, capsys):
    ops = tmp_path / "ops.txt"
    ops.write_text("U 1\n")
    code, _, err = run_cli(capsys, "dsu", "--n", "5", "--ops", str(ops))
    assert code == 2


def test_selfcheck_passes(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--seed", "3",
                           "--iters", "3", "--max-n", "48")
    assert code == 0
    assert out.count("pass") == 7


@pytest.mark.parametrize("seed,iters,max_n", [(1, 20, 256), (3, 2, 32), (5, 1, 2)])
def test_selfcheck_sequences_walk_a_sparse_level(monkeypatch, seed, iters, max_n):
    """Every run of the sequences suite builds a matrix with a sparse level
    and a plain one, so its walks take both kinds of level."""
    kinds = []
    set_levels = PolySequence._set_levels

    def recorded(self, levels, steps):
        kinds.append({bv.kind for bv in levels})
        set_levels(self, levels, steps)

    monkeypatch.setattr(PolySequence, "_set_levels", recorded)
    assert suite_sequences(np.random.default_rng(seed), iters, max_n) > 0
    assert {"plain", "sparse"} in kinds


def test_selfcheck_injected_fault_fails(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--seed", "3", "--iters", "2",
                           "--max-n", "32", "--inject-fault", "sequences")
    assert code == 1
    assert "FAIL" in out
    assert "witness" in out or "expected" in out


def test_bytes_symbol_escape(tmp_path, capsys):
    data = tmp_path / "d.bin"
    data.write_bytes(bytes([100, 100, 7, 100]))
    out_path = str(tmp_path / "d.apds")
    run_cli(capsys, "build", "--type", "seq", "--input", str(data),
            "--output", out_path)
    code, out, _ = run_cli(capsys, "query", "--structure", out_path,
                           "--op", "rank", "--symbol", r"\100", "--pos", "4")
    assert out.strip() == "3"


def test_symbol_escape_answers_as_its_char(abra_file, tmp_path, capsys):
    out_path = str(tmp_path / "abra.apds")
    run_cli(capsys, "build", "--type", "seq", "--input", abra_file, "--output", out_path)
    for op, arg, answer in (("rank", "--pos", "1\n"), ("select", "--rank", "6\n")):
        for symbol in ("a", r"\97"):
            assert run_cli(capsys, "query", "--structure", out_path, "--op", op,
                           "--symbol", symbol, arg, "3")[:2] == (0, answer)


@pytest.mark.parametrize("fmt,symbol,message", [
    ("bytes", "ab", "--symbol takes one symbol"),
    ("ints", "5,6", "--symbol takes one symbol"),
    ("ints", "", "--symbol takes one symbol"),
    ("ints", "x", "bad integer in 'x'"),
    ("bytes", None, "this op needs --symbol"),
])
def test_symbol_takes_one_symbol(tmp_path, capsys, fmt, symbol, message):
    src = tmp_path / "s.txt"
    src.write_text("5 6 5 7" if fmt == "ints" else "abra")
    out_path = str(tmp_path / "s.apds")
    run_cli(capsys, "build", "--type", "seq", "--format", fmt, "--input", str(src),
            "--output", out_path)
    argv = ["query", "--structure", out_path, "--op", "rank", "--pos", "2"]
    code, out, err = run_cli(capsys, *argv, *([] if symbol is None else ["--symbol", symbol]))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err, err


def run_cli_process(*argv, python_flags=(), timeout=60):
    """Run the CLI in a fresh interpreter, so a traceback would show."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *python_flags, "-m", "apds.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def assert_exit_2_without_traceback(proc, message=None):
    """Exit 2 with an error line, and no traceback; the error names
    ``message`` when one is given (the check that refused the file)."""
    assert proc.returncode == 2
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    assert message is None or message in proc.stderr, proc.stderr


def test_truncated_payload_exit_2_without_traceback(abra_file, tmp_path, capsys):
    out_path = tmp_path / "abra.apds"
    run_cli(capsys, "build", "--type", "seq", "--input", abra_file,
            "--output", str(out_path))
    data = out_path.read_bytes()
    # half the payload, resealed: the payload ends at the file's end
    payload = data[HEADER_BYTES:]
    out_path.write_bytes(reseal(data[:HEADER_BYTES] + payload[: len(payload) // 2]))
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(out_path), "--op", "access", "--pos", "1"), "truncated")


def test_truncated_header_exit_2_without_traceback(abra_file, tmp_path, capsys):
    out_path = tmp_path / "abra.apds"
    run_cli(capsys, "build", "--type", "seq", "--input", abra_file,
            "--output", str(out_path))
    data = out_path.read_bytes()
    # 9 bytes: magic, version 12 and one checksum byte; the whole header
    # but its last byte, the input format
    for cut in (data[:9], data[: HEADER_BYTES - 1]):
        out_path.write_bytes(cut)
        assert_exit_2_without_traceback(run_cli_process(
            "query", "--structure", str(out_path), "--op", "access", "--pos", "1"),
            f"shorter than its {HEADER_BYTES}-byte header")


def test_bad_container_kind_exit_2_without_traceback(abra_file, tmp_path, capsys):
    """A version-4 to version-11 file, and, resealed, a seq header over an
    index payload and an unknown container kind (the byte at CRC_START)."""
    seq_path, index_path = tmp_path / "abra.apds", tmp_path / "abra.idx"
    run_cli(capsys, "build", "--type", "seq", "--input", abra_file,
            "--output", str(seq_path))
    run_cli(capsys, "index", "build", "--input", abra_file, "--output", str(index_path))
    seq, index = seq_path.read_bytes(), index_path.read_bytes()
    assert seq[4:8] == b"\x0c\x00\x00\x00" and seq[CRC_START] == 1 and index[CRC_START] == 4
    bad = [(seq[:4] + bytes([v]) + seq[5:], f"unsupported container version {v}")
           for v in (4, 5, 6, 7, 8, 9, 10, 11)]
    bad += [(reseal(index[:CRC_START] + b"\x01" + index[CRC_START + 1:]), None),
            (reseal(seq[:CRC_START] + b"\x09" + seq[CRC_START + 1:]), "unknown structure kind 9")]
    for i, (data, message) in enumerate(bad):
        path = tmp_path / f"bad{i}.apds"
        path.write_bytes(data)
        proc = run_cli_process("query", "--structure", str(path), "--op", "access", "--pos", "1")
        assert_exit_2_without_traceback(proc, message)
        assert "checksum" not in proc.stderr


def test_appended_payload_bytes_exit_2(abra_file, tmp_path, capsys):
    """Bytes appended to the payload, resealed: the checksum holds, and the
    payload's reader refuses the bytes it did not read."""
    out_path = tmp_path / "abra.apds"
    run_cli(capsys, "build", "--type", "seq", "--input", abra_file, "--output", str(out_path))
    out_path.write_bytes(reseal(out_path.read_bytes() + b"junk"))
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(out_path), "--op", "access", "--pos", "1"),
        "4 unread bytes after the payload")


def test_index_samples_past_the_text_exit_2(tmp_path):
    """A 780-char index whose SA samples are all ones, with a valid
    checksum: locate places a suffix past the text, and extract's first use
    of the samples finds that they are not a permutation."""
    payload, _ = all_ones_samples_index()
    path = tmp_path / "ones.idx"
    path.write_bytes(pack_container(KIND_INDEX, FORMAT_BYTES, payload))
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(path), "--op", "locate", "--pattern", "abra"),
        "past the text")
    assert_exit_2_without_traceback(run_cli_process(
        "index", "extract", "--structure", str(path), "--range", "1:5"),
        "not a permutation")


def test_swapped_symbol_classes_exit_2(tmp_path):
    """Two symbols, each the second member of its class, swap classes in M.
    Each class keeps its size, so the file, resealed, loads and decodes
    wrong; with its checksum as written, a query refuses it."""
    rng = np.random.default_rng(1)
    weights = 1.0 / np.arange(1, 201)
    seq = rng.choice(np.arange(1, 201), size=4000, p=weights / weights.sum())
    seq[:200] = np.arange(1, 201)
    aps = ApSequence(seq)
    data = dump_structure(aps)
    dense = aps.M.decode()
    two = np.flatnonzero(np.bincount(dense) >= 2)[-2:]  # the last classes of 2+ symbols
    a, b = (np.flatnonzero(dense == l)[1] for l in two)
    dense[[a, b]] = dense[[b, a]]
    aps.M = PolySequence(dense, alphabet_size=aps.M.sigma)
    bad = data[:HEADER_BYTES] + aps.serialize()
    assert (load_structure(reseal(bad))[0].decode() != seq).any()
    path = tmp_path / "seq.apds"
    path.write_bytes(bad)
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(path), "--op", "access", "--pos", "1"), "checksum")


def test_corrupt_function_bitmap_exit_2(tmp_path):
    path = tmp_path / "f.apds"
    path.write_bytes(dump_structure(extra_unit_function()))
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(path), "--op", "eval", "--pos", "3"))


def test_corrupt_dictionary_exit_2(tmp_path, capsys):
    """A sequence whose sparse alphabet dictionary has two low parts of one
    bucket swapped."""
    src = tmp_path / "seq.txt"
    src.write_text("101 102 103 4096 101 102")
    out_path = tmp_path / "seq.apds"
    run_cli(capsys, "build", "--type", "seq", "--format", "ints", "--input", str(src),
            "--output", str(out_path))
    good = SparseDictionary([101, 102, 103, 4096]).serialize()
    data = out_path.read_bytes()
    assert data.count(good) == 1
    out_path.write_bytes(reseal(data.replace(good, swap_sparse_lows(good, 0, 1))))
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(out_path), "--op", "access", "--pos", "1"),
        "dictionary")


class StorePayload:
    """A class store that serializes as the bytes given."""

    def __init__(self, data: bytes):
        self.data = data

    def serialize(self) -> bytes:
        return self.data


def test_corrupt_balanced_store_exit_2(tmp_path):
    """A sequence container, checksum as written, with its first balanced
    class store made each of ``balanced_corruptions``, or whose T moves a
    class across n_l = sigma_l, so that its store is read as the other kind."""
    aps = ApSequence(large_class_input())
    k = next(k for k, s in enumerate(aps.subs) if isinstance(s, BalancedSequence))
    cases = []
    for data, message in balanced_corruptions(aps.subs[k]).values():
        aps.subs[k] = StorePayload(data)
        cases.append((dump_structure(aps), message))
    cases += [(pack_container(KIND_SEQ, FORMAT_INTS, payload), None)
              for payload in t_edited_across_the_permutation_rule().values()]
    for i, (data, message) in enumerate(cases):
        path = tmp_path / f"seq{i}.apds"
        path.write_bytes(data)
        assert_exit_2_without_traceback(run_cli_process(
            "query", "--structure", str(path), "--op", "access", "--pos", "1"), message)


def test_int_token_above_int64_exit_2(tmp_path):
    src = tmp_path / "big.txt"
    src.write_text(f"1 2 {2**63}")
    assert_exit_2_without_traceback(run_cli_process(
        "build", "--type", "seq", "--format", "ints", "--input", str(src),
        "--output", str(tmp_path / "big.apds")))


@pytest.mark.parametrize("text,message", [
    ("1 x 3", "bad integer token"),
    ("1 2.5", "bad integer token"),
    ("3 0 1", "symbol values must be >= 1"),
    (f"3 {-2**70} 1", "symbol values must"),
    (" \n\t", "empty input"),
    (None, "cannot read"),
])
def test_bad_int_input_exit_2(tmp_path, capsys, text, message):
    src = tmp_path / "ints.txt"
    if text is not None:
        src.write_text(text)
    code, _, err = run_cli(capsys, "build", "--type", "seq", "--format", "ints",
                           "--input", str(src), "--output", str(tmp_path / "o.apds"))
    assert code == 2
    assert message in err


@pytest.mark.parametrize("bad_range", ["1:x", "5"])
def test_bad_extract_range_exit_2(abra_file, tmp_path, capsys, bad_range):
    out_path = str(tmp_path / "abra.idx")
    run_cli(capsys, "index", "build", "--input", abra_file, "--output", out_path)
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", out_path, "--op", "extract", "--range", bad_range))


@pytest.mark.parametrize("flag", [["--epsilon", "0.5"], ["--variant", "ii"]])
def test_removed_build_flags_exit_2(abra_file, tmp_path, flag):
    proc = run_cli_process("build", "--type", "seq", "--input", abra_file,
                           "--output", str(tmp_path / "abra.apds"), *flag)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def corrupt_perm_queries(tmp_path, capsys):
    """CLI query argv for a contiguous-strict permutation container with a
    layout tag (the first payload byte) of 9, resealed."""
    src = tmp_path / "perm.txt"
    src.write_text("1 2 3 7 6 5 4 8 9")
    out_path = tmp_path / "perm.apds"
    run_cli(capsys, "build", "--type", "perm", "--format", "ints", "--input", str(src),
            "--output", str(out_path), "--runs-kind", "contiguous-strict")
    data = out_path.read_bytes()
    assert data[HEADER_BYTES] == 4
    bad = tmp_path / "perm-tag.apds"
    bad.write_bytes(reseal(data[:HEADER_BYTES] + bytes([9]) + data[HEADER_BYTES + 1:]))
    return [("query", "--structure", str(bad), "--op", "apply", "--pos", "1")]


def corrupt_cycle_walk_query(tmp_path, capsys):
    """CLI query argv for select(300, 1) on a sequence container whose one
    class store has a broken in-chunk permutation (see test_chunkseq)."""
    seq, good, bad = corrupt_cycle_walk()
    src = tmp_path / "seq.txt"
    src.write_text(" ".join(map(str, seq.tolist())))
    out_path = tmp_path / "seq.apds"
    run_cli(capsys, "build", "--type", "seq", "--format", "ints", "--input", str(src),
            "--output", str(out_path))
    data = out_path.read_bytes()
    assert data.count(good) == 1
    out_path.write_bytes(reseal(data.replace(good, bad)))
    return ("query", "--structure", str(out_path), "--op", "select",
            "--symbol", "300", "--rank", "1")


def test_repeated_pi_exits_2(tmp_path, capsys):
    """The container of corrupt_cycle_walk_query: its one permutation class
    maps position 1 to 1, where 300 is stored, so the value 1 repeats and
    access(1) would answer 1.  Every sequence op verifies the class first
    and exits 2."""
    path = corrupt_cycle_walk_query(tmp_path, capsys)[2]
    for op in (("access", "--pos", "1"), ("rank", "--symbol", "1", "--pos", "5"),
               ("select", "--symbol", "300", "--rank", "1")):
        code, out, err = run_cli(capsys, "query", "--structure", path, "--op", *op)
        assert (code, out) == (2, "") and "not a permutation" in err, (op, err)


@pytest.mark.parametrize("stored", [[1] * 16, list(range(1, 17))])
def test_corrupt_power_marks_exit_2(tmp_path, capsys, stored):
    """A 64-cycle with power step 4 stores the marks 1, 5, .., 61.  Marks
    stored as sixteen 1s or as 1..16 pass the load's size checks, and the
    query's verify refuses both before the walk, which from 20 would meet
    no mark within the step bound."""
    src = tmp_path / "cycle.txt"
    src.write_text(" ".join(map(str, [*range(2, 65), 1])))
    out_path = tmp_path / "cycle.apds"
    run_cli(capsys, "build", "--type", "perm", "--format", "ints", "--input", str(src),
            "--output", str(out_path), "--power-step", "4")
    data = out_path.read_bytes()
    # the marks are an ints field stored less one: width 1, count 16
    good = bytes([1, 16, *range(0, 64, 4)])
    assert data.count(good) == 1
    out_path.write_bytes(reseal(data.replace(good, bytes([1, 16, *(m - 1 for m in stored)]))))
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(out_path), "--op", "power", "--pos", "20", "--k", "3"),
        "power companion")


def test_corrupt_power_marks_backward_walk_exit_2(tmp_path, capsys):
    """The 64-cycle of test_corrupt_power_marks_exit_2 with marks stored as
    1..16: the walk for k = -3 runs back from 20 through 19, 18 and 17 and
    meets no mark within the step bound either, so it must not answer."""
    src = tmp_path / "cycle.txt"
    src.write_text(" ".join(map(str, [*range(2, 65), 1])))
    out_path = tmp_path / "cycle.apds"
    run_cli(capsys, "build", "--type", "perm", "--format", "ints", "--input", str(src),
            "--output", str(out_path), "--power-step", "4")
    data = out_path.read_bytes()
    good = bytes([1, 16, *range(0, 64, 4)])
    assert data.count(good) == 1
    out_path.write_bytes(reseal(data.replace(good, bytes([1, 16, *range(16)]))))
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(out_path), "--op", "power", "--pos", "20", "--k", "-3"),
        "power companion")


def test_swapped_power_marks_exit_2(tmp_path, capsys):
    """The 64-cycle of test_corrupt_power_marks_exit_2 with its first two
    marks swapped (5, 1, 9, .., 61): distinct, in range and one per step,
    so the container loads, but the marks are not every fourth element of
    the cycle.  A power query verifies the companion first and refuses it."""
    src = tmp_path / "cycle.txt"
    src.write_text(" ".join(map(str, [*range(2, 65), 1])))
    out_path = tmp_path / "cycle.apds"
    run_cli(capsys, "build", "--type", "perm", "--format", "ints", "--input", str(src),
            "--output", str(out_path), "--power-step", "4")
    data = out_path.read_bytes()
    good = bytes([1, 16, *range(0, 64, 4)])
    assert data.count(good) == 1
    out_path.write_bytes(reseal(data.replace(good, bytes([1, 16, 4, 0, *range(8, 64, 4)]))))
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(out_path), "--op", "power", "--pos", "3", "--k", "2"),
        "power companion")
    assert run_cli(capsys, "query", "--structure", str(out_path), "--op", "apply",
                   "--pos", "3")[:2] == (0, "4\n")


def test_corrupt_perm_layout_bytes_exit_2(tmp_path, capsys):
    for argv in corrupt_perm_queries(tmp_path, capsys):
        assert_exit_2_without_traceback(run_cli_process(*argv), "layout tag")


def test_corrupt_containers_exit_2_under_optimize(tmp_path, capsys):
    # python -O strips assert statements: a check of loaded data written as
    # an assert would turn these into a hang or a wrong answer
    queries = [(argv, "layout tag") for argv in corrupt_perm_queries(tmp_path, capsys)]
    queries.append((corrupt_cycle_walk_query(tmp_path, capsys), "not a permutation"))
    for argv, message in queries:
        assert_exit_2_without_traceback(
            run_cli_process(*argv, python_flags=("-O",), timeout=30), message)


def test_selfcheck_injected_bitvector_fault_fails(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--seed", "3", "--iters", "2",
                           "--max-n", "32", "--inject-fault", "bitvectors")
    assert code == 1
    assert "bitvectors: FAIL" in out


@pytest.mark.parametrize("argv", [
    ["selfcheck", "--iters", "1", "--max-n", "1"],
    ["selfcheck", "--iters", "-3"],
    ["selfcheck", "--iters", "0"],
    ["build", "--type", "perm", "--format", "ints", "--input", "{perm}",
     "--output", "{out}", "--power-step", "0"],
    ["build", "--type", "perm", "--format", "ints", "--input", "{perm}",
     "--output", "{out}", "--power-step", "-3"],
    ["build", "--type", "index", "--input", "{text}", "--output", "{out}",
     "--sample-rate", "0"],
    ["index", "build", "--input", "{text}", "--output", "{out}", "--sample-rate", "-5"],
    ["build", "--type", "index", "--input", "{text}", "--output", "{out}", "--k", "-1"],
    # flags that do not apply to the type
    ["build", "--type", "seq", "--input", "{text}", "--output", "{out}",
     "--power-step", "0", "--sample-rate", "-4"],
    ["build", "--type", "seq", "--input", "{text}", "--output", "{out}", "--k", "0"],
    ["build", "--type", "index", "--input", "{text}", "--output", "{out}",
     "--runs-kind", "contiguous-strict"],
    ["build", "--type", "func", "--input", "{text}", "--output", "{out}", "--sample-rate", "4"],
    ["build", "--type", "perm", "--format", "ints", "--input", "{perm}",
     "--output", "{out}", "--mode", "direct"],
], ids=["selfcheck-max-n-1", "selfcheck-iters-negative", "selfcheck-iters-0",
        "perm-power-step-0", "perm-power-step-negative", "index-sample-rate-0",
        "index-alias-sample-rate-negative", "index-k-negative", "seq-perm-and-index-flags",
        "seq-k", "index-runs-kind", "func-sample-rate", "perm-mode"])
def test_bad_flag_values_exit_2(abra_file, tmp_path, capsys, argv):
    perm = tmp_path / "perm.txt"
    perm.write_text("3 1 4 2")
    out_path = tmp_path / "x.apds"
    files = {"perm": str(perm), "text": abra_file, "out": str(out_path)}
    code, out, err = run_cli(capsys, *(a.format(**files) for a in argv))
    assert code == 2
    assert err.startswith("error:") and "pass" not in out
    assert not out_path.exists()
