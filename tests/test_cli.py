import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from apds.apseq import ApSequence
from apds.bitvec import SparseDictionary, bitvector
from apds.chunkseq import LargeSequence
from apds.cli import main
from apds.container import dump_structure
from test_apseq import large_class_input
from test_bitvec import swap_sparse_lows
from test_cfunction import extra_unit_function
from test_chunkseq import corrupt_cycle_walk


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


def run_cli_process(*argv, python_flags=(), timeout=60):
    """Run the CLI in a fresh interpreter, so a traceback would show."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *python_flags, "-m", "apds.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def assert_exit_2_without_traceback(proc):
    assert proc.returncode == 2
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


def test_truncated_payload_exit_2_without_traceback(abra_file, tmp_path, capsys):
    out_path = tmp_path / "abra.apds"
    run_cli(capsys, "build", "--type", "seq", "--input", abra_file,
            "--output", str(out_path))
    data = out_path.read_bytes()
    # one section: its payload starts at byte 23, its length is at byte 15
    payload = data[23:]
    cut = payload[: len(payload) // 2]
    out_path.write_bytes(data[:15] + struct.pack("<Q", len(cut)) + cut)
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(out_path), "--op", "access", "--pos", "1"))


def test_truncated_header_exit_2_without_traceback(abra_file, tmp_path, capsys):
    out_path = tmp_path / "abra.apds"
    run_cli(capsys, "build", "--type", "seq", "--input", abra_file,
            "--output", str(out_path))
    data = out_path.read_bytes()
    # 9 bytes: magic, version 7, then the header stops; 20 bytes: the
    # header and 6 of the 9 bytes of the first section-table entry
    for cut in (b"APDS\x07\x00\x00\x00\x01", data[:20]):
        out_path.write_bytes(cut)
        assert_exit_2_without_traceback(run_cli_process(
            "query", "--structure", str(out_path), "--op", "access", "--pos", "1"))


def test_bad_container_kind_exit_2_without_traceback(abra_file, tmp_path, capsys):
    """A version-4, a version-5 and a version-6 file, a header with no
    section, a seq header over an index payload, and an unknown container
    kind (byte 8)."""
    seq_path, index_path = tmp_path / "abra.apds", tmp_path / "abra.idx"
    run_cli(capsys, "build", "--type", "seq", "--input", abra_file,
            "--output", str(seq_path))
    run_cli(capsys, "index", "build", "--input", abra_file, "--output", str(index_path))
    seq, index = seq_path.read_bytes(), index_path.read_bytes()
    assert seq[4:9] == b"\x07\x00\x00\x00\x01" and index[8] == 4
    bad = [seq[:4] + b"\x04" + seq[5:], seq[:4] + b"\x05" + seq[5:],
           seq[:4] + b"\x06" + seq[5:],
           seq[:10] + b"\x00\x00\x00\x00",
           index[:8] + b"\x01" + index[9:], seq[:8] + b"\x09" + seq[9:]]
    for i, data in enumerate(bad):
        path = tmp_path / f"bad{i}.apds"
        path.write_bytes(data)
        assert_exit_2_without_traceback(run_cli_process(
            "query", "--structure", str(path), "--op", "access", "--pos", "1"))


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
    out_path.write_bytes(data.replace(good, swap_sparse_lows(good, 0, 1)))
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(out_path), "--op", "access", "--pos", "1"))


def test_corrupt_chunk_histogram_exit_2(tmp_path):
    """A sequence whose first large class store has one unit too many in
    its histogram."""
    aps = ApSequence(large_class_input())
    ls = next(s for s in aps.subs if isinstance(s, LargeSequence))
    ls._hist = bitvector(np.append(ls._hist.to_bits(), 0))
    path = tmp_path / "seq.apds"
    path.write_bytes(dump_structure(aps))
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(path), "--op", "access", "--pos", "1"))


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
    layout tag (byte 23) of 9."""
    src = tmp_path / "perm.txt"
    src.write_text("1 2 3 7 6 5 4 8 9")
    out_path = tmp_path / "perm.apds"
    run_cli(capsys, "build", "--type", "perm", "--format", "ints", "--input", str(src),
            "--output", str(out_path), "--runs-kind", "contiguous-strict")
    data = out_path.read_bytes()
    assert data[23] == 4
    bad = tmp_path / "perm-23.apds"
    bad.write_bytes(data[:23] + bytes([9]) + data[24:])
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
    out_path.write_bytes(data.replace(good, bad))
    return ("query", "--structure", str(out_path), "--op", "select",
            "--symbol", "300", "--rank", "1")


@pytest.mark.parametrize("stored", [[1] * 16, list(range(1, 17))])
def test_corrupt_power_marks_exit_2(tmp_path, capsys, stored):
    """A 64-cycle with power step 4 stores the marks 1, 5, .., 61.  Marks
    stored as sixteen 1s are refused on load; marks 1..16 load, and the
    walk from 20 meets no mark within the step bound."""
    src = tmp_path / "cycle.txt"
    src.write_text(" ".join(map(str, [*range(2, 65), 1])))
    out_path = tmp_path / "cycle.apds"
    run_cli(capsys, "build", "--type", "perm", "--format", "ints", "--input", str(src),
            "--output", str(out_path), "--power-step", "4")
    data = out_path.read_bytes()
    # the marks are an ints field stored less one: width 1, count 16
    good = bytes([1, 16, *range(0, 64, 4)])
    assert data.count(good) == 1
    out_path.write_bytes(data.replace(good, bytes([1, 16, *(m - 1 for m in stored)])))
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(out_path), "--op", "power", "--pos", "20", "--k", "3"))


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
    out_path.write_bytes(data.replace(good, bytes([1, 16, *range(16)])))
    assert_exit_2_without_traceback(run_cli_process(
        "query", "--structure", str(out_path), "--op", "power", "--pos", "20", "--k", "-3"))


def test_corrupt_perm_layout_bytes_exit_2(tmp_path, capsys):
    for argv in corrupt_perm_queries(tmp_path, capsys):
        assert_exit_2_without_traceback(run_cli_process(*argv))


def test_corrupt_containers_exit_2_under_optimize(tmp_path, capsys):
    # python -O strips assert statements: a check of loaded data written as
    # an assert would turn these into a hang or a wrong answer
    queries = corrupt_perm_queries(tmp_path, capsys)
    queries.append(corrupt_cycle_walk_query(tmp_path, capsys))
    for argv in queries:
        assert_exit_2_without_traceback(
            run_cli_process(*argv, python_flags=("-O",), timeout=30))


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
