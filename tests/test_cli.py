import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from apds.cli import main
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
    # 9 bytes: magic, version 3, then the header stops; 20 bytes: the
    # header and 6 of the 9 bytes of the first section-table entry
    for cut in (b"APDS\x03\x00\x00\x00\x01", data[:20]):
        out_path.write_bytes(cut)
        assert_exit_2_without_traceback(run_cli_process(
            "query", "--structure", str(out_path), "--op", "access", "--pos", "1"))


def test_bad_container_kind_exit_2_without_traceback(abra_file, tmp_path, capsys):
    """A version-2 file, a header with no section, a seq header over an
    index payload, and an unknown container kind (byte 8)."""
    seq_path, index_path = tmp_path / "abra.apds", tmp_path / "abra.idx"
    run_cli(capsys, "build", "--type", "seq", "--input", abra_file,
            "--output", str(seq_path))
    run_cli(capsys, "index", "build", "--input", abra_file, "--output", str(index_path))
    seq, index = seq_path.read_bytes(), index_path.read_bytes()
    assert seq[4:9] == b"\x03\x00\x00\x00\x01" and index[8] == 4
    bad = [seq[:4] + b"\x02" + seq[5:], seq[:10] + b"\x00\x00\x00\x00",
           index[:8] + b"\x01" + index[9:], seq[:8] + b"\x09" + seq[9:]]
    for i, data in enumerate(bad):
        path = tmp_path / f"bad{i}.apds"
        path.write_bytes(data)
        assert_exit_2_without_traceback(run_cli_process(
            "query", "--structure", str(path), "--op", "access", "--pos", "1"))


def test_int_token_above_int64_exit_2(tmp_path):
    src = tmp_path / "big.txt"
    src.write_text(f"1 2 {2**63}")
    assert_exit_2_without_traceback(run_cli_process(
        "build", "--type", "seq", "--format", "ints", "--input", str(src),
        "--output", str(tmp_path / "big.apds")))


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
