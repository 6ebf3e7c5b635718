import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apds.apseq import ApSequence
from apds.bits import ByteWriter, pack_fixed, unpack_fixed
from apds.bitvec import bitvector, counts_before
from apds.chunkseq import LargeSequence
from apds.errors import InputError, NotFoundError, OutOfRangeError
from apds.permutation import build_run_permutation
from apds.textindex import (
    BlockRelation,
    BlockStore,
    FmIndex,
    bwt_of,
    build_fm_index,
    suffix_array,
    text_symbols,
)
from apds.wavelet import PolySequence
from nl_corpus import natural_text
from test_apseq import zipf

ABRA = text_symbols("abracadabra")


def naive_count(text, pattern):
    n, m = len(text), len(pattern)
    if m == 0 or m > n:
        return 0
    return sum(1 for i in range(n - m + 1) if text[i : i + m] == pattern)

def naive_locate(text, pattern):
    n, m = len(text), len(pattern)
    return [i + 1 for i in range(n - m + 1) if text[i : i + m] == pattern]


# --- suffix array / BWT -------------------------------------------------------

def sorted_suffixes(t):
    return sorted(range(1, t.size + 1), key=lambda i: t[i - 1 :].tolist())


def test_suffix_array_matches_sorted_suffixes():
    rng = np.random.default_rng(1)
    for n in (1, 2, 10, 100):
        t = np.append(rng.integers(2, 6, size=n - 1), 1) if n > 1 else np.array([1])
        assert suffix_array(t).tolist() == sorted_suffixes(t)


@st.composite
def terminated_texts(draw):
    """A body over sigma symbols, random, one run or periodic, shifted so
    that base is below every symbol, then base as the terminator.  Bases of
    2^31 and 2^40 make symbols too wide to pack more than one per key."""
    sigma = draw(st.sampled_from([1, 2, 4, 203]))
    base = draw(st.sampled_from([0, 1, 2**31, 2**40]))
    size = draw(st.integers(0, 120))
    shape = draw(st.sampled_from(["random", "run", "periodic"]))
    symbol = st.integers(1, sigma)
    if shape == "random":
        body = draw(st.lists(symbol, min_size=size, max_size=size))
    elif shape == "run":
        body = [draw(symbol)] * size
    else:
        period = draw(st.lists(symbol, min_size=1, max_size=6))
        body = (period * size)[:size]
    return np.array(body + [0], dtype=np.int64) + base


@settings(max_examples=400)
@given(terminated_texts())
@example(np.array([1]))
@example(np.array([0]))
@example(np.array([2, 1]))
@example(np.array([2**31 + 5, 2**31]))
@example(np.array([3] * 200 + [1]))
def test_suffix_array_matches_sorted_suffixes_property(t):
    assert suffix_array(t).tolist() == sorted_suffixes(t)


@settings(max_examples=100)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=60))
def test_suffix_array_without_terminator_sorts_shorter_first(body):
    """Symbols >= 1 need no terminator: a suffix sorts before the longer
    ones it prefixes."""
    t = np.array(body, dtype=np.int64)
    assert suffix_array(t).tolist() == sorted_suffixes(t)


@pytest.mark.parametrize("t", [[-1, 0], [0, 0], [1, 0, 0]])
def test_suffix_array_refuses_negative_symbols_and_equal_suffixes(t):
    with pytest.raises(InputError):
        suffix_array(np.array(t))


def _suffix_array_by_lexsort(t):
    """Reference: prefix doubling from single symbols, a two-key lexsort
    over all n every round."""
    n = t.size
    rank = t.astype(np.int64)
    k = 1
    while True:
        key2 = np.zeros(n, dtype=np.int64)
        if k < n:
            key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        r1, r2 = rank[order], key2[order]
        bump = np.empty(n, dtype=np.int64)
        bump[0] = 1
        if n > 1:
            bump[1:] = ((r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])).astype(np.int64)
        fresh = np.cumsum(bump)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = fresh
        if fresh[-1] == n:
            break
        k *= 2
    sa = np.empty(n, dtype=np.int64)
    sa[rank - 1] = np.arange(1, n + 1)
    return sa


def _english_like_text(size):
    """The benchmark's fm-text generator (bench/inputs.py), seed 1."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.english_like_text(np.random.default_rng(1), size)


@pytest.mark.parametrize("make", [lambda: natural_text(1 << 16),
                                  lambda: _english_like_text(1 << 18)],
                         ids=["natural-64k", "english-like-256k"])
def test_suffix_array_matches_lexsort_reference(make):
    text = np.frombuffer(make(), dtype=np.uint8).astype(np.int64)
    _, dense = np.unique(text, return_inverse=True)
    t = np.append(dense + 2, 1)  # as FmIndex builds it: 1 = terminator
    assert np.array_equal(suffix_array(t), _suffix_array_by_lexsort(t))


def test_bwt_abracadabra():
    t = np.array([v + 1 for v in ABRA] + [1])  # shift, terminator = 1
    sa = suffix_array(t)
    bwt = bwt_of(t, sa)
    expect = "ard$rcaaaabb"
    got = "".join("$" if c == 1 else chr(c - 2) for c in bwt)
    assert got == expect


def test_fm_bwt_string():
    fm = build_fm_index("abracadabra")
    assert fm.bwt_string() == "ard$rcaaaabb"
    fm1 = build_fm_index("a")
    assert fm1.bwt_string() == "a$"


# --- BlockStore ----------------------------------------------------------------

def test_bs_access_examples():
    bs = BlockStore(ABRA, block_len=2)
    assert chr(bs.access(7) - 1) == "d"
    assert chr(bs.access(11) - 1) == "a"
    assert BlockStore([5], block_len=1).access(1) == 5
    with pytest.raises(OutOfRangeError):
        bs.access(12)


def test_bs_rank_examples():
    bs = BlockStore(ABRA, block_len=2)
    rel = BlockRelation(bs)
    a = ord("a") + 1
    assert rel.rank(a, 7) == 3
    assert rel.rank(a, 0) == 0
    assert rel.rank(ord("c") + 1, 11) == 1


def test_bs_select_examples():
    bs = BlockStore(ABRA, block_len=2)
    rel = BlockRelation(bs)
    assert rel.select(ord("a") + 1, 4) == 8
    assert rel.select(ord("c") + 1, 1) == 5
    with pytest.raises(NotFoundError):
        rel.select(ord("c") + 1, 2)


def test_relation_invariants():
    rng = np.random.default_rng(3)
    for n, sigma, b in ((50, 6, 2), (101, 10, 3), (256, 17, 4)):
        seq = rng.integers(1, sigma + 1, size=n).tolist()
        bs = BlockStore(seq, block_len=b)
        rel = BlockRelation(bs)
        rel.check_invariants()


def test_relation_invariants_raise_under_optimize():
    # python -O strips assert statements, so the checks must be raises
    script = (
        "from apds.textindex import BlockRelation, BlockStore, text_symbols\n"
        "rel = BlockRelation(BlockStore(text_symbols('abracadabra'), block_len=2))\n"
        "rel.check_invariants()\n"
        "rel.c_ones[2] += 1\n"
        "try:\n"
        "    rel.check_invariants()\n"
        "except AssertionError:\n"
        "    print('raised')\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


def test_relation_builds_in_linear_memory():
    # 2**15 byte values at block length 1 (the default for 1 MiB of them): a
    # blocks x sigma count matrix alone would take 64 MB
    seq = np.random.default_rng(7).integers(1, 257, size=1 << 15)
    bs = BlockStore(seq, block_len=1, alphabet_size=256)
    tracemalloc.start()
    try:
        rel = BlockRelation(bs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, peak
    # the same pairs, counts and totals as read from the count matrix
    counts = bs.block_counts()
    sym, blk = np.nonzero(counts.T)
    assert rel.c_pairs.tolist() == [0, *np.cumsum(np.bincount(sym, minlength=256))]
    assert rel.c_ones.tolist() == [0, *np.cumsum(counts.sum(axis=0))]
    assert np.diff(counts_before(rel.P)).tolist() == counts[blk, sym].tolist()
    rel.check_invariants()


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_block_oracle_equivalence(b):
    rng = np.random.default_rng(b * 11)
    n, sigma = 200, 12
    seq = rng.integers(1, sigma + 1, size=n).tolist()
    bs = BlockStore(seq, block_len=b)
    rel = BlockRelation(bs)
    for i in range(1, n + 1):
        assert bs.access(i) == seq[i - 1]
    for a in range(1, sigma + 1):
        occ = seq.count(a)
        for i in range(0, n + 1, 3):
            assert rel.rank(a, i) == sum(1 for x in seq[:i] if x == a)
        for j in range(1, occ + 1):
            seen = 0
            for pos, x in enumerate(seq, 1):
                if x == a:
                    seen += 1
                    if seen == j:
                        assert rel.select(a, j) == pos
                        break


@pytest.mark.parametrize("n,sigma,b", [(1, 3, 4), (103, 4, 3), (256, 3, 2), (90, 40, 1)])
def test_block_ids_and_counts_match_a_row_by_row_reference(n, sigma, b):
    seq = np.random.default_rng(n + b).integers(1, sigma + 1, size=n).tolist()
    padded = seq + [1] * (-n % b)
    number, contents, ids, counts = {}, [], [], []
    for j in range(0, len(padded), b):
        row = tuple(padded[j : j + b])
        if row not in number:
            number[row] = len(number) + 1
            contents.append(row)
        ids.append(number[row])
        counts.append(np.bincount(np.array(seq[j : j + b]) - 1, minlength=sigma))
    bs = BlockStore(seq, block_len=b, alphabet_size=sigma)
    assert bs.contents.tolist() == [list(row) for row in contents]
    assert bs.sprime.decode().tolist() == ids
    assert bs.block_counts().tolist() == np.array(counts).tolist()


def test_block_store_default_length_and_serialize():
    seq = list(np.random.default_rng(5).integers(1, 5, size=300))
    bs = BlockStore(seq)
    assert bs.block_len >= 1
    back = BlockStore.deserialize(bs.serialize())
    assert back.serialize() == bs.serialize()
    assert [back.access(i) for i in (1, 5, 300)] == [bs.access(i) for i in (1, 5, 300)]


# --- FmIndex ----------------------------------------------------------------------

def test_fm_count_examples():
    fm = build_fm_index("abracadabra")
    assert fm.count("abra") == 2
    assert fm.count("zzz") == 0
    with pytest.raises(InputError):
        fm.count("")


def test_fm_absent_and_out_of_universe_symbols():
    """Pattern symbols map through the sorted alphabet values: a value below,
    between or above the text's values, or outside [1..universe], matches
    nothing, after build and after load."""
    fm = build_fm_index([3, 5, 9, 5, 3])
    for idx in (fm, FmIndex.deserialize(fm.serialize())):
        assert idx.alphabet.values().tolist() == [3, 5, 9]
        assert idx.count([5, 9]) == 1 and idx.count([3]) == 2
        for pat in ([1], [4], [10], [0], [-1], [2**40], [5, 4], [9, 2**40]):
            assert idx._pattern_internal(pat) is None
            assert idx.count(pat) == 0 and idx.locate(pat) == []
        assert idx.extract(1, 5) == [3, 5, 9, 5, 3]


def test_fm_locate_examples():
    fm = build_fm_index("abracadabra")
    assert fm.locate("abra") == [1, 8]
    assert fm.locate("d") == [7]
    assert fm.locate("zq") == []


def test_fm_extract_examples():
    fm = build_fm_index("abracadabra")
    assert fm.extract_bytes(4, 6) == b"aca"
    assert fm.extract_bytes(1, 1) == b"a"
    assert fm.extract_bytes(1, 11) == b"abracadabra"
    with pytest.raises(OutOfRangeError):
        fm.extract(0, 3)
    with pytest.raises(OutOfRangeError):
        fm.extract(5, 12)


@pytest.mark.parametrize("k_context", [0, 1, 2])
def test_fm_random_texts_match_naive(monkeypatch, k_context):
    """Six uniform texts, then three Zipf-skewed ones, which make
    one-symbol classes.  The ranks of a backward step whose rows straddle
    two parts (every first step at k > 0) take _bwt_rank; at k = 0 no
    step does."""
    rng = np.random.default_rng(29 + k_context)
    straddles = count_calls(monkeypatch, [(FmIndex, ("_bwt_rank",))])
    one_symbol_classes = 0
    for trial in range(9):
        n = int(rng.integers(2, 400))
        sigma = int(rng.integers(2, 20))
        if trial < 6:
            text = rng.integers(1, sigma + 1, size=n).tolist()
        else:
            text = zipf(rng, n, min(sigma, n), 1.5).tolist()
        fm = FmIndex(text, k_context=k_context)
        one_symbol_classes += sum(int((p.partition.sub_sigma == 1).sum()) for p in fm.parts)
        for _ in range(60):
            m = int(rng.integers(1, 9))
            if rng.random() < 0.7 and m <= n:
                start = int(rng.integers(0, n - m + 1))
                pat = text[start : start + m]
            else:
                pat = rng.integers(1, sigma + 2, size=m).tolist()
            assert fm.count(pat) == naive_count(text, pat)
            assert fm.locate(pat) == naive_locate(text, pat)
        for _ in range(20):
            l = int(rng.integers(1, n + 1))
            r = int(rng.integers(l, n + 1))
            assert fm.extract(l, r) == text[l - 1 : r]
    assert one_symbol_classes > 0
    assert (straddles[0] > 0) == (k_context > 0)


def test_fm_sample_rates():
    text = natural_text(5000)
    for rs in (1, 4, 64):
        fm = FmIndex(text, sample_rate=rs)
        assert fm.count(b"the") == naive_count(list(text), list(b"the"))
        assert fm.locate(b" and ")[:3] == naive_locate(list(text), list(b" and "))[:3]


def test_fm_natural_language():
    text = natural_text(20000)
    fm = FmIndex(text)
    lst = list(text)
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = int(rng.integers(1, 9))
        start = int(rng.integers(0, len(text) - m))
        pat = text[start : start + m]  # bytes, same shift as the index
        assert fm.count(pat) == naive_count(lst, list(pat))
        assert fm.locate(pat) == naive_locate(lst, list(pat))


def test_lf_mapping_is_permutation():
    fm = build_fm_index("mississippi")
    lf = fm.lf_mapping()
    # build_run_permutation validates bijectivity on construction
    rp = build_run_permutation(lf.tolist(), "interleaved-general")
    assert rp.n == 12


def test_fm_single_char_text():
    fm = build_fm_index("a")
    assert fm.count("a") == 1
    assert fm.locate("a") == [1]
    assert fm.extract_bytes(1, 1) == b"a"


def test_fm_serialize_round_trip():
    text = natural_text(3000)
    for k in (0, 1):
        fm = FmIndex(text, k_context=k)
        data = fm.serialize()
        back = FmIndex.deserialize(data)
        assert back.serialize() == data
        for name in ("part_starts", "part_cum", "C"):
            assert np.array_equal(getattr(back, name), getattr(fm, name)), name
        assert back.count(b"the") == fm.count(b"the")
        assert back.locate(b"win") == fm.locate(b"win")
        assert back.extract_bytes(10, 60) == fm.extract_bytes(10, 60)


@pytest.mark.parametrize("k", [0, 2])
def test_fm_same_index_from_bytes_str_and_symbol_list(k):
    text = natural_text(3000).decode() + " na\u00efve caf\u00e9 \u2014 \u00fcber"
    data = text.encode("utf-8")
    forms = [data, bytearray(data), text, [b + 1 for b in data]]
    blobs = [FmIndex(form, k_context=k).serialize() for form in forms]
    assert all(blob == blobs[0] for blob in blobs[1:])


def naive_context_starts(text, k):
    """First row of each k-context part, cutting BWT rows one by one where a
    suffix's first k symbols differ from the row above's."""
    syms = text_symbols(text)
    rank = {v: i + 2 for i, v in enumerate(sorted(set(syms)))}
    t = np.array([rank[v] for v in syms] + [1], dtype=np.int64)
    keys = [tuple(t[p - 1 : p - 1 + k].tolist()) for p in suffix_array(t).tolist()]
    return [1] + [r + 1 for r in range(1, len(keys)) if keys[r] != keys[r - 1]]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fm_context_parts_match_naive_cut(k):
    rng = np.random.default_rng(41 + k)
    texts = [b"a", b"ab", b"aaaa", b"abracadabra", natural_text(2000),
             bytes(rng.integers(97, 100, 500).tolist())]
    for text in texts:
        fm = FmIndex(text, k_context=k)
        assert fm.part_starts == naive_context_starts(text, k), text[:20]


def fm_payload(fm, parts=None, sa_samples=None) -> bytes:
    """An index payload written field by field, with its parts or its
    packed SA samples replaced where given."""
    parts = fm.parts if parts is None else parts
    w = ByteWriter()
    w.uint(fm.k_context)
    w.uint(fm.sample_rate)
    w.blob(fm.alphabet.serialize())
    w.uint(len(parts))
    for p in parts:
        w.blob(p.serialize())
    w.blob(fm.sa_marked.serialize())
    w.ints(fm.sa_samples if sa_samples is None else sa_samples)
    return w.getvalue()


def test_fm_load_refuses_parts_without_text():
    """n is the parts' row count less one: an index with no part, or with
    one row only, is refused, as a header n of 0 was."""
    fm = FmIndex(b"ab")
    assert FmIndex.deserialize(fm_payload(fm)).extract_bytes(1, 2) == b"ab"
    for parts in ([], [ApSequence([1])]):
        with pytest.raises(InputError):
            FmIndex.deserialize(fm_payload(fm, parts=parts))


def inverse_sample_rows(text, rate):
    """The 0-based row of each text position 1, 1 + rate, ... <= n + 1, and
    of position n + 1 when rate does not divide n, from suffixes sorted one
    by one (the terminator sorts first, as the empty suffix)."""
    n = len(text)
    order = sorted(range(n + 1), key=lambda i: text[i:])  # order[row] = position - 1
    row_of = {pos: row for row, pos in enumerate(order)}
    positions = list(range(0, n + 1, rate)) + ([n] if n % rate else [])
    return [row_of[p] for p in positions]


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("sample_rate", [1, 2, 3, 4, 5, None])
def test_fm_isa_rows_invert_the_suffix_array(k, sample_rate):
    """Over n = 40 and n = 500, rates 2, 4 and 5 divide both, rate 3
    divides neither, and the default rates, 4 and 6, divide 40 and not 500.
    The SA samples are stored at the bit length of n // rate, and built and
    loaded indexes derive the same rows on the first extract, none before."""
    divides = set()
    for text in (natural_text(40)[:40], natural_text(500)[:500]):
        fm = FmIndex(text, k_context=k, sample_rate=sample_rate)
        rate = fm.sample_rate
        divides.add(len(text) % rate == 0)
        assert fm._samp_width == max(1, (len(text) // rate).bit_length())
        back = FmIndex.deserialize(fm.serialize())
        want = inverse_sample_rows(text, rate)
        for idx in (fm, back):
            assert idx._isa is None
            assert idx.extract_bytes(1, len(text)) == text
            assert idx._isa.tolist() == want
    if sample_rate is None:
        assert divides == {True, False}


def sample_words(fm, values):
    """SA sample values packed at fm's field width."""
    return pack_fixed(np.asarray(values, dtype=np.uint64), fm._samp_width)


def test_fm_load_refuses_a_sample_word_count_other_than_exact():
    """k samples of w bits take exactly ceil(k w / 64) words."""
    fm = FmIndex(natural_text(3000))
    k, w = fm._sample_shape()
    assert fm.sa_samples.size == -(-k * w // 64)
    for words in (fm.sa_samples[:-1], np.append(fm.sa_samples, 0), np.zeros(0, np.uint64)):
        with pytest.raises(InputError, match="samples disagree"):
            FmIndex.deserialize(fm_payload(fm, sa_samples=words))


def test_fm_load_refuses_row_marks_other_than_k():
    fm = FmIndex(natural_text(3000))
    bits = fm.sa_marked.to_bits()
    bits[np.flatnonzero(bits == 0)[0]] = 1
    fm.sa_marked = bitvector(bits)
    with pytest.raises(InputError, match="samples disagree"):
        FmIndex.deserialize(fm_payload(fm))


def test_fm_derivation_refuses_samples_that_are_not_a_permutation():
    """Load trusts the sample values; the first extract unpacks them all and
    refuses a repeated sample, and a sample of k or more."""
    fm = FmIndex(natural_text(3000))
    k, w = fm._sample_shape()
    assert k < 1 << w
    samples = unpack_fixed(fm.sa_samples, w, k)
    repeated, too_large = samples.copy(), samples.copy()
    repeated[1] = repeated[0]
    too_large[np.argmax(samples)] = k
    for values in (repeated, too_large):
        back = FmIndex.deserialize(fm_payload(fm, sa_samples=sample_words(fm, values)))
        with pytest.raises(InputError, match="not a permutation"):
            back.extract(1, 10)
        with pytest.raises(InputError, match="not a permutation"):
            back.isa_rows


def all_ones_samples_index() -> tuple[bytes, FmIndex]:
    """A 780-char index whose every SA sample is all ones (2**w - 1), as a
    payload that loads: its word count is exact."""
    fm = FmIndex(b"abracadabra " * 65)
    k, w = fm._sample_shape()
    return fm_payload(fm, sa_samples=sample_words(fm, np.full(k, (1 << w) - 1))), fm


def test_fm_locate_refuses_a_sample_past_the_text():
    """All-ones samples place every located suffix past n = 780: locate
    ends in InputError, where it once answered 1024."""
    payload, fm = all_ones_samples_index()
    assert (fm.n, fm.sample_rate, fm._samp_width) == (780, 13, 6)
    back = FmIndex.deserialize(payload)
    assert back.count(b"abra") == 130
    with pytest.raises(InputError, match="past the text"):
        back.locate(b"abra")


@pytest.mark.parametrize("sample_rate", [1, 2, 3, 4, 5])
def test_fm_extract_every_range(sample_rate):
    """The inverse sample of an extract is found by arithmetic; n = 40 makes
    the last sample regular at rates 1, 2, 4, 5 and extra at rate 3."""
    text = natural_text(40)[:40]
    fm = FmIndex(text, sample_rate=sample_rate)
    back = FmIndex.deserialize(fm.serialize())
    for l in range(1, 41):
        for r in range(l, 41):
            want = text[l - 1 : r]
            assert fm.extract_bytes(l, r) == want
            assert back.extract_bytes(l, r) == want


# --- work per LF step -------------------------------------------------------------

SEQUENCE_WALKS = [(PolySequence, ("access", "access_rank", "rank", "rank_pair", "select")),
                  (LargeSequence, ("access", "access_rank", "rank", "select"))]


def class_size(aps, a):
    """The number of symbols in the class of aps's symbol a."""
    part = aps.partition
    return int(part.sub_sigma[part.symbol_class_dense[aps._internal_symbol(a) - 1] - 1])


def count_lf_steps(monkeypatch):
    """Wrap ApSequence.access_rank, the LF step; returns a two-item list:
    the LF steps, and those whose symbol's class has two or more symbols,
    the only steps that walk a class store after t."""
    count = [0, 0]
    access_rank = ApSequence.access_rank

    def counted(self, i):
        a, r = access_rank(self, i)
        count[0] += 1
        count[1] += class_size(self, a) > 1
        return a, r

    monkeypatch.setattr(ApSequence, "access_rank", counted)
    return count


def count_calls(monkeypatch, targets):
    """Wrap each (class, method names) pair so that calls made from outside
    every wrapped method are counted; returns a one-item list holding the
    count.  Over SEQUENCE_WALKS the count is the number of sequence walks."""
    count, depth = [0], [0]

    def wrap(method):
        def counted(*args, **kwargs):
            count[0] += depth[0] == 0
            depth[0] += 1
            try:
                return method(*args, **kwargs)
            finally:
                depth[0] -= 1
        return counted

    for cls, names in targets:
        for name in names:
            monkeypatch.setattr(cls, name, wrap(getattr(cls, name)))
    return count


@pytest.mark.parametrize("sample_rate", [None, 4])
def test_locate_lf_steps_below_sample_rate(monkeypatch, sample_rate):
    """Every located row reaches a sampled row within rate - 1 LF steps, and
    an LF step is one ApSequence.access_rank: one walk of t, and one of s_l
    when the symbol's class has two or more symbols, as the symbol map is
    read from arrays."""
    text = natural_text(20000)
    fm = FmIndex(text, sample_rate=sample_rate)
    rate = fm.sample_rate
    lf_steps = count_lf_steps(monkeypatch)
    walks = count_calls(monkeypatch, SEQUENCE_WALKS)
    per_row = []  # (LF steps, of them steps in a class of 2+ symbols, sequence walks)
    suffix_position = FmIndex._suffix_position

    def counted_row(self, r):
        before = *lf_steps, walks[0]
        pos = suffix_position(self, r)
        per_row.append((lf_steps[0] - before[0], lf_steps[1] - before[1], walks[0] - before[2]))
        return pos

    monkeypatch.setattr(FmIndex, "_suffix_position", counted_row)
    for pat in (b"river", b" and ", b"winter", b"coins"):
        assert fm.locate(pat) == naive_locate(list(text), list(pat))
    steps = [s for s, _, _ in per_row]
    assert len(steps) > 100 and sum(steps) > 0
    assert max(steps) <= rate - 1
    assert sum(steps) / len(steps) < rate
    assert 0 < sum(m for _, m, _ in per_row) < sum(steps)  # both kinds of step occur
    assert all(w == s + m for s, m, w in per_row)


def test_extract_walks_two_sequences_per_char(monkeypatch):
    fm = FmIndex(natural_text(5000))
    lf_steps = count_lf_steps(monkeypatch)
    walks = count_calls(monkeypatch, SEQUENCE_WALKS)
    assert fm.extract_bytes(100, 199) == natural_text(5000)[99:199]
    # one LF step per char from the next sampled position down to l
    assert 100 <= lf_steps[0] <= 100 + fm.sample_rate
    assert 0 < lf_steps[1] < lf_steps[0]
    assert walks[0] == lf_steps[0] + lf_steps[1]


def test_count_walks_once_per_one_symbol_step(monkeypatch):
    """At k = 0 rows sp - 1 and ep lie in the one part, so a backward step
    is one paired walk of t, then two ranks in s_l only when the symbol's
    class has two or more symbols: one walk per step in a one-symbol class."""
    text = natural_text(20000)
    fm = FmIndex(text)
    (part,) = fm.parts
    # every symbol of "river" has a class of its own: five steps, five walks
    assert {class_size(part, r + 1) for r in fm._pattern_internal(b"river")} == {1}
    walks = count_calls(monkeypatch, SEQUENCE_WALKS)
    for pat in (b"river", b" and ", b"winter", b"coins"):
        sizes = [class_size(part, r + 1) for r in fm._pattern_internal(pat)]
        before = walks[0]
        assert fm.count(pat) == naive_count(list(text), list(pat)) > 0
        assert walks[0] - before == sum(1 if s == 1 else 3 for s in sizes)
