import numpy as np
import pytest

from apds.apseq import ApSequence
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

def test_suffix_array_matches_sorted_suffixes():
    rng = np.random.default_rng(1)
    for n in (1, 2, 10, 100):
        t = np.append(rng.integers(2, 6, size=n - 1), 1) if n > 1 else np.array([1])
        sa = suffix_array(t)
        suffixes = sorted(range(1, n + 1), key=lambda i: t[i - 1 :].tolist())
        assert sa.tolist() == suffixes


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
def test_fm_random_texts_match_naive(k_context):
    rng = np.random.default_rng(29 + k_context)
    for trial in range(6):
        n = int(rng.integers(2, 400))
        sigma = int(rng.integers(2, 20))
        text = rng.integers(1, sigma + 1, size=n).tolist()
        fm = FmIndex(text, k_context=k_context)
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


@pytest.mark.parametrize("sample_rate", [1, 2, 3, 4, 5])
def test_fm_extract_every_range(sample_rate):
    """The inverse sample of an extract is found by arithmetic; n = 40 makes
    the last sample regular at rates 1, 2, 4, 5 and extra at rate 3."""
    text = natural_text(40)
    fm = FmIndex(text, sample_rate=sample_rate)
    back = FmIndex.deserialize(fm.serialize())
    for l in range(1, 41):
        for r in range(l, 41):
            want = text[l - 1 : r]
            assert fm.extract_bytes(l, r) == want
            assert back.extract_bytes(l, r) == want


# --- work per LF step -------------------------------------------------------------

SEQUENCE_WALKS = [(cls, ("access", "access_rank", "rank", "select"))
                  for cls in (PolySequence, LargeSequence)]


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
    an LF step is one ApSequence.access_rank: three sequence walks."""
    text = natural_text(20000)
    fm = FmIndex(text, sample_rate=sample_rate)
    rate = fm.sample_rate
    lf_steps = count_calls(monkeypatch, [(ApSequence, ("access_rank",))])
    walks = count_calls(monkeypatch, SEQUENCE_WALKS)
    per_row = []  # (LF steps, sequence walks) per located row
    suffix_position = FmIndex._suffix_position

    def counted_row(self, r):
        before = lf_steps[0], walks[0]
        pos = suffix_position(self, r)
        per_row.append((lf_steps[0] - before[0], walks[0] - before[1]))
        return pos

    monkeypatch.setattr(FmIndex, "_suffix_position", counted_row)
    for pat in (b"river", b" and ", b"winter", b"coins"):
        assert fm.locate(pat) == naive_locate(list(text), list(pat))
    steps = [s for s, _ in per_row]
    assert len(steps) > 100 and sum(steps) > 0
    assert max(steps) <= rate - 1
    assert sum(steps) / len(steps) < rate
    assert all(w == 3 * s for s, w in per_row)


def test_extract_walks_three_sequences_per_char(monkeypatch):
    fm = FmIndex(natural_text(5000))
    lf_steps = count_calls(monkeypatch, [(ApSequence, ("access_rank",))])
    walks = count_calls(monkeypatch, SEQUENCE_WALKS)
    assert fm.extract_bytes(100, 199) == natural_text(5000)[99:199]
    # one LF step per char from the next sampled position down to l
    assert 100 <= lf_steps[0] <= 100 + fm.sample_rate
    assert walks[0] == 3 * lf_steps[0]
