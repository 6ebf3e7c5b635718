"""Every structure takes its symbols through ``bits.symbol_array`` and its
integer parameters through ``bits.int_param``: malformed input ends in
InputError at every entry, and any integer form of the same symbols builds
the same structure."""

import numpy as np
import pytest

from apds.apseq import ApSequence, build_partition
from apds.bits import int_param, symbol_array
from apds.bitvec import SparseDictionary
from apds.cfunction import CompressedFunction
from apds.chunkseq import LargeSequence
from apds.dsets import DisjointSetCollection
from apds.errors import InputError
from apds.permutation import RunPermutation, decompose_runs
from apds.textindex import BlockStore, FmIndex, text_array
from apds.wavelet import PolySequence

ENTRIES = {
    "ApSequence": ApSequence,
    "build_partition": build_partition,
    "PolySequence": PolySequence,
    "LargeSequence": LargeSequence,
    "BlockStore": BlockStore,
    "FmIndex": FmIndex,
    "CompressedFunction": CompressedFunction,
    "RunPermutation.build": RunPermutation.build,
    "decompose_runs": lambda pi: decompose_runs(pi, "interleaved-general"),
    "SparseDictionary": SparseDictionary,
}

MALFORMED = {
    "empty": [],
    "2-D": [[1, 2], [2, 1]],
    "ragged": [[1, 2], [1]],
    "fractional floats": [1.5, 2.7, 1.2],
    "integral floats": [2.0, 1.0],
    "bools": [True, True],
    "strings": ["a", "b"],
    "numeric string": [1, "2"],
    "None": None,
    "2**63": [1, 2**63],
    "2**63 as uint64": np.array([1, 2**63], dtype=np.uint64),
    "0": [2, 0, 1],
    "-1": [2, -1, 1],
}

# entries that take a declared alphabet: symbol 3 lies above [1..2]
DECLARED = {
    "PolySequence": lambda s: PolySequence(s, alphabet_size=2),
    "LargeSequence": lambda s: LargeSequence(s, alphabet_size=2),
    "BlockStore": lambda s: BlockStore(s, alphabet_size=2),
    "SparseDictionary": lambda s: SparseDictionary(s, universe_max=2),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("entry", ENTRIES)
def test_malformed_symbols_are_input_errors(entry, case):
    with pytest.raises(InputError):
        ENTRIES[entry](MALFORMED[case])


@pytest.mark.parametrize("entry", DECLARED)
def test_symbol_above_declared_alphabet_is_input_error(entry):
    DECLARED[entry]([1, 2])
    with pytest.raises(InputError):
        DECLARED[entry]([1, 3, 2])


@pytest.mark.parametrize("text", [b"", "", bytearray()])
def test_empty_text_is_input_error(text):
    with pytest.raises(InputError, match="empty input"):
        FmIndex(text)


def test_int64_input_comes_back_as_itself():
    arr = np.array([3, 1, 2], dtype=np.int64)
    for check in (symbol_array, text_array):
        out = check(arr)
        assert out is arr and np.shares_memory(out, arr)
    assert symbol_array([3, 1, 2]).dtype == np.int64


def _forms(values):
    """The same symbols as a list, a tuple and int8 / uint16 / int32 arrays."""
    return [values.tolist(), tuple(values.tolist())] + [
        values.astype(dtype) for dtype in (np.int8, np.uint16, np.int32)]


def _function_values():
    return np.random.default_rng(3).integers(1, 9, size=120)


SERIALIZED = {
    "ApSequence": (lambda: np.random.default_rng(1).permutation(np.arange(300) % 100 + 1),
                   ApSequence),
    "PolySequence": (lambda: np.random.default_rng(2).integers(1, 6, size=200), PolySequence),
    "LargeSequence": (lambda: np.random.default_rng(2).permutation(100) + 1, LargeSequence),
    "FmIndex": (lambda: text_array(b"abracadabra alakazam"), FmIndex),
    "CompressedFunction direct": (_function_values, CompressedFunction),
    "CompressedFunction runs": (_function_values,
                                lambda f: CompressedFunction(f, mode="runs-interleaved")),
    "RunPermutation": (lambda: np.random.default_rng(4).permutation(100) + 1,
                       lambda pi: RunPermutation.build(pi, power_step=3)),
}


@pytest.mark.parametrize("entry", SERIALIZED)
def test_any_integer_form_builds_the_same_structure(entry):
    make, build = SERIALIZED[entry]
    values = make().astype(np.int64)
    want = build(values).serialize()
    for form in _forms(values):
        assert build(form).serialize() == want


BUILD_WITH = {
    "power_step": (lambda v: RunPermutation.build([3, 1, 4, 2], power_step=v), 1),
    "sample_rate": (lambda v: FmIndex(b"abracadabra", sample_rate=v), 1),
    "k_context": (lambda v: FmIndex(b"abracadabra", k_context=v), 0),
    "block_len": (lambda v: BlockStore([1, 2, 3, 1], block_len=v), 1),
    "DisjointSetCollection n": (DisjointSetCollection, 1),
}


@pytest.mark.parametrize("bad", [2.5, 2.0, "4", [2], "least - 1"])
@pytest.mark.parametrize("param", BUILD_WITH)
def test_integer_parameters_are_integers(param, bad):
    build, least = BUILD_WITH[param]
    build(np.int32(least + 1))  # any integer type is taken
    with pytest.raises(InputError):
        build(least - 1 if bad == "least - 1" else bad)


def test_int_param_returns_an_int():
    assert int_param(np.int64(3), "x") == 3 and type(int_param(np.int64(3), "x")) is int
    with pytest.raises(InputError, match="x must be >= 0"):
        int_param(-1, "x", least=0)
