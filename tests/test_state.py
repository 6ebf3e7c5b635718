"""Build ends where load ends: a built structure and its loaded copy hold
the same state, attribute for attribute."""

import gc
import importlib
import importlib.util
import pathlib
import tracemalloc

import numpy as np
import pytest

from apds.apseq import ApSequence, build_partition
from apds.cfunction import MODES, build_function
from apds.container import dump_structure, load_structure
from apds.chunkseq import LargeSequence
from apds.permutation import KINDS, RunPermutation, build_run_permutation
from apds.textindex import FmIndex

ROOT = pathlib.Path(__file__).resolve().parent.parent


def state_differences(built, loaded, path="") -> list:
    """Where two object trees differ in attribute names, types, None-ness
    or values, walking apds objects, lists and tuples."""
    if type(built) is not type(loaded):
        return [f"{path}: {type(built).__name__} against {type(loaded).__name__}"]
    if isinstance(built, (list, tuple)):
        if len(built) != len(loaded):
            return [f"{path}: {len(built)} items against {len(loaded)}"]
        return [d for i, (x, y) in enumerate(zip(built, loaded))
                for d in state_differences(x, y, f"{path}[{i}]")]
    if isinstance(built, (np.ndarray, memoryview)):
        same = np.array_equal(np.asarray(built), np.asarray(loaded))
        return [] if same else [f"{path}: values differ"]
    if not type(built).__module__.startswith("apds"):
        return [] if built == loaded else [f"{path}: {built!r} against {loaded!r}"]
    a, b = vars(built), vars(loaded)
    out = [f"{path}: only built {sorted(a.keys() - b.keys())}, "
           f"only loaded {sorted(b.keys() - a.keys())}"] if a.keys() != b.keys() else []
    for name in sorted(a.keys() & b.keys()):
        x, y = a[name], b[name]
        if (x is None) != (y is None):
            out.append(f"{path}.{name}: None on one side only")
        elif x is not None:
            out += state_differences(x, y, f"{path}.{name}")
    return out


def _cases():
    rng = np.random.default_rng(11)
    seq = rng.zipf(1.3, 3000) % 200 + 1
    yield "seq general", lambda: build_partition(seq * 1009, general_alphabet=True)
    yield "seq dense", lambda: build_partition(np.concatenate([np.arange(1, 201), seq]))
    pi = rng.permutation(1500) + 1
    for kind in KINDS:
        for step in (None, 5):
            yield f"perm {kind} step={step}", (
                lambda kind=kind, step=step: build_run_permutation(pi, kind, power_step=step))
    f = rng.integers(1, 30, 1200) * 7
    for mode in MODES:
        yield f"func {mode}", lambda mode=mode: build_function(f, mode=mode, remap=True)
    text = bytes(rng.integers(97, 105, 2500).tolist())
    for k in (0, 1):
        yield f"index k={k}", lambda k=k: FmIndex(text, k_context=k)


def _first_walk(obj) -> list:
    """Run each walk that derives state on first use: an index's extract
    (its inverse samples), a permutation's power and a select of every
    symbol of a sequence's permutation classes (their cycle indexes' walk
    index).  Each derived attribute is None before its walk and set after;
    returns the walks' answers."""
    if isinstance(obj, FmIndex):
        lazy = [(obj, "_isa", lambda: obj.extract(1, 2))]
    elif isinstance(obj, RunPermutation) and obj.companion is not None:
        lazy = [(obj.companion, "_walk", lambda: obj.power(1, 3))]
    else:
        lazy = [(s._cycles, "_walk", lambda s=s: [s.select(a, 1) for a in range(1, s.sigma + 1)])
                for s in getattr(obj, "subs", []) if isinstance(s, LargeSequence)]
    answers = []
    for holder, attr, walk in lazy:
        assert getattr(holder, attr) is None
        answers.append(walk())
        assert getattr(holder, attr) is not None
    return answers


@pytest.mark.parametrize("name,build", list(_cases()), ids=[c[0] for c in _cases()])
def test_built_state_equals_loaded_state(name, build):
    """An index derives its inverse samples on the first extract, and a
    cycle index its walk index on the first walk, so the two copies are
    compared again after one."""
    obj = build()
    loaded = load_structure(dump_structure(obj))[0]
    assert state_differences(obj, loaded) == []
    walks = int(name == "seq general" or name.endswith("step=5") or name.startswith("index"))
    answers = _first_walk(obj)
    assert len(answers) == walks and _first_walk(loaded) == answers
    assert state_differences(obj, loaded) == []


def test_built_sequence_holds_no_more_than_loaded():
    # a seq-zipf-shaped input: Zipf theta = 1, sigma = 2**16, n = 2**20
    rng = np.random.default_rng(1)
    n, sigma = 1 << 20, 1 << 16
    alphabet = np.sort(rng.choice(1 << 31, size=sigma, replace=False)) + 1
    weights = 1.0 / np.arange(1, sigma + 1)
    seq = alphabet[rng.choice(sigma, size=n, p=weights / weights.sum())]
    # first-use allocations of build and load
    ApSequence.deserialize(build_partition(seq[:5000], general_alphabet=True).serialize())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        aps = build_partition(seq, general_alphabet=True)
        gc.collect()
        built = tracemalloc.get_traced_memory()[0] - before
        data = aps.serialize()
        before = tracemalloc.get_traced_memory()[0]
        loaded_obj = ApSequence.deserialize(data)
        gc.collect()
        loaded = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert loaded_obj.n == n
    assert built <= 1.2 * loaded, (built, loaded)
    assert loaded <= 3.5 * len(data), (loaded, len(data))


def test_bench_tracer_targets_exist():
    """Every entry point the benchmark's tracer wraps is still there."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, owner_name, names, _layer in tracer._TARGETS:
        mod = importlib.import_module(modname)
        owner = mod if owner_name is None else getattr(mod, owner_name)
        for name in names:
            assert name in owner.__dict__, f"{modname}.{owner_name or ''}.{name}"
    # the container keeps its loaders by value; the tracer looks each up by name
    for method in importlib.import_module("apds.container")._DESERIALIZERS.values():
        assert method.__name__ in method.__self__.__dict__
