"""A loaded container of each benchmark shape holds no more memory than it
did when its bound was set: at most 1.1 times the loaded bytes per
serialized byte measured then.  The seq-zipf shape is bounded in
test_state.py."""

import gc
import importlib.util
import pathlib
import sys
import tracemalloc

import pytest

from apds.container import dump_structure, load_structure

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# loaded tracemalloc bytes / container bytes, seed 1
RATIOS = {
    "fm-text": {"index": 1.53},  # 1,421,893 / 928,273 B
    "perm-func": {
        "interleaved-general": 5.58,
        "interleaved-strict": 6.40,
        "contiguous-general": 9.04,
        "contiguous-strict": 18.57,
        "runs-interleaved": 5.27,
        "runs-contiguous": 12.57,
    },
    "dsu-stream": {"ids-initial": 16.02},  # 361,915 / 22,591 B
}
# the final ids of a dsu stream serialize to 240 B, so they get a bound in bytes
FINAL_IDS_LOADED = 24_951


def bench_workloads():
    """bench/workloads.py, read as it is: it imports its neighbours by name."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(BENCH))
    return mod


def seed_1_containers(name: str) -> dict:
    wl = next(cls for cls in vars(bench_workloads()).values()
              if getattr(cls, "name", None) == name)(1)
    s = wl.build()
    if name == "dsu-stream":  # the final ids are those after one stream
        wl.new_pass(s)
        for _, fn, args in wl.pass_ops(s):
            fn(*args)
    return {label: dump_structure(obj, fmt) for label, obj, _, fmt in wl.containers(s)}


def loaded_bytes(blob: bytes) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = load_structure(blob)[0]  # alive while it is measured
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(RATIOS))
def test_loaded_bench_containers_stay_within_their_ratios(name):
    blobs = seed_1_containers(name)
    load_structure(next(iter(blobs.values())))  # first-use allocations of load
    loaded = {label: loaded_bytes(blob) for label, blob in blobs.items()}
    over = {label: (loaded[label], len(blobs[label]), ratio)
            for label, ratio in RATIOS[name].items()
            if loaded[label] > 1.10 * ratio * len(blobs[label])}
    assert over == {}
    if name == "dsu-stream":
        assert loaded["ids-final"] <= 1.10 * FINAL_IDS_LOADED, loaded["ids-final"]
