"""Compressed rank/select sequences and the structures built on them."""

from .apseq import ApSequence, Partition, build_partition
from .bitvec import (
    PlainBitVector,
    SparseBitVector,
    SparseDictionary,
    bitvector,
    bitvector_from_positions,
)
from .cfunction import CompressedFunction, build_function
from .chunkseq import CycleIndex, LargeSequence
from .dsets import DisjointSetCollection
from .errors import (
    ApdsError,
    InputError,
    NotFoundError,
    OutOfRangeError,
    UnsupportedOperationError,
)
from .permutation import (
    PredecessorStructure,
    RunDecomposition,
    RunPermutation,
    build_run_permutation,
    decompose_runs,
)
from .stats import EntropyReport, h0, h_runs, h_sets, hk
from .textindex import BlockRelation, BlockStore, FmIndex, build_fm_index
from .wavelet import BalancedSequence, PolySequence

__version__ = "0.1.0"
