"""Rules every module of the package keeps."""

import ast
import pathlib

import numpy as np

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "apds"


def test_no_assert_statements():
    # python -O strips assert statements, so a check that guards an answer
    # must raise an exception of its own
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")) and found == []


def _raise_sites(message: str) -> list:
    """file:line of every ``raise InputError(message)`` under src/apds."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "InputError"
            and [a.value for a in node.exc.args if isinstance(a, ast.Constant)]
            == [message]]


def test_one_symbol_check():
    # every structure takes its symbols through bits.symbol_array, so no
    # entry grows its own copy of the empty or below-1 check
    for message in ("empty input", "symbol values must be >= 1"):
        assert len(_raise_sites(message)) == 1, (message, _raise_sites(message))


def test_one_permutation_check():
    # every permutation build, the LF mapping and every verify of a loaded
    # permutation take pi through chunkseq._validate_permutation
    sites = _raise_sites("not a permutation (a bijection on [1..n])")
    assert len(sites) == 1 and sites[0].startswith("chunkseq.py:"), sites


def test_cycle_order_only_in_permutation():
    # the package walks cycles in one place, beside the one cycle shortcut:
    # no other module imports or calls cycle_order
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "permutation.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if (isinstance(node, ast.Name) and node.id == "cycle_order")
             or (isinstance(node, ast.Attribute) and node.attr == "cycle_order")
             or (isinstance(node, ast.alias) and node.name == "cycle_order")]
    assert found == []


def _byte_reader_calls(nodes) -> list:
    return [node for node in nodes if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "ByteReader"]


def test_every_byte_reader_is_read_to_its_end():
    # a ByteReader opened as a with item refuses bytes left unread, so no
    # deserializer can load a payload with trailing bytes
    nodes = [node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))]
    calls = _byte_reader_calls(nodes)
    opened = _byte_reader_calls(item.context_expr for node in nodes
                                if isinstance(node, ast.With) for item in node.items)
    assert len(calls) >= 10, len(calls)
    assert [c.lineno for c in calls if c not in opened] == []


def test_wavelet_reads_only_the_plain_directory_of_a_bitvector():
    # PolySequence reads a plain level's words and per-word ones counts
    # inline; those two names are the whole contract between wavelet.py and
    # bitvec.py's private layout
    tree = ast.parse((SRC / "wavelet.py").read_text())
    own = ("self", "obj", "cls")
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in own)}
    read |= {arg.value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("getattr", "hasattr", "setattr")
             for arg in node.args[1:2]
             if isinstance(arg, ast.Constant) and str(arg.value).startswith("_")}
    assert read == {"_word_view", "_cum"}


def _results(expr) -> set:
    """The names a return expression can give: a name, or either branch of
    a conditional expression (None gives none)."""
    if isinstance(expr, ast.IfExp):
        return _results(expr.body) | _results(expr.orelse)
    return {expr.id} if isinstance(expr, ast.Name) else set()


def test_every_class_store_has_a_conformance_row():
    # each store that apseq._store_for can pick is held to the shared
    # checker on its own, as a row of test_conformance.FACTORIES
    from test_conformance import FACTORIES

    tree = ast.parse((SRC / "apseq.py").read_text())
    rule = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_store_for")
    returned = set().union(*(_results(node.value) for node in ast.walk(rule)
                             if isinstance(node, ast.Return)))
    rows = {type(make(np.array([1, 2, 2, 3]))[0]).__name__ for _, make in FACTORIES.values()}
    assert returned == {"PolySequence", "LargeSequence", "BalancedSequence"}
    assert returned <= rows, returned - rows
