"""Rules every module of the package keeps."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "apds"


def test_no_assert_statements():
    # python -O strips assert statements, so a check that guards an answer
    # must raise an exception of its own
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")) and found == []
