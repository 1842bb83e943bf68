"""Source rules that no test of behaviour would catch."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcsf"


def test_no_assert_statements_in_src():
    # `python -O` strips asserts, so a guarantee must raise a named error
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"
