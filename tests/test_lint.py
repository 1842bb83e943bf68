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


def test_no_unused_imports_in_src():
    # a name imported and never read is dead code; `from __future__` and
    # names re-exported through __all__ are used by definition
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used |= {elt.value for elt in ast.walk(node.value)
                         if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert not found, f"unused imports in src: {found}"
