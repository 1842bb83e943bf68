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


def _opens_for_reading(node):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), None)
    if mode is None:
        return True
    # a mode that is not a literal counts as reading
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value) & set("wax"))


def test_files_are_read_only_by_the_shared_readers():
    # every text format goes through rational.read_records, which owns the
    # line grammar
    readers = {"read_records"}
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if _opens_for_reading(child) and function not in readers:
                found.append(f"{path.name}:{child.lineno} in {function}")
            visit(child, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    assert not found, f"files opened for reading outside the shared readers: {found}"


def _definitions(tree):
    # module-level functions and classes, and the non-dunder methods of
    # those classes
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (sub.name.startswith("__") and sub.name.endswith("__")))


def test_every_definition_is_read():
    # a definition that only its own unit tests read proves nothing: a read
    # counts only in src or in the claim tests, and not inside the
    # definition itself; a name or attribute with its name is a read
    paths = sorted(SRC.glob("*.py")) + [Path(__file__).resolve().parent / "test_acceptance.py"]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    reads = [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
             for path, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in _definitions(trees[path]):
            if not any(name == node.name
                       and not (where == path and node.lineno <= line <= node.end_lineno)
                       for where, line, name in reads):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert not found, f"definitions nothing but their own tests read: {found}"


def test_every_parameter_is_read():
    # a parameter its function never reads is an unused knob; self and cls
    # are exempt, and a read by a nested function or lambda counts
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            found += [f"{path.name}:{node.lineno} {name}({p})" for p in params
                      if p not in read and p not in ("self", "cls")]
    assert not found, f"parameters never read: {found}"


def _changes_graph_field(node):
    # a store into, or an append to, a field named like Graph's structure
    # (num_nodes, edges, adj) and kept routes (routes) or ScaledCapacities'
    # block ids (blocks) and kept flows (hops), also through subscripts and
    # tuple targets
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_changes_graph_field(elt) for elt in node.elts)
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in (
        "num_nodes", "edges", "adj", "routes", "blocks", "hops")


def test_only_graph_py_changes_a_graph():
    # a Graph is built once and caches its block-cut forest and the routes
    # through it, so a graph changed after that would keep stale ones;
    # ScaledCapacities.blocks numbers that forest's blocks and hops keeps
    # flows under its arcs, so only min_cut may add to them
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "graph.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("append", "extend", "insert", "update", "setdefault")):
                targets = [node.func.value]
            else:
                continue
            if any(_changes_graph_field(t) for t in targets):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"Graph fields changed outside graph.py: {found}"


def test_only_simplex_core_factors_a_matrix():
    # one function decides how a basis is factored: every np.linalg call in
    # src sits inside simplex._core
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and "linalg" in ast.unparse(child.func).split(".")
                    and (path.name, function) != ("simplex.py", "_core")):
                found.append(f"{path.name}:{child.lineno} in {function}")
            visit(child, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    assert not found, f"np.linalg calls outside simplex._core: {found}"
