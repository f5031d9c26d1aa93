"""Every top-level name the package defines is used by the program itself,
and every name a package module imports is used by that module.

Code that only tests call belongs in the tests. A function, class or constant
defined in ``src/fedboost`` must be referenced outside its own definition
somewhere in ``src/``, ``scripts/`` or ``perfbench/``; imports do not count
as references.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fedboost"
PROGRAM_DIRS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _references(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced_names() -> list[str]:
    """``module.name`` for every top-level definition in the package that no
    program file references outside that definition."""
    definitions = []  # (path, statement index, name)
    referenced = {}  # name -> {(path, statement index)} of the statements using it
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for index, stmt in enumerate(tree.body):
                if path.parent == PACKAGE:
                    definitions += [(path, index, n) for n in _defined_names(stmt) if not _is_dunder(n)]
                for name in _references(stmt):
                    referenced.setdefault(name, set()).add((path, index))
    return [
        f"{path.stem}.{name}"
        for path, index, name in definitions
        if not referenced.get(name, set()) - {(path, index)}
    ]


def test_no_test_only_code_in_the_package():
    assert unreferenced_names() == []


def unused_imports() -> list[str]:
    """``module.name`` for every name a top-level import in a package module
    binds and that module never uses. ``__init__`` imports to re-export, and
    ``__future__`` imports switch on features, so both are skipped."""
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                bound = [alias.asname or alias.name for alias in stmt.names]
            else:
                continue
            unused += [f"{path.stem}.{name}" for name in bound if name not in used]
    return unused


def test_no_unused_imports_in_the_package():
    assert unused_imports() == []
