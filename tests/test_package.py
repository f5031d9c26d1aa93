"""Every name the package defines is used by the program itself, and every
name a package module imports is used by that module.

Code that only tests call belongs in the tests. A top-level function, class
or constant defined in ``src/fedboost``, and a method or property of such a
class, must be referenced outside its own definition somewhere in ``src/``,
``scripts/`` or ``perfbench/``; imports do not count as references. Every
attribute such a class assigns on ``self`` must be read, as an attribute,
somewhere there too.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fedboost"
PROGRAM_DIRS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# Definitions the program reaches without naming them, and why
CALLED_FROM_ELSEWHERE = {
    "config.ExperimentConfig.optimizer": "tests/test_acceptance.py, the fixed contract, reads it",
}


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


def _definitions(path: Path, tree: ast.Module) -> list[tuple[str, str, ast.AST]]:
    """(label, name, defining node) for each top-level definition of a package
    module and each method or property of its top-level classes."""
    found = []
    for stmt in tree.body:
        found += [(f"{path.stem}.{n}", n, stmt) for n in _defined_names(stmt) if not _is_dunder(n)]
        if isinstance(stmt, ast.ClassDef):
            found += [
                (f"{path.stem}.{stmt.name}.{m.name}", m.name, m)
                for m in stmt.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(m.name)
            ]
    return found


def _references(node: ast.AST) -> Counter:
    """How often each name is read in ``node``, as a variable or an attribute."""
    names = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
    return names


def unreferenced_names() -> list[str]:
    """The label of every package definition that no program file references
    outside that definition."""
    definitions = []
    referenced = Counter()
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if path.parent == PACKAGE:
                definitions += _definitions(path, tree)
            referenced += _references(tree)
    return [
        label
        for label, name, node in definitions
        if referenced[name] == _references(node)[name]
    ]


def test_no_test_only_code_in_the_package():
    assert sorted(unreferenced_names()) == sorted(CALLED_FROM_ELSEWHERE)


def unread_attributes() -> list[str]:
    """``module.Class.attribute`` for every attribute a top-level package class
    assigns on ``self`` that no program file reads as an attribute."""
    assigned, read = [], set()
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            if path.parent != PACKAGE:
                continue
            for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
                assigned += [
                    (f"{path.stem}.{cls.name}.{node.attr}", node.attr)
                    for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ]
    return sorted({label for label, attr in assigned if attr not in read})


def test_no_test_only_attributes_in_the_package():
    assert unread_attributes() == []


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
