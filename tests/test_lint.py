"""Standard-library lint of the package: no unused imports, no dead private names."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cocyclelab"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by imports, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _loaded(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, as bare names or as attributes."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("name", [n for n in MODULES if n != "__init__.py"])
def test_every_import_is_used(name):
    # __init__ imports are the package's re-exports
    tree = MODULES[name]
    unused = {n: line for n, line in _imported(tree).items() if n not in _loaded(tree)}
    assert not unused, f"{name}: unused imports {unused}"


def test_every_private_top_level_name_has_a_caller():
    callers = set()
    for tree in MODULES.values():
        callers |= _loaded(tree)
        callers |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
    dead = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{name}:{node.lineno} {d}" for d in defined
                     if d.startswith("_") and not d.startswith("__") and d not in callers]
    assert not dead, f"private names nobody calls: {dead}"
