import ast
import importlib
from pathlib import Path

import pytest

import windbridge

MODULES = sorted(p for p in Path(windbridge.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names each import statement of ``tree`` binds, ``__future__`` features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert sorted(set(imported_names(tree)) - read) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_all_entry_resolves(path):
    module = importlib.import_module(f"windbridge.{path.stem}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def private_definitions(tree):
    """The module-level private functions, classes and constants of ``tree``, and the
    private methods of its classes; dunder names aside."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name) and private(t.id))
        if isinstance(node, ast.ClassDef):
            yield from (
                f"{node.name}.{m.name}" for m in node.body if isinstance(m, ast.FunctionDef) and private(m.name)
            )


def test_every_private_definition_is_read():
    """A private name that nothing in the package reads is dead code: each must be
    read as a name or an attribute somewhere in ``src/windbridge``."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    unread = [f"{name}: {d}" for name, tree in trees.items() for d in private_definitions(tree)
              if d.rsplit(".", 1)[-1] not in read]
    assert unread == []
