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
