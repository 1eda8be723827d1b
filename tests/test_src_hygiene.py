"""No name left behind: every import and every private module-level name of a
``sefc`` module is read in that module.

A deletion that leaves an unused import or a private constant behind fails
here.  Package ``__init__`` modules re-export names and are not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sefc"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _read_names(tree: ast.AST) -> set[str]:
    """Every name loaded in *tree*, also inside a string annotation."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            read |= _read_names(ast.parse(annotation.value, mode="eval"))
    return read


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _private_module_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_read(path):
    tree = _tree(path)
    unread = _imported_names(tree) - _read_names(tree)
    assert not unread, f"{path.name}: never read: {sorted(unread)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_private_module_name_is_read(path):
    tree = _tree(path)
    unread = _private_module_names(tree) - _read_names(tree)
    assert not unread, f"{path.name}: never read: {sorted(unread)}"
