"""No name left behind: every import and every private module-level name of a
``sefc`` module is read in that module, and every public module-level function,
class and constant is read somewhere in ``src/sefc`` or ``bench/``.

A deletion that leaves an unused import, a private constant, or a function or
constant only tests read behind fails here.  Package ``__init__`` modules
re-export names and are neither checked nor counted as readers.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sefc"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))


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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_CONSTANTS = (ast.Assign, ast.AnnAssign)


def _module_names(tree: ast.Module, kinds: tuple[type, ...] = _DEFS + _CONSTANTS) -> set[str]:
    """The names that the module-level statements of *kinds* in *tree* define."""
    names = set()
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        if isinstance(node, _DEFS):
            names.add(node.name)
        else:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _private_module_names(tree: ast.Module) -> set[str]:
    return {n for n in _module_names(tree) if n.startswith("_") and not n.startswith("__")}


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


def _tracer_target_words(tree: ast.Module) -> set[str]:
    """The module, class and attribute names of every ``Target``/``_nn`` string argument."""
    return {word for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("Target", "_nn")
            for arg in node.args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            for word in re.split(r"[.:]", arg.value)}


def _outside_reads(path: Path) -> set[str]:
    """Names *path* reads: loaded names, attributes, imported names and, in
    ``bench/tracer.py``, the names spelled in its wrap targets."""
    tree = _tree(path)
    read = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {a.name for a in node.names}
    if path.name == "tracer.py":
        read |= _tracer_target_words(tree)
    return read


def _unread_public_names(kinds: tuple[type, ...]) -> list[str]:
    read = set().union(*map(_outside_reads, MODULES + BENCH))
    return [f"{path.relative_to(SRC)}: {name}" for path in MODULES
            for name in sorted(_module_names(_tree(path), kinds))
            if not name.startswith("_") and name not in read]


def test_every_public_def_has_a_reader():
    unread = _unread_public_names(_DEFS)
    assert not unread, f"read only by tests, or by nothing: {unread}"


def test_every_public_constant_has_a_reader():
    unread = _unread_public_names(_CONSTANTS)
    assert not unread, f"read only by tests, or by nothing: {unread}"
