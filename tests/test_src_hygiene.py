"""No name left behind: every import and every private module-level name of a
``sefc`` module is read in that module, every public module-level function,
class and constant is read somewhere in ``src/sefc`` or ``bench/``, and every
parameter default of a ``sefc`` function or method is overridden by some call
there.

A deletion that leaves an unused import, a private constant, a function or
constant only tests read, or a parameter only tests set behind fails here.  Package ``__init__`` modules
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


def _defaulted_params(func: ast.FunctionDef, is_method: bool) -> list[tuple[str, int]]:
    """(name, positional index) of each parameter with a default; -1 for keyword-only.

    A method's index skips its bound first parameter, as its calls do."""
    args = func.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
    skip = 1 if is_method and not static else 0
    first_default = len(positional) - len(args.defaults)
    params = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first_default]
    return params + [(a.arg, -1) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _parameter_defaults() -> list[tuple[str, tuple[str, ...], str, int]]:
    """(where, callee names, parameter, index) of every defaulted parameter of a ``def``
    in ``src/sefc``; an ``__init__`` is called by its class's name or by ``__init__``."""
    found = []
    for path in MODULES:
        tree = _tree(path)
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        methods = {id(f): c for c in classes for f in c.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(id(func))
            names = (cls.name, "__init__") if cls and func.name == "__init__" else (func.name,)
            where = f"{path.relative_to(SRC)}: {'.'.join(n.name for n in (cls, func) if n)}"
            found += [(where, names, name, index)
                      for name, index in _defaulted_params(func, cls is not None)]
    return found


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in ``src/sefc`` and ``bench/`` by the callee's bare name; ``cls(...)``
    counts as a call of the class it is written in."""
    calls: dict[str, list[ast.Call]] = {}
    for path in MODULES + BENCH:
        tree = _tree(path)
        enclosing = {id(n): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                     for n in ast.walk(c)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == "cls":
                    name = enclosing.get(id(node), name)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, name: str, index: int) -> bool:
    """Whether *call* passes the parameter *name* at positional *index*: by
    keyword, by position or through ``*args``/``**kwargs``."""
    return any(kw.arg in (name, None) for kw in call.keywords) or index >= 0 and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_parameter_default_is_set_by_the_program():
    calls = _calls()
    unset = [f"{where}({name}=)" for where, callees, name, index in _parameter_defaults()
             if not any(_passes(c, name, index) for callee in callees
                        for c in calls.get(callee, ()))]
    assert not unset, f"set only by tests, or by nothing: {unset}"
