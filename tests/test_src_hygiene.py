"""No name left behind, and no value written twice: every import and every
private module-level name of a ``sefc`` module is read in that module, every
public module-level function, class and constant is read somewhere in
``src/sefc`` or ``bench/``, and every default of a ``sefc`` function, method,
dataclass field or NamedTuple field is both set by some call there and left
to its default by some call there.

A call sets a default when it passes that parameter by keyword or by
position, or may through ``*args`` or ``**kwargs``.  It leaves the default
to the callee when it passes that parameter neither by keyword nor by
position, or when it passes ``*args`` or ``**kwargs``.  A function handed to
a forwarder, a ``def`` that calls it with exactly its own ``*args`` (the
bench's ``_record(ops, metric, label, fn, *args)``), gets the call of the
arguments that follow it.  Any other function or class read as a value
(stored or handed on, say) counts as leaving every default to the callee,
since its calls are not in sight.  A ``field(init=False)`` is no
constructor parameter and is not checked.

A deletion that leaves an unused import, a private constant, a function or
constant only tests read, a parameter only tests set or a default that every
call overrides behind fails here.  Package ``__init__`` modules re-export
names and are neither checked nor counted as readers.
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


def _bare_name(node: ast.AST):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _defaulted_fields(cls: ast.ClassDef) -> list[tuple[str, int]]:
    """(name, positional index) of each defaulted field of a dataclass or NamedTuple;
    a ``field(init=False)`` is no constructor parameter and is skipped."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if "dataclass" not in map(_bare_name, decorators) and "NamedTuple" not in map(
            _bare_name, cls.bases):
        return []
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign) and not (
        isinstance(s.value, ast.Call) and _bare_name(s.value.func) == "field"
        and any(kw.arg == "init" and getattr(kw.value, "value", True) is False
                for kw in s.value.keywords))]
    return [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]


Source = dict[str, ast.Module]      # a module's name -> its syntax tree


def _parsed(paths: list[Path], root: Path) -> Source:
    return {str(p.relative_to(root)): _tree(p) for p in paths}


def _function_defaults(defining: Source) -> list[tuple[str, tuple[str, ...], str, int]]:
    """(where, callee names, parameter, index) of every defaulted parameter of a
    ``def`` in *defining*; an ``__init__`` is called by its class's name or by ``__init__``."""
    found = []
    for module, tree in defining.items():
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        methods = {id(f): c for c in classes for f in c.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(id(func))
            names = (cls.name, "__init__") if cls and func.name == "__init__" else (func.name,)
            where = f"{module}: {'.'.join(n.name for n in (cls, func) if n)}"
            found += [(where, names, name, index)
                      for name, index in _defaulted_params(func, cls is not None)]
    return found


def _field_defaults(defining: Source) -> list[tuple[str, tuple[str, ...], str, int]]:
    """(where, callee names, field, index) of every defaulted constructor field of a
    dataclass or NamedTuple in *defining*; its calls name the class."""
    return [(f"{module}: {cls.name}", (cls.name,), name, index)
            for module, tree in defining.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for name, index in _defaulted_fields(cls)]


def _forwarded(calling: Source) -> list[tuple[ast.AST, ast.Call]]:
    """(function value, the call it gets) for each function handed to a forwarder
    in *calling*: a module-level ``def`` that calls one of its positional
    parameters with exactly its ``*args``.  ``_record(ops, metric, label, fn,
    *args)`` calls ``fn(*args)``, so ``_record(ops, "m", "l", f, a, b)`` is the
    call ``f(a, b)``."""
    forwarders = {}
    for tree in calling.values():
        for func in tree.body:
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.args.vararg:
                params = [a.arg for a in func.args.posonlyargs + func.args.args]
                forwarders.update({func.name: params.index(c.func.id) for c in ast.walk(func)
                                   if isinstance(c, ast.Call) and _bare_name(c.func) in params
                                   and not c.keywords and len(c.args) == 1
                                   and isinstance(c.args[0], ast.Starred)
                                   and _bare_name(c.args[0].value) == func.args.vararg.arg})
    return [(call.args[k], ast.Call(call.args[k], call.args[k + 1:], []))
            for tree in calling.values() for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            for k in [forwarders.get(_bare_name(call.func))]
            if k is not None and len(call.args) > k
            and not any(isinstance(a, ast.Starred) for a in call.args[:k + 1])]


def _calls(calling: Source) -> dict[str, list[ast.Call]]:
    """Every call in *calling* by the callee's bare name, with the calls that
    forwarders make; ``cls(...)`` counts as a call of the class it is written in."""
    calls: dict[str, list[ast.Call]] = {}
    for fn, call in _forwarded(calling):
        calls.setdefault(_bare_name(fn), []).append(call)
    for tree in calling.values():
        enclosing = {id(n): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                     for n in ast.walk(c)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _bare_name(node.func)
                if name == "cls":
                    name = enclosing.get(id(node), name)
                calls.setdefault(name, []).append(node)
    return calls


def _named_values(calling: Source) -> set[str]:
    """Every bare name in *calling* that is read as a value, not called, not an
    annotation and not handed to a forwarder: a function stored, returned or
    handed to a function whose calls of it are not in sight."""
    named = set()
    forwarded = {id(fn) for fn, _ in _forwarded(calling)}
    for tree in calling.values():
        skip = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        skip |= forwarded
        skip |= {id(n) for node in ast.walk(tree)
                 for a in [getattr(node, "annotation", None), getattr(node, "returns", None)]
                 if isinstance(a, ast.AST) for n in ast.walk(a)}
        named |= {_bare_name(n) for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))
                  and isinstance(n.ctx, ast.Load) and id(n) not in skip}
    return named


def _passes(call: ast.Call, name: str, index: int) -> bool:
    """Whether *call* may pass the parameter *name* at positional *index*: by
    keyword, by position or through ``*args``/``**kwargs``."""
    return any(kw.arg in (name, None) for kw in call.keywords) or index >= 0 and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def _relies(call: ast.Call, name: str, index: int) -> bool:
    """Whether *call* may leave the parameter *name* at positional *index* to its
    default: it passes it neither by keyword nor by position, or it passes
    ``*args``/``**kwargs``."""
    keywords = [kw.arg for kw in call.keywords]
    if None in keywords or any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return name not in keywords and not 0 <= index < len(call.args)


def _defaults(defining: Source) -> list[tuple[str, tuple[str, ...], str, int]]:
    return _function_defaults(defining) + _field_defaults(defining)


def _unset_defaults(defining: Source, calling: Source) -> list[str]:
    """The defaults of *defining* that no call in *calling* may set."""
    calls = _calls(calling)
    return [f"{where}({name}=)" for where, callees, name, index in _defaults(defining)
            if not any(_passes(c, name, index) for callee in callees
                       for c in calls.get(callee, ()))]


def _unrelied_defaults(defining: Source, calling: Source) -> list[str]:
    """The defaults of *defining* that every call in *calling* sets, of a function
    or class that *calling* never reads as a value."""
    calls, named = _calls(calling), _named_values(calling)
    return [f"{where}({name}=)" for where, callees, name, index in _defaults(defining)
            if named.isdisjoint(callees) and not any(
                _relies(c, name, index) for callee in callees for c in calls.get(callee, ()))]


def _program() -> tuple[Source, Source]:
    defining = _parsed(MODULES, SRC)
    return defining, {**defining, **_parsed(BENCH, ROOT)}


def test_every_parameter_default_is_set_by_the_program():
    unset = _unset_defaults(*_program())
    assert not unset, f"set only by tests, or by nothing: {unset}"


def test_every_parameter_default_is_relied_on():
    unrelied = _unrelied_defaults(*_program())
    assert not unrelied, f"passed by every call, so written twice: {unrelied}"


# ---------------------------------------------------------------------------
# the default helpers on small sources
# ---------------------------------------------------------------------------

def _source(text: str) -> Source:
    return {"m": ast.parse(text)}


_F = "def f(a, b=1, *, c=2):\n    return a + b + c\n"
_RECORD = "def record(ops, label, fn, *args):\n    return fn(*args)\n"


@pytest.mark.parametrize("calls, unrelied", [
    ("f(0, 1, c=2)", ["m: f(b=)", "m: f(c=)"]),
    ("f(0, b=1, c=2)", ["m: f(b=)", "m: f(c=)"]),
    ("f(0, c=2)", ["m: f(c=)"]),
    ("f(0, 1, c=2)\nf(0, 1)", ["m: f(b=)"]),
    ("f(0, *rest, c=2)", []),
    ("f(0, 1, **kw)", []),
    ("f(0, 1, c=2)\nrecord(ops, 'label', f, 0)", []),
    ("f(0, 1, c=2)\nrecord(ops, 'label', m.f, 0)", []),
    ("f(0, 1, c=2)\nx: f = g(0)", ["m: f(b=)", "m: f(c=)"]),
    (_RECORD + "f(0, 1, c=2)\nrecord(ops, 'label', f, 0, 1)", ["m: f(b=)"]),
    (_RECORD + "f(0, 1, c=2)\nrecord(ops, 'label', m.f, 0)", []),
])
def test_a_default_every_call_passes_is_flagged(calls, unrelied):
    assert _unrelied_defaults(_source(_F), _source(calls)) == unrelied


@pytest.mark.parametrize("calls, unset", [
    ("f(0)", ["m: f(b=)", "m: f(c=)"]),
    ("f(0, 1)", ["m: f(c=)"]),
    ("f(0, *rest)", ["m: f(c=)"]),
    ("f(0, **kw)", []),
    (_RECORD + "record(ops, 'label', f, 0, 1)", ["m: f(c=)"]),
])
def test_a_default_no_call_passes_is_flagged(calls, unset):
    assert _unset_defaults(_source(_F), _source(calls)) == unset


_ROW = """
from dataclasses import dataclass, field
from typing import NamedTuple

@dataclass(frozen=True)
class Row:
    name: str
    seen: list = field(default_factory=list, init=False)
    n: int = 0

class Pair(NamedTuple):
    a: int
    b: int = 0
"""


def test_fields_are_checked_by_position_past_init_false_fields():
    calls = _source("Row('a', 1)\nRow('b')\nPair(1, 2)")
    assert _unset_defaults(_source(_ROW), calls) == []
    assert _unrelied_defaults(_source(_ROW), calls) == ["m: Pair(b=)"]
    assert _unset_defaults(_source(_ROW), _source("Row('a')\nPair(1)")) == [
        "m: Row(n=)", "m: Pair(b=)"]
