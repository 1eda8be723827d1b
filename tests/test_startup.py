"""Start-up guard: sefc imports only the standard library, numpy and PyYAML.

Every CLI command is its own process, so each import that ``sefc.cli``
pulls in is paid again on every command.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# import name -> distribution name in [project] dependencies
RUNTIME_IMPORTS = {"numpy": "numpy", "yaml": "pyyaml"}

_PROBE = """
import sys
import numpy, yaml
before = set(sys.modules)
import sefc.cli
print("\\n".join(sorted(name for name in set(sys.modules) - before if "." not in name)))
"""


def test_cli_import_adds_only_sefc_and_stdlib_modules():
    # the baseline is taken in the same process: this interpreter's site may
    # load third-party modules of its own before numpy and yaml
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    added = set(out.split())
    assert "sefc" in added
    assert added - {"sefc"} <= sys.stdlib_module_names, added - {"sefc"} - sys.stdlib_module_names


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level names of every absolute import in ``src/sefc`` outside the stdlib -> files."""
    found: dict[str, set[str]] = {}
    for path in sorted((SRC / "sefc").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "sefc" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(path.relative_to(SRC).as_posix())
    return found


def test_source_imports_match_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    found = _third_party_imports()
    assert set(found) <= set(RUNTIME_IMPORTS), {k: v for k, v in found.items()
                                                if k not in RUNTIME_IMPORTS}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    distributions = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in declared}
    assert distributions == {RUNTIME_IMPORTS[name] for name in found}
