"""Text codecs: canonical episode files, version-1 checkpoint parameters, report CSVs and all YAML.

``sefc.nnkit.checkpoint`` writes version-2 checkpoints (this module's YAML
header, then raw little-endian float64 parameters) and uses
``read_float_rows`` only to read the ``%.17g`` parameter lines of version-1
checkpoints; its format and errors are described there.

Floats are written as ``%.17g`` cells: 17 significant digits, which round-trip
every finite float64 exactly; non-finite values and negative zero are written
as ``nan``, ``inf``, ``-inf`` and ``-0``.  They are read back by numpy's C
parser, which gives the same bits as ``float()`` on every cell written here.

Report CSVs are written with csv's default dialect: minimal quoting and
``\r\n`` row ends.

This is the only module that imports ``yaml``: adapters, generation configs,
sidecars, checkpoint headers, manifests and report summaries all go through
``load_yaml``/``dump_yaml``.  YAML goes through libyaml
(``CSafeLoader``/``CSafeDumper``) when PyYAML was built with it, and through
the pure-Python ``SafeLoader``/``SafeDumper`` otherwise.  The text written is
the same either way.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Sequence, TextIO, Union

import numpy as np
import yaml

from .errors import SchemaViolation

# Rows formatted per ``%`` call: large enough to amortize the call, small
# enough that the temporary Python floats and text stay a few MB at most.
_BLOCK_ROWS = 256

try:
    _LOADER, _DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
except AttributeError:  # PyYAML built without libyaml
    _LOADER, _DUMPER = yaml.SafeLoader, yaml.SafeDumper

_DUMP_STYLE = {"sort_keys": False, "default_flow_style": False}


def write_float_rows(fh: TextIO, *columns: np.ndarray) -> None:
    """Write columns side by side as comma-separated ``%.17g`` lines.

    Each argument is a 1-D column or a 2-D block of columns; all have the
    same number of rows.
    """
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns])
        line = ",".join(["%.17g"] * block.shape[1]) + "\n"
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def read_float_rows(text: str, n_cols: int, where: Union[str, Path]) -> np.ndarray:
    """Parse comma-separated float lines into an ``(n_rows, n_cols)`` array.

    Raises SchemaViolation naming *where* on no rows, a blank line, a ragged
    row or a non-numeric cell.
    """
    if not text:
        raise SchemaViolation(f"{where}: no data rows")
    if text.startswith("\n") or "\n\n" in text:
        raise SchemaViolation(f"{where}: blank line among data rows")
    try:
        rows = np.loadtxt(io.StringIO(text), dtype=np.float64, delimiter=",",
                          comments=None, ndmin=2)
    except ValueError as exc:
        raise SchemaViolation(f"{where}: {exc}") from exc
    if rows.shape[1] != n_cols:
        raise SchemaViolation(f"{where}: rows have {rows.shape[1]} fields, expected {n_cols}")
    return rows


def write_csv(path: Union[str, Path], header: Sequence, rows: Iterable[Sequence]) -> Path:
    """Write a report CSV (header, then rows), creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def load_yaml(text: str, where: Union[str, Path]):
    """Parse one YAML document; malformed YAML raises SchemaViolation naming *where*."""
    try:
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise SchemaViolation(f"{where}: malformed YAML: {exc}") from exc


def dump_yaml(doc) -> str:
    """Block-style YAML with keys in insertion order."""
    text = yaml.dump(doc, Dumper=_DUMPER, **_DUMP_STYLE)
    if "\\" in text:
        # libyaml folds long escaped (non-ASCII or control-character) scalars
        # at other points than the pure-Python emitter; take the latter's text.
        text = yaml.dump(doc, Dumper=yaml.SafeDumper, **_DUMP_STYLE)
    return text
