"""Model checkpoints: YAML header + flat parameter array, one file.

Layout (version 2, the only one written): a UTF-8 YAML document holding
``format: 2``, the model spec, ``n_params`` and any caller extras; a single
``---`` separator line; then exactly ``8 * n_params`` bytes, the parameters
as raw little-endian float64 in ``Model.get_params`` order.  The payload is
read back with the same bits, NaN payloads, ``-0.0`` and subnormals
included.  The header goes through ``sefc.codec``, with libyaml when PyYAML
has it and the same bytes either way; the emitter never writes a ``---``
line inside it, so the file splits at the first ``\\n---\\n``.

Version 1 (a header without ``format``, then one ``%.17g`` value per line)
is still read, with text-mode newlines, so older run directories load.

Every defect of the file raises ``SchemaViolation`` naming it: no separator,
a header that is not UTF-8 or not YAML, an unknown ``format`` or model kind,
a spec the model cannot be built from, a missing or non-integer ``n_params``
(version 2), a truncated payload or trailing bytes, a parameter count that
disagrees with the header or the spec, and a non-numeric version-1 value.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

import numpy as np

from ..codec import dump_yaml, load_yaml, read_float_rows
from ..errors import SchemaViolation, ShapeMismatch
from .models import DenseNet, Model, SeqNet, TCNNet

_FORMAT = 2
_SEPARATOR = b"\n---\n"
_PARAM_DTYPE = np.dtype("<f8")

MODEL_KINDS = {
    "dense": DenseNet.from_spec,
    "tcn": TCNNet.from_spec,
    "seqnet": SeqNet.from_spec,
}


def save_model(path: Union[str, Path], model: Model, extra: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {"format": _FORMAT, "model": model.spec(), "n_params": model.n_params}
    if extra:
        header["extra"] = extra
    with open(path, "wb") as fh:
        fh.write(dump_yaml(header).encode("utf-8"))
        fh.write(b"---\n")
        fh.write(model.get_params().astype(_PARAM_DTYPE, copy=False).tobytes())
    return path


def load_model(path: Union[str, Path]) -> tuple[Model, dict]:
    path = Path(path)
    data = path.read_bytes()
    head, sep, payload = data.partition(_SEPARATOR)
    if not sep:
        # A version-1 file with \r\n or \r line ends splits once they read as \n.
        head, sep, payload = _text_newlines(data).partition(_SEPARATOR)
    if not sep:
        raise SchemaViolation(f"{path}: missing header/parameter separator")
    header = load_yaml(_decode(head, path), path)
    if not isinstance(header, dict) or not isinstance(header.get("model"), dict):
        raise SchemaViolation(f"{path}: malformed checkpoint header")
    model = _build(header["model"], path)
    if "format" not in header:
        values = _text_params(payload, header, path)
    elif header["format"] == _FORMAT:
        values = _binary_params(payload, header, path)
    else:
        raise SchemaViolation(f"{path}: unknown checkpoint format {header['format']!r}")
    if len(values) != model.n_params:
        raise SchemaViolation(
            f"{path}: the model spec has {model.n_params} params, file has {len(values)}"
        )
    model.set_params(values)
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise SchemaViolation(f"{path}: checkpoint extras are not a mapping")
    return model, extra


def require_extras(extra: dict, keys: Iterable[str], path: Union[str, Path], kind: str) -> None:
    """Raise SchemaViolation naming *path* unless *extra* holds every key of a *kind* checkpoint."""
    missing = [k for k in keys if k not in extra]
    if missing:
        raise SchemaViolation(f"{path}: not {kind} checkpoint: no {', '.join(missing)}")


def extra_list(extra: dict, key: str, length: int, types: tuple, path: Union[str, Path]) -> list:
    """``extra[key]`` if it holds *length* values of *types*; else SchemaViolation naming it."""
    value = extra[key]
    if isinstance(value, list) and len(value) == length and all(type(v) in types for v in value):
        return value
    got = (f"{len(value)} entries" if isinstance(value, list) and len(value) != length
           else repr(value)[:60])
    raise SchemaViolation(f"{path}: {key} must be a list of {length} "
                          f"{'/'.join(t.__name__ for t in types)} values, got {got}")


def _build(spec: dict, path: Path) -> Model:
    kind = spec.get("kind")
    build = MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if build is None:
        raise SchemaViolation(f"{path}: unknown model kind {kind!r}")
    try:
        return build(spec)
    except (KeyError, TypeError, ValueError, ShapeMismatch) as exc:
        raise SchemaViolation(f"{path}: bad {kind} model spec: {exc!r}") from exc


def _binary_params(payload: bytes, header: dict, path: Path) -> np.ndarray:
    n_params = header.get("n_params")
    if type(n_params) is not int or n_params < 0:
        raise SchemaViolation(
            f"{path}: header needs a non-negative integer n_params, got {n_params!r}"
        )
    expected = n_params * _PARAM_DTYPE.itemsize
    if len(payload) < expected:
        raise SchemaViolation(
            f"{path}: truncated payload: {len(payload)} bytes, {n_params} params need {expected}"
        )
    if len(payload) > expected:
        raise SchemaViolation(
            f"{path}: {len(payload) - expected} trailing bytes after {n_params} params"
        )
    return np.frombuffer(payload, _PARAM_DTYPE)


def _text_params(payload: bytes, header: dict, path: Path) -> np.ndarray:
    values = read_float_rows(_decode(payload, path), 1, path)[:, 0]
    if len(values) != header.get("n_params", len(values)):
        raise SchemaViolation(
            f"{path}: header says {header.get('n_params')} params, file has {len(values)}"
        )
    return values


def _text_newlines(raw: bytes) -> bytes:
    """``raw`` with ``\\r\\n`` and lone ``\\r`` turned into ``\\n``, as text mode reads them."""
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _decode(raw: bytes, path: Path) -> str:
    try:
        return _text_newlines(raw).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaViolation(f"{path}: not UTF-8 text: {exc}") from exc
