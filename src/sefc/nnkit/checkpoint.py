"""Model checkpoints: YAML header + flat parameter array, one file.

Layout: a YAML document (model spec plus caller extras), a single ``---``
separator line, then one parameter value per line formatted as ``%.17g``.
Both parts go through ``sefc.codec``, the codec of the canonical episode
files: parameters are formatted and parsed as whole arrays, and the header
goes through libyaml when PyYAML has it, with the same bytes either way.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..codec import dump_yaml, load_yaml, read_float_rows, write_float_rows
from ..errors import SchemaViolation
from .models import DenseNet, Model, SeqNet, TCNNet

_SEPARATOR = "---"

MODEL_KINDS = {
    "dense": DenseNet.from_spec,
    "tcn": TCNNet.from_spec,
    "seqnet": SeqNet.from_spec,
}


def save_model(path: Union[str, Path], model: Model, extra: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {"model": model.spec(), "n_params": model.n_params}
    if extra:
        header["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_yaml(header))
        fh.write(_SEPARATOR + "\n")
        write_float_rows(fh, model.get_params())
    return path


def load_model(path: Union[str, Path]) -> tuple[Model, dict]:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if f"\n{_SEPARATOR}\n" not in text:
        raise SchemaViolation(f"{path}: missing header/parameter separator")
    head_text, param_text = text.split(f"\n{_SEPARATOR}\n", 1)
    header = load_yaml(head_text, path)
    if not isinstance(header, dict) or not isinstance(header.get("model"), dict):
        raise SchemaViolation(f"{path}: malformed checkpoint header")
    spec = header["model"]
    kind = spec.get("kind")
    if kind not in MODEL_KINDS:
        raise SchemaViolation(f"{path}: unknown model kind {kind!r}")
    model = MODEL_KINDS[kind](spec)
    values = read_float_rows(param_text, 1, path)[:, 0]
    if len(values) != header.get("n_params", len(values)):
        raise SchemaViolation(
            f"{path}: header says {header.get('n_params')} params, file has {len(values)}"
        )
    model.set_params(values)
    return model, header.get("extra", {})
