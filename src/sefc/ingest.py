"""Raw table parsing, resampling, gap filling, and canonical episode files.

A well-formed plain raw CSV is parsed in one pass, a block of whole lines
at a time, with the blocks mapped over every CPU by ``parallel.fork_map``:
each block writes its numeric rows straight into one float64 table,
allocated once in an anonymous shared mapping, so parse memory follows the
parsed table, not copies of the file's text.  Any other raw file goes
through ``csv.reader``, which alone reports raw-table errors.

The canonical on-disk form of an episode is a UTF-8 CSV (header line
``t_s,<channel>,...``, then one line per step with every cell formatted as
``%.17g``, comma separated, ``\n`` terminated) plus a YAML sidecar
``<episode_id>.meta.yaml`` holding metadata, run-length-encoded phase
labels, and channel descriptors.  Both are written and read through
``sefc.codec``: rows are formatted and parsed as whole arrays, and the
sidecar goes through libyaml when PyYAML has it, with the same bytes on
disk either way.  The sidecar's ``channels:`` block is written once per
channel layout: it is dumped for the first episode of a layout and reused
for every later one, and the reader parses each distinct block once.  The
pipeline order for raw sources is parse -> apply_adapter -> fill_gaps ->
resample.
"""

from __future__ import annotations

import csv
import functools
import mmap
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .codec import dump_yaml, load_yaml, read_float_rows, write_float_rows
from .errors import (
    DegenerateEpisode,
    DuplicateKey,
    EmptyFile,
    ExcessiveMissing,
    RaggedRow,
    SchemaViolation,
)
from .parallel import fork_map
from .schema import MODELING_ROLES, ChannelDescriptor, Episode, SignalRole, phase_runs

DEFAULT_NA_TOKENS = ("", "NA", "N/A", "NaN", "nan", "null", "NULL")


@dataclass(frozen=True)
class CsvDialect:
    """How a raw CSV writes its cells: the field delimiter, the decimal mark
    and the tokens read as missing.  The delimiter and the decimal mark must
    be two different characters, neither the quote character nor a line
    end; any other value raises SchemaViolation when the dialect is built."""

    delimiter: str = ","
    decimal: str = "."
    na_tokens: tuple[str, ...] = DEFAULT_NA_TOKENS

    def __post_init__(self):
        for name in ("delimiter", "decimal"):
            value = getattr(self, name)
            if len(value) != 1:
                raise SchemaViolation(f"CSV dialect {name} must be one character, got {value!r}")
            if value in '"\r\n':
                raise SchemaViolation(
                    f"CSV dialect {name} must not be a quote or a line end, got {value!r}")
        if self.decimal == self.delimiter:
            raise SchemaViolation(
                f"CSV dialect decimal must differ from the delimiter, got {self.decimal!r} for both")


# Bytes a plain file may hold besides its delimiter, once its \r\n line ends
# read \n: printable ASCII other than space and the quote character, and the
# \n line end.
_PLAIN_BYTES = bytes(range(0x21, 0x7F)).replace(b'"', b"") + b"\n"
_NAN = np.frombuffer(b"nan", dtype=np.uint8)
# Bytes of a plain file parsed at a time, one ``fork_map`` item: enough
# lines per ``np.loadtxt`` call to amortize it, few enough that the
# per-block text copies stay small next to the table.
_BLOCK_BYTES = 1 << 18
# The first non-blank line from an offset, in group 1 (with the \r of a
# \r\n line end), and its line end.
_LINE = re.compile(rb"(?:\r?\n)*([^\n]*)\n?")


def parse_raw_csv(
    path: Union[str, Path], dialect: CsvDialect = CsvDialect(),
    text_columns: Collection[str] = (),
) -> dict[str, np.ndarray]:
    """Parse a raw per-episode CSV into named columns.

    Numeric columns come back as float64 arrays with NaN at NA tokens;
    columns with any non-numeric cell, and the columns named in
    *text_columns*, come back as object arrays of ``str | None``, None at
    NA tokens.  Cells are stripped of surrounding whitespace before the NA
    check; the decimal mark is rewritten to ``.`` before ``float()``.  In
    an object column a cell that reads as a number once its decimal mark
    is ``.`` holds that rewritten text.  Blank lines are skipped.

    A plain file (ASCII only, no quote character, no ``\\r`` outside a
    ``\\r\\n`` line end, no whitespace other than the delimiter and no line
    longer than ``csv.field_size_limit()``) is parsed in one pass over
    blocks of whole lines.  This process reads the file, its header and its
    first data row, which decides the string columns: those named in
    *text_columns* and those whose first data cell is neither NA nor a
    number.  It then allocates the float64 table once, in an anonymous
    shared mapping with a slot per line, and maps the blocks over every CPU
    with ``parallel.fork_map``.  Per block, ``\\r\\n`` line ends are read as
    ``\\n``, NA cells are rewritten to ``nan`` and one ``np.loadtxt`` call
    over every numeric column writes the block's rows into the table at the
    slot of its first line; a second one reads the string columns, whose
    cells are all a block sends back.  Blank lines leave gaps between the
    blocks' rows, which this process closes in place.  Parse memory is the
    file's bytes, the table and one block's copies per process.  The pass
    declines any file it cannot parse exactly: one that is not plain, has no
    header, fewer than 2 data rows, a repeated header name or a row whose
    field count differs from the header's, or a cell ``np.loadtxt`` rejects
    in any block (a text cell further down a numeric-looking column, or a
    number only ``float()`` reads, such as ``1_000``).  That file goes
    through ``csv.reader`` cell by cell, which parses it or raises the error
    below, so every raw table gets the same errors.  Both paths give the
    same keys, dtypes, float64 bits and string cells, at any CPU count.

    Raises:
        EmptyFile: no header or fewer than 2 data rows.
        RaggedRow: a row whose field count differs from the header
            (carries the physical 1-based line number, blank lines counted).
        SchemaViolation: two header columns share a name, the file is not
            UTF-8, or ``csv.reader`` rejects a line (such as a cell over
            ``csv.field_size_limit()``).
        SefcError: a worker process exited without sending its blocks.
    """
    path = Path(path)
    table = _parse_plain(path, dialect, text_columns)
    return _parse_with_csv_reader(path, dialect, text_columns) if table is None else table


def _plain_dialect(dialect: CsvDialect) -> bool:
    # The decimal mark is rewritten across each block once NA cells read
    # "nan", so it must not be a letter of "nan".
    return dialect.delimiter.isascii() and dialect.decimal not in "nan"


class _Decline(Exception):
    """A block the one-pass parse cannot read exactly; its file goes to ``csv.reader``."""


def _blocks(raw: bytes, start: int = 0) -> Iterator[tuple[int, int]]:
    """The bounds of *raw* from *start* in runs of whole lines, each about
    ``_BLOCK_BYTES`` long."""
    while start < len(raw):
        stop = raw.find(b"\n", start + _BLOCK_BYTES - 1) + 1 or len(raw)
        yield start, stop
        start = stop


def _shared_table(rows: int, cols: int) -> np.ndarray:
    """A float64 array in an anonymous shared mapping: what a child forked
    after this call writes to it, this process reads."""
    if rows * cols == 0:
        return np.empty((rows, cols))
    return np.frombuffer(mmap.mmap(-1, 8 * rows * cols), dtype=np.float64).reshape(rows, cols)


def _parse_plain(path: Path, dialect: CsvDialect,
                 text_columns: Collection[str]) -> Optional[dict[str, np.ndarray]]:
    """The table of a well-formed plain file, its blocks of lines parsed on
    every CPU; None for any other file, which ``csv.reader`` then parses or
    diagnoses.
    """
    if not _plain_dialect(dialect):
        return None
    d = dialect.delimiter
    plain = _PLAIN_BYTES + d.encode()
    limit = csv.field_size_limit()
    na = set(dialect.na_tokens)
    raw = path.read_bytes()
    head = _LINE.match(raw)
    first = _LINE.match(raw, head.end())
    lines = [m[1].removesuffix(b"\r") for m in (head, first)]
    # csv.reader refuses a cell over the field limit; no cell is longer
    # than its line, so a longer line goes to csv.reader and fails the same way.
    if not lines[1] or any(line.translate(None, plain) or len(line) > limit for line in lines):
        return None
    header, cells = (line.decode("ascii").split(d) for line in lines)
    if len(cells) != len(header) or len(set(header)) < len(header):
        return None
    text_cols = [j for j, (name, cell) in enumerate(zip(header, cells))
                 if name in text_columns
                 or cell not in na and not _is_number(cell.replace(dialect.decimal, "."))]
    num_cols = [j for j in range(len(header)) if j not in text_cols]
    blocks, slot = [], 0   # (start, stop, slot of its first line) of each block of the body
    for start, stop in _blocks(raw, head.end()):
        blocks.append((start, stop, slot))
        slot += raw.count(b"\n", start, stop)
    values = _shared_table(len(num_cols), slot + 1)

    def parse_block(bounds) -> tuple[int, Optional[np.ndarray]]:
        """Write a block's numeric rows from its slot on; its row count and string cells."""
        start, stop, slot = bounds
        block = raw[start:stop]
        if b"\r" in block:
            # A bare \r stays and declines the file: csv.reader also ends a line there.
            block = block.replace(b"\r\n", b"\n")
        if block.translate(None, plain):
            raise _Decline
        body = [line for line in block.decode("ascii").split("\n") if line]
        del block
        if not body:
            return 0, None
        if max(map(len, body)) > limit or any(line.count(d) != len(header) - 1 for line in body):
            raise _Decline
        if num_cols:
            try:
                values[:, slot:slot + len(body)] = np.loadtxt(
                    _numeric_lines(body, dialect), dtype=np.float64, delimiter=d,
                    comments=None, usecols=num_cols, ndmin=2).T
            except ValueError:
                raise _Decline from None
        strings = None
        if text_cols:
            strings = np.loadtxt(body, dtype=object, delimiter=d, comments=None,
                                 usecols=text_cols, ndmin=2)
        return len(body), strings

    try:
        parsed = fork_map(parse_block, blocks)
    except _Decline:
        return None
    rows = 0
    for (_, _, slot), (n, _) in zip(blocks, parsed):
        if slot != rows:   # blank lines came before this block's rows
            values[:, rows:rows + n] = values[:, slot:slot + n]
        rows += n
    if rows < 2:
        return None
    table = dict(zip((header[j] for j in num_cols), values[:, :rows]))
    if text_cols:
        strings = np.concatenate([s for _, s in parsed if s is not None])
        for k, j in enumerate(text_cols):
            table[header[j]] = _parse_column([None if c in na else c for c in strings[:, k]],
                                             dialect.decimal, header[j] in text_columns)
    return {name: table[name] for name in header}


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _numeric_lines(body: list[str], dialect: CsvDialect) -> list[str]:
    """*body* with every NA cell rewritten to ``nan`` and the decimal mark to ``.``."""
    d = dialect.delimiter
    text = "\n".join(body)
    other = f"[^{re.escape(d)}\\n]"
    for token in dialect.na_tokens:
        # A plain cell holds neither the delimiter nor a line end, so a token
        # holding one never equals a cell, but could match across cells.
        if token and token != "nan" and d not in token and "\n" not in token:
            t = re.escape(token)
            text = re.sub(f"{t}(?<!{other}{t})(?!{other})", "nan", text)
    if dialect.decimal != ".":
        text = text.replace(dialect.decimal, ".")
    if "" in dialect.na_tokens:
        # An empty cell is a position with a cell edge (the delimiter, a line
        # end or the end of the text) on both sides.
        buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        del text
        edge = np.concatenate(([True], buf == ord(d), [True]))
        edge[1:-1] |= buf == ord("\n")
        at = np.flatnonzero(edge[:-1] & edge[1:])
        del edge
        if at.size:
            buf = np.insert(buf, np.repeat(at, 3), np.tile(_NAN, at.size))
        text = buf.tobytes().decode("ascii")
    return text.split("\n")


def _parse_with_csv_reader(path: Path, dialect: CsvDialect,
                           text_columns: Collection[str] = ()) -> dict[str, np.ndarray]:
    """The table of any file, cell by cell through ``csv.reader``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=dialect.delimiter)
        try:
            rows = [(reader.line_num, row) for row in reader if row]  # drop blank lines
        except UnicodeDecodeError as exc:
            raise SchemaViolation(
                f"{path}: not UTF-8 text ({exc.reason}: 0x{exc.object[exc.start]:02x})"
            ) from None
        except csv.Error as exc:
            raise SchemaViolation(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise EmptyFile(str(path))
    (_, header), data = rows[0], rows[1:]
    if len(data) < 2:
        raise EmptyFile(f"{path}: needs at least 2 data rows, got {len(data)}")
    for line_no, row in data:
        if len(row) != len(header):
            raise RaggedRow(line_no, len(header), len(row))
    names = [h.strip() for h in header]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise SchemaViolation(f"{path}: duplicate column name {name!r} in header")
        seen.add(name)
    na = set(dialect.na_tokens)
    table: dict[str, np.ndarray] = {}
    for j, name in enumerate(names):
        cells = [row[j].strip() for _, row in data]
        table[name] = _parse_column([None if v in na else v for v in cells], dialect.decimal,
                                    name in text_columns)
    return table


def _parse_column(cells: Sequence[Optional[str]], decimal: str, text: bool = False) -> np.ndarray:
    """*cells* as float64, NaN at None; as objects, each through ``_point_decimal``,
    when *text* or when a cell is not a number."""
    if not text:
        values = np.empty(len(cells), dtype=np.float64)
        try:
            for i, cell in enumerate(cells):
                values[i] = np.nan if cell is None else float(
                    cell if decimal == "." else cell.replace(decimal, "."))
            return values
        except ValueError:
            pass
    return np.asarray([_point_decimal(c, decimal) for c in cells], dtype=object)


def _point_decimal(cell: Optional[str], decimal: str) -> Optional[str]:
    """*cell* with its decimal mark rewritten to ``.`` when that makes it a number."""
    if cell is None or decimal == "." or decimal not in cell:
        return cell
    rewritten = cell.replace(decimal, ".")
    return rewritten if _is_number(rewritten) else cell


# ---------------------------------------------------------------------------
# resampling and gap filling
# ---------------------------------------------------------------------------

def resample(ep: Episode, target_hz: float) -> Episode:
    """Linearly interpolate every channel onto a uniform grid at target_hz.

    The new grid starts at t0 with spacing 1/target_hz and never extends
    beyond t_end. Phase labels are carried by the nearest source sample at
    or before each new timestamp (zero-order hold; phases are categorical).
    """
    if not 0 < target_hz < np.inf:
        raise ValueError(f"target_hz must be finite and positive, got {target_hz!r}")
    if ep.n_steps < 2:
        raise DegenerateEpisode(ep.episode_id)

    t0, t_end = ep.t[0], ep.t[-1]
    n_new = int(np.floor((t_end - t0) * target_hz + 1e-9)) + 1
    if n_new < 2:
        raise DegenerateEpisode(f"{ep.episode_id}: span too short for {target_hz} Hz")
    t_new = t0 + np.arange(n_new, dtype=np.float64) / target_hz

    channels = np.empty((n_new, ep.n_channels), dtype=np.float64)
    for j in range(ep.n_channels):
        channels[:, j] = np.interp(t_new, ep.t, ep.channels[:, j])

    left_idx = np.clip(np.searchsorted(ep.t, t_new + 1e-12, side="right") - 1, 0, None)
    phase = np.asarray(ep.phase)[left_idx]

    return ep.replace(rate_hz=target_hz, t=t_new, channels=channels, phase=phase)


def fill_gaps(ep: Episode, max_missing_fraction: float = 0.001) -> Episode:
    """Fill sensor dropouts (NaN cells) by linear interpolation.

    Interior runs are interpolated between the nearest valid neighbors;
    leading/trailing runs take the nearest valid value.  Channels with a
    modeling role whose missing fraction exceeds *max_missing_fraction*
    raise ExcessiveMissing; all-NaN carrier channels (e.g. a string label
    column coerced to NaN) are left untouched.  Idempotent.  Raises
    ValueError unless 0 <= *max_missing_fraction* <= 1.
    """
    if not 0 <= max_missing_fraction <= 1:
        raise ValueError(f"max_missing_fraction must be in [0, 1], got {max_missing_fraction!r}")
    channels = np.array(ep.channels, dtype=np.float64)
    T = ep.n_steps
    for j, desc in enumerate(ep.descriptors):
        col = channels[:, j]
        missing = ~np.isfinite(col)
        n_missing = int(missing.sum())
        if n_missing == 0:
            continue
        fraction = n_missing / T
        if n_missing == T:
            if desc.role in MODELING_ROLES:
                raise ExcessiveMissing(desc.canonical_name, 1.0)
            continue
        if fraction > max_missing_fraction:
            raise ExcessiveMissing(desc.canonical_name, fraction)
        valid = ~missing
        # np.interp extends with edge values, which is exactly the
        # leading/trailing nearest-value rule.
        channels[missing, j] = np.interp(
            ep.t[missing], ep.t[valid], col[valid]
        )
    return ep.replace(channels=channels)


# ---------------------------------------------------------------------------
# canonical episode files
# ---------------------------------------------------------------------------

def encode_phase_rle(phase: Iterable[str]) -> list[list]:
    return [[label, stop - start] for label, start, stop in phase_runs(phase)]


def decode_phase_rle(rle: Sequence[Sequence], n_steps: int) -> np.ndarray:
    """Phase labels from ``[label, count]`` runs; each count is an int >= 1."""
    if not isinstance(rle, (list, tuple)):
        raise SchemaViolation(f"phase RLE must be a list of [label, count] runs, got {rle!r}")
    for entry in rle:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise SchemaViolation(f"bad phase RLE entry: {entry!r}")
        count = entry[1]
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise SchemaViolation(f"phase RLE count must be an integer >= 1, got {count!r}")
    counts = [count for _, count in rle]
    if sum(counts) != n_steps:
        raise SchemaViolation(
            f"phase RLE decodes to {sum(counts)} labels for T={n_steps}"
        )
    return np.repeat(np.asarray([str(label) for label, _ in rle]),
                     np.asarray(counts, dtype=np.intp))


def sidecar_path_for(csv_path: Union[str, Path]) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + ".meta.yaml")


def write_canonical(ep: Episode, out_dir: Union[str, Path]) -> tuple[Path, Path]:
    """Write an episode as ``<id>.csv`` + ``<id>.meta.yaml`` under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{ep.episode_id}.csv"
    sidecar = sidecar_path_for(csv_path)

    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["t_s", *ep.channel_names]) + "\n")
        write_float_rows(fh, ep.t, ep.channels)

    meta = {
        "episode_id": ep.episode_id,
        "source_id": ep.source_id,
        "embodiment": ep.embodiment,
        "task": ep.task,
        "rate_hz": float(ep.rate_hz),
        "fault": ep.fault,
        "healthy": ep.healthy,
        "phase_rle": encode_phase_rle(ep.phase),
    }
    sidecar.write_text(dump_yaml(meta) + _channels_yaml(ep.descriptors), encoding="utf-8")
    return csv_path, sidecar


@functools.lru_cache(maxsize=16)
def _channels_yaml(descriptors: tuple[ChannelDescriptor, ...]) -> str:
    """The sidecar's ``channels:`` block, its last key.

    A block-style mapping dumps each top-level key on its own lines, so this
    text appended to the dump of the other keys is the dump of the whole
    sidecar.  Episodes of one layout share the block, so it is dumped once
    per layout.
    """
    return dump_yaml({
        "channels": [
            {
                "name": d.canonical_name,
                "role": d.role.value,
                "unit": d.unit,
                "axis": d.axis,
            }
            for d in descriptors
        ],
    })


# A column-0 ``channels:`` key: where the writer's last sidecar key starts.
_CHANNELS_KEY = re.compile(r"^channels:", re.MULTILINE)


def _descriptors(channels) -> tuple[ChannelDescriptor, ...]:
    return tuple(
        ChannelDescriptor(
            canonical_name=str(c["name"]),
            role=SignalRole(str(c["role"])),
            unit=str(c["unit"]),
            axis=None if c.get("axis") is None else int(c["axis"]),
        )
        for c in channels
    )


@functools.lru_cache(maxsize=16)
def _block_descriptors(block: str) -> Optional[tuple[ChannelDescriptor, ...]]:
    """The descriptors of a sidecar's ``channels:`` block, parsed once per layout.

    *block* is the sidecar text from its column-0 ``channels:`` line to the
    end.  None unless the block alone parses to that one key holding valid
    descriptors.  A block holding ``&`` or ``!`` may define an anchor or use
    a tag whose meaning depends on the rest of the file, so it gives None too.
    """
    if "&" in block or "!" in block:
        return None
    try:
        doc = load_yaml(block, "channels block")
        if not isinstance(doc, dict) or list(doc) != ["channels"]:
            return None
        return _descriptors(doc["channels"])
    except (SchemaViolation, KeyError, ValueError, TypeError):
        return None


def _load_sidecar(sidecar: Path) -> tuple[object, Optional[tuple[ChannelDescriptor, ...]]]:
    """The sidecar's document, and its descriptors when they were parsed apart.

    A sidecar in the writer's shape, with one column-0 ``channels:`` key and
    that key last, is parsed as its other keys followed by an empty
    ``channels:`` key, the context they have in the whole file, and its
    block through ``_block_descriptors``.  Any other sidecar, and one whose
    parts fail to parse, is parsed as one document, so every error keeps
    the whole-document text.
    """
    text = sidecar.read_text(encoding="utf-8")
    keys = [m.start() for m in _CHANNELS_KEY.finditer(text)]
    if len(keys) == 1:
        descs = _block_descriptors(text[keys[0]:])
        if descs is not None:
            try:
                meta = load_yaml(text[:keys[0]] + "channels:\n", sidecar)
            except SchemaViolation:
                meta = None
            if isinstance(meta, dict):
                return meta, descs
    return load_yaml(text, sidecar), None


def read_canonical(csv_path: Union[str, Path]) -> Episode:
    """Read a canonical episode and its sidecar, validating all invariants.

    Raises SchemaViolation when the data file and sidecar disagree, the
    sidecar's ``healthy`` is not a bool, its ``fault`` neither a string nor
    null, or the two disagree (``healthy`` must read ``fault is None``), or
    the decoded episode breaks an invariant.
    """
    csv_path = Path(csv_path)
    sidecar = sidecar_path_for(csv_path)
    meta, descs = _load_sidecar(sidecar)
    if not isinstance(meta, dict):
        raise SchemaViolation(f"{sidecar}: sidecar is not a mapping")

    try:
        if descs is None:
            descs = _descriptors(meta["channels"])
        episode_id = str(meta["episode_id"])
        source_id = str(meta["source_id"])
        embodiment = str(meta["embodiment"])
        task = str(meta["task"])
        rate_hz = float(meta["rate_hz"])
        fault = meta.get("fault")
        healthy = meta["healthy"]
        rle = meta["phase_rle"]
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaViolation(f"{sidecar}: {exc!r}") from exc
    if not isinstance(healthy, bool):
        raise SchemaViolation(f"{sidecar}: healthy must be true or false, got {healthy!r}")
    if not (fault is None or isinstance(fault, str)):
        raise SchemaViolation(f"{sidecar}: fault must be a string or null, got {fault!r}")
    if healthy != (fault is None):
        raise SchemaViolation(f"{csv_path}: healthy flag inconsistent with fault field")

    with open(csv_path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        body = fh.read()
    if not header_line:
        raise SchemaViolation(f"{csv_path}: empty data file")
    header = header_line.rstrip("\n").split(",")
    if header[0] != "t_s":
        raise SchemaViolation(f"{csv_path}: first column must be t_s")
    if tuple(header[1:]) != tuple(d.canonical_name for d in descs):
        raise SchemaViolation(
            f"{csv_path}: data columns do not match sidecar channel list"
        )
    data = read_float_rows(body, len(header), csv_path)
    t = np.ascontiguousarray(data[:, 0])
    channels = np.ascontiguousarray(data[:, 1:])

    try:
        phase = decode_phase_rle(rle, len(data))
    except SchemaViolation as exc:
        raise SchemaViolation(f"{sidecar}: {exc}") from None
    try:
        return Episode(
            episode_id=episode_id,
            source_id=source_id,
            embodiment=embodiment,
            task=task,
            rate_hz=rate_hz,
            t=t,
            channels=channels,
            descriptors=descs,
            phase=phase,
            fault=fault,
        )
    except SchemaViolation as exc:
        raise SchemaViolation(f"{csv_path}: {exc}") from None


def existing_dir(directory: Union[str, Path]) -> Path:
    """*directory* as a Path; one that is not a directory raises
    FileNotFoundError naming it."""
    if not Path(directory).is_dir():
        raise FileNotFoundError(f"{directory}: no such directory")
    return Path(directory)


def episode_files(directory: Union[str, Path]) -> list[Path]:
    """The ``*.csv`` files under an ``existing_dir``, sorted by filename."""
    return sorted(existing_dir(directory).glob("*.csv"))


def read_episode_dir(directory: Union[str, Path]) -> list[Episode]:
    """Read every canonical episode under a directory, in ``episode_files`` order."""
    return [read_canonical(p) for p in episode_files(directory)]


# ---------------------------------------------------------------------------
# pairing real and simulated episodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpisodePair:
    real: Episode
    sim: Episode
    pair_key: str


@dataclass(frozen=True)
class UnpairedReport:
    real_only: tuple[str, ...] = ()
    sim_only: tuple[str, ...] = ()


_PAIR_SUFFIXES = ("_twin", "_sim", "_real")


def default_pair_key(ep: Episode) -> str:
    key = ep.episode_id
    for suffix in _PAIR_SUFFIXES:
        if key.endswith(suffix):
            return key[: -len(suffix)]
    return key


def pair_episodes(
    real_set: Sequence[Episode], sim_set: Sequence[Episode]
) -> tuple[list[EpisodePair], UnpairedReport]:
    """Match real and simulated episodes on ``default_pair_key``.

    Raises DuplicateKey when a key repeats within one set; keys present on
    only one side land in the unpaired report.
    """
    def index(eps: Sequence[Episode], set_name: str) -> dict[str, Episode]:
        out: dict[str, Episode] = {}
        for ep in eps:
            key = default_pair_key(ep)
            if key in out:
                raise DuplicateKey(set_name, key)
            out[key] = ep
        return out

    real_by_key = index(real_set, "real")
    sim_by_key = index(sim_set, "sim")
    common = sorted(set(real_by_key) & set(sim_by_key))
    pairs = [EpisodePair(real_by_key[k], sim_by_key[k], k) for k in common]
    report = UnpairedReport(
        real_only=tuple(sorted(set(real_by_key) - set(sim_by_key))),
        sim_only=tuple(sorted(set(sim_by_key) - set(real_by_key))),
    )
    return pairs, report
