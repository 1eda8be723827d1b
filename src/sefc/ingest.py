"""Raw table parsing, resampling, gap filling, and canonical episode files.

A plain raw CSV is parsed a block of whole lines at a time into one
preallocated float64 array, so parse memory follows the parsed table, not
copies of the file's text; any other raw file goes through ``csv.reader``.

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
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

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
from .schema import MODELING_ROLES, ChannelDescriptor, Episode, SignalRole, phase_runs

DEFAULT_NA_TOKENS = ("", "NA", "N/A", "NaN", "nan", "null", "NULL")


@dataclass(frozen=True)
class CsvDialect:
    delimiter: str = ","
    decimal: str = "."
    na_tokens: tuple[str, ...] = DEFAULT_NA_TOKENS


# Bytes a plain file may hold besides its delimiter, once its \r\n line ends
# read \n: printable ASCII other than space and the quote character, and the
# \n line end.
_PLAIN_BYTES = bytes(range(0x21, 0x7F)).replace(b'"', b"") + b"\n"
_NAN = np.frombuffer(b"nan", dtype=np.uint8)
# Bytes of a plain file parsed at a time: enough lines per ``np.loadtxt``
# call to amortize it, few enough that the per-block text copies stay small
# next to the table.
_BLOCK_BYTES = 1 << 18


def parse_raw_csv(
    path: Union[str, Path], dialect: CsvDialect = CsvDialect()
) -> dict[str, np.ndarray]:
    """Parse a raw per-episode CSV into named columns.

    Numeric columns come back as float64 arrays with NaN at NA tokens;
    columns with any non-numeric cell come back as object arrays of
    ``str | None``.  Cells are stripped of surrounding whitespace before
    the NA check; the decimal mark is rewritten to ``.`` before ``float()``.
    In an object column a cell that reads as a number once its decimal mark
    is ``.`` holds that rewritten text.  Blank lines are skipped.

    A plain file (ASCII only, no quote character, no ``\\r`` outside a
    ``\\r\\n`` line end, no whitespace other than the delimiter and no line
    longer than ``csv.field_size_limit()``) is parsed in blocks of whole
    lines: per block, one ``np.loadtxt`` call over every numeric column,
    with NA cells rewritten to ``nan`` first, written into one preallocated
    float64 array, and one over the string columns, which are the columns
    whose first data cell is neither NA nor a number.  Its parse memory is the
    file's bytes, the table and one block's copies.  Any other file, and a
    plain file ``np.loadtxt`` rejects in any block (a text cell further
    down a numeric-looking column, or a number only ``float()`` reads, such
    as ``1_000``), goes through ``csv.reader`` cell by cell.  Both paths
    give the same keys, dtypes, float64 bits and string cells.

    Raises:
        EmptyFile: no header or fewer than 2 data rows.
        RaggedRow: a row whose field count differs from the header
            (carries the physical 1-based line number, blank lines counted).
        SchemaViolation: two header columns share a name, the file is not
            UTF-8, or ``csv.reader`` rejects a line (such as a cell over
            ``csv.field_size_limit()``).
    """
    path = Path(path)
    table = _parse_plain(path, dialect)
    return _parse_with_csv_reader(path, dialect) if table is None else table


def _plain_dialect(dialect: CsvDialect) -> bool:
    d, dec = dialect.delimiter, dialect.decimal
    if len(d) != 1 or not d.isascii() or d in '"\r\n':
        return False
    # The decimal mark is rewritten across each block once NA cells read
    # "nan", so it must not be the delimiter, a line end or a letter of "nan".
    return len(dec) == 1 and dec not in d + "\nnan"


def _blocks(raw: bytes) -> Iterator[bytes]:
    """*raw* in slices of whole lines, each about ``_BLOCK_BYTES`` long."""
    start = 0
    while start < len(raw):
        stop = raw.find(b"\n", start + _BLOCK_BYTES - 1) + 1 or len(raw)
        yield raw[start:stop]
        start = stop


def _parse_plain(path: Path, dialect: CsvDialect) -> Optional[dict[str, np.ndarray]]:
    """The table of a plain file, read in blocks of lines; None for any other file.

    Pass 1 checks every block and collects the header and the physical line
    number and field count of each data row; pass 2 parses each block's rows
    into one preallocated array of the numeric columns.
    """
    if not _plain_dialect(dialect):
        return None
    d = dialect.delimiter
    plain = _PLAIN_BYTES + d.encode()
    limit = csv.field_size_limit()
    # One copy at most, and none for a file without \r\n; a bare \r stays and
    # sends the file to csv.reader, which also ends a line there.
    raw = path.read_bytes().replace(b"\r\n", b"\n")
    header: Optional[list[str]] = None
    first = ""
    widths: list[tuple[int, int]] = []
    line_no = 0
    for block in _blocks(raw):
        if block.translate(None, plain):
            return None
        lines = block.decode("ascii").split("\n")
        # csv.reader refuses a cell over the field limit; no cell is longer
        # than its line, so a longer line goes to csv.reader and fails the same way.
        if max(map(len, lines)) > limit:
            return None
        for n, line in enumerate(lines, start=line_no + 1):
            if not line:
                continue
            if header is None:
                header = line.split(d)
                continue
            if not widths:
                first = line
            widths.append((n, line.count(d) + 1))
        # Only the last block may lack a final line end; in every other the
        # split's last item is the empty text after it.
        line_no += len(lines) - 1
    header = _checked_header(path, header, widths)
    na = set(dialect.na_tokens)
    text_cols = [
        j for j, cell in enumerate(first.split(d))
        if cell not in na and not _is_number(cell.replace(dialect.decimal, "."))
    ]
    num_cols = [j for j in range(len(header)) if j not in text_cols]
    values = np.empty((len(num_cols), len(widths)), dtype=np.float64)
    text_blocks = []
    row = 0
    skip_header = True
    for block in _blocks(raw):
        body = [line for line in block.decode("ascii").split("\n") if line]
        del block
        if skip_header and body:
            body, skip_header = body[1:], False
        if not body:
            continue
        if num_cols:
            try:
                values[:, row:row + len(body)] = np.loadtxt(
                    _numeric_lines(body, dialect), dtype=np.float64, delimiter=d,
                    comments=None, usecols=num_cols, ndmin=2).T
            except ValueError:
                return None
        if text_cols:
            text_blocks.append(np.loadtxt(body, dtype=object, delimiter=d, comments=None,
                                    usecols=text_cols, ndmin=2))
        row += len(body)
    table = dict(zip((header[j] for j in num_cols), values))
    if text_cols:
        cells = np.concatenate(text_blocks)
        for k, j in enumerate(text_cols):
            table[header[j]] = _parse_column(
                [None if c in na else c for c in cells[:, k]], dialect.decimal)
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


def _parse_with_csv_reader(path: Path, dialect: CsvDialect) -> dict[str, np.ndarray]:
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
    header = _checked_header(path, rows[0][1] if rows else None,
                             [(n, len(row)) for n, row in rows[1:]])
    data = [row for _, row in rows[1:]]
    na = set(dialect.na_tokens)
    table: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        cells = [row[j].strip() for row in data]
        table[name] = _parse_column([None if v in na else v for v in cells], dialect.decimal)
    return table


def _checked_header(path: Path, header: Optional[Sequence[str]],
                    widths: Sequence[tuple[int, int]]) -> list[str]:
    """The stripped header names, after the checks every raw table must pass.

    *header* is None for a file without a non-blank line; *widths* holds the
    physical line number and field count of each data row.
    """
    if header is None:
        raise EmptyFile(str(path))
    if len(widths) < 2:
        raise EmptyFile(f"{path}: needs at least 2 data rows, got {len(widths)}")
    for line_no, width in widths:
        if width != len(header):
            raise RaggedRow(line_no, len(header), width)
    names = [h.strip() for h in header]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise SchemaViolation(f"{path}: duplicate column name {name!r} in header")
        seen.add(name)
    return names


def _parse_column(cells: Sequence[Optional[str]], decimal: str) -> np.ndarray:
    values = np.empty(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        if cell is None:
            values[i] = np.nan
            continue
        s = cell if decimal == "." else cell.replace(decimal, ".")
        try:
            values[i] = float(s)
        except ValueError:
            return np.asarray([_point_decimal(c, decimal) for c in cells], dtype=object)
    return values


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
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
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
    column coerced to NaN) are left untouched.  Idempotent.
    """
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
        "healthy": bool(ep.healthy),
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

    Raises SchemaViolation when the data file and sidecar disagree or the
    decoded episode breaks an invariant.
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
        fault = None if fault is None else str(fault)
        healthy = bool(meta["healthy"])
        rle = meta["phase_rle"]
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaViolation(f"{sidecar}: {exc!r}") from exc

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
            healthy=healthy,
        )
    except SchemaViolation as exc:
        raise SchemaViolation(f"{csv_path}: {exc}") from None


def read_episode_dir(directory: Union[str, Path]) -> list[Episode]:
    """Read every canonical episode under a directory (sorted by filename)."""
    directory = Path(directory)
    return [read_canonical(p) for p in sorted(directory.glob("*.csv"))]


# ---------------------------------------------------------------------------
# pairing real and simulated episodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpisodePair:
    real: Episode
    sim: Episode
    pair_key: str

    def __post_init__(self):
        if self.real.task != self.sim.task:
            raise SchemaViolation(
                f"pair {self.pair_key!r}: task mismatch "
                f"({self.real.task} vs {self.sim.task})"
            )


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
