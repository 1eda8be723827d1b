import csv
import dataclasses
import importlib
import json
import os
import re
import time
import tracemalloc
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cpus, make_episode
from sefc import ingest, synthgen
from sefc.codec import dump_yaml, load_yaml
from sefc.errors import (
    DuplicateKey,
    EmptyFile,
    ExcessiveMissing,
    NonNumericColumn,
    RaggedRow,
    SchemaViolation,
    SefcError,
)
from sefc.ingest import (
    DEFAULT_NA_TOKENS,
    CsvDialect,
    decode_phase_rle,
    encode_phase_rle,
    fill_gaps,
    pair_episodes,
    parse_raw_csv,
    read_canonical,
    read_episode_dir,
    resample,
    sidecar_path_for,
    write_canonical,
)
from sefc.schema import (
    AdapterSpec, EpisodeMeta, SignalRole, SignalSpec, apply_adapter, builtin_adapter,
)

D = {"a": (SignalRole.SETPOINT, "rad", None),
     "b": (SignalRole.FEEDBACK, "rad", None),
     "c": (SignalRole.CONTEXT, "-", None)}

BENCH = Path(__file__).resolve().parents[1] / "bench"


def reference_parse_raw_csv(path, dialect=CsvDialect()):
    """The per-cell ``csv.reader`` parser as it was before the whole-array path.

    Kept verbatim as the reference: it numbers rows after dropping blank
    lines and lets a repeated header name overwrite the earlier column.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=dialect.delimiter)
        rows = list(reader)
    rows = [r for r in rows if r]  # drop blank lines
    if not rows:
        raise EmptyFile(str(path))
    header = [h.strip() for h in rows[0]]
    data = rows[1:]
    if len(data) < 2:
        raise EmptyFile(f"{path}: needs at least 2 data rows, got {len(data)}")
    n_cols = len(header)
    for line_no, row in enumerate(data, start=2):
        if len(row) != n_cols:
            raise RaggedRow(line_no, n_cols, len(row))

    na = set(dialect.na_tokens)
    table: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        cells: list[Optional[str]] = []
        for row in data:
            v = row[j].strip()
            cells.append(None if v in na else v)
        table[name] = _reference_parse_column(cells, dialect.decimal)
    return table


def _reference_parse_column(cells: Sequence[Optional[str]], decimal: str) -> np.ndarray:
    values = np.empty(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        if cell is None:
            values[i] = np.nan
            continue
        s = cell if decimal == "." else cell.replace(decimal, ".")
        try:
            values[i] = float(s)
        except ValueError:
            return np.asarray(cells, dtype=object)
    return values


def reference_table(path, dialect=CsvDialect()):
    """The reference reader's table under the decimal-mark rule for text columns.

    In a column that keeps its cells as text, a cell that reads as a number
    once its decimal mark is rewritten to ``.`` holds the rewritten text.
    """
    table = reference_parse_raw_csv(path, dialect)
    if dialect.decimal == ".":
        return table

    def point(cell):
        if cell is None:
            return None
        rewritten = cell.replace(dialect.decimal, ".")
        try:
            float(rewritten)
        except ValueError:
            return cell
        return rewritten

    return {name: np.asarray([point(c) for c in col], dtype=object) if col.dtype == object
            else col for name, col in table.items()}


def assert_same_table(got: dict, want: dict) -> None:
    """Same keys in the same order, same dtypes, bit-equal floats, equal cells."""
    assert list(got) == list(want)
    for name, col in want.items():
        assert got[name].dtype == col.dtype, name
        assert got[name].shape == col.shape, name
        if col.dtype == object:
            assert got[name].tolist() == col.tolist(), name
        else:
            assert got[name].view(np.uint64).tolist() == col.view(np.uint64).tolist(), name


def _numbers(decimal: str) -> st.SearchStrategy[str]:
    return st.one_of(
        st.integers(-10**6, 10**6).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.floats(-1e3, 1e3).map(lambda x: f"{x:.6g}"),
        st.sampled_from(["-0.0", "inf", "-inf", "+3", ".5", "1e5", "-nan", "1e400"]),
    ).map(lambda s: s.replace(".", decimal))


_ODD_CELLS = ["#", "1_000", "1.234,5", "alpha", "True", "N A", "-999", "nan", "NaN"]


@st.composite
def raw_csv_texts(draw, dialect: CsvDialect):
    """A raw CSV text in *dialect* and where its ragged row is, if it has one.

    The location is the row's physical 1-based line and the line the
    reference reader reports, which counts only non-blank lines.

    Columns are numeric, string, numeric-then-string or free-form; cells may
    be NA tokens or odd values, and blank lines may appear anywhere.  Half
    the texts are plain; the rest may also pad or quote cells (with the
    delimiter inside) and pad header names.  Lines end in LF, in CRLF or in
    a mix of both.
    """
    d = dialect.delimiter
    plain = draw(st.booleans())
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 6))
    na = st.sampled_from(dialect.na_tokens)
    number = _numbers(dialect.decimal)
    word = st.sampled_from(["alpha", "beta", "True", "none", "a#b"])
    odd = st.sampled_from([c for c in _ODD_CELLS if not plain or (d not in c and " " not in c)])
    kinds = draw(st.lists(st.sampled_from(["num"] * 3 + ["str", "num_then_str", "any"]),
                          min_size=n_cols, max_size=n_cols))

    def cell(kind: str, i: int) -> str:
        if kind == "num":
            c = draw(st.one_of(number, number, na))
        elif kind == "str":
            c = draw(st.one_of(word, na))
        elif kind == "num_then_str":
            c = draw(number if i == 0 else st.one_of(word, number))
        else:
            c = draw(st.one_of(number, na, word, odd))
        if plain:
            return c
        style = draw(st.sampled_from(["plain"] * 6 + ["padded", "quoted", "split"]))
        if style == "quoted" or d in c:
            return f'"{c}"'
        if style == "padded":
            return f" {c}\t"
        if style == "split":
            return f'"{c}{d}{c}"'
        return c

    header = [f"c{j}" if plain or draw(st.booleans()) else f" c{j} " for j in range(n_cols)]
    rows = [[cell(k, i) for k in kinds] for i in range(n_rows)]
    ragged = None
    if n_rows and draw(st.sampled_from([False] * 4 + [True])):
        ragged = draw(st.integers(0, n_rows - 1))
    if ragged is not None:
        if n_cols >= 3 and draw(st.booleans()):
            rows[ragged].pop()
        else:
            rows[ragged].append("1")
    lines = [d.join(header)] + [d.join(r) for r in rows]
    ragged_line = None
    physical: list[str] = []
    for k, line in enumerate(lines):
        physical.extend([""] * draw(st.sampled_from([0] * 4 + [1, 2])))
        physical.append(line)
        if ragged is not None and k == ragged + 1:
            ragged_line = len(physical)
    newline = draw(st.sampled_from(["\n", "\r\n", None]))   # None: drawn per line

    def line_end() -> str:
        return newline or draw(st.sampled_from(["\n", "\r\n"]))

    text = "".join(line + line_end() for line in physical[:-1]) + physical[-1]
    text += "".join(line_end() for _ in range(draw(st.sampled_from([1, 0, 2]))))
    # The reference numbers only non-blank lines; a one-column row holding the
    # empty NA token is a blank line too.
    old_line = None if ragged is None else 1 + sum(1 for line in lines[1:ragged + 2] if line)
    return text, (ragged_line, old_line)


def _no_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader called on a plain file")


COMMA = CsvDialect()
SEMICOLON = CsvDialect(delimiter=";", decimal=",")


class TestParseRawCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x,y,z\n" + "\n".join(f"{i},{i*2},{i*3}" for i in range(5)))
        table = parse_raw_csv(p, CsvDialect())
        assert set(table) == {"x", "y", "z"}
        assert all(len(v) == 5 for v in table.values())
        assert table["y"].tolist() == [0, 2, 4, 6, 8]

    def test_na_token_becomes_missing(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x,y\n1,2\n3,NaN\n5,6\n")
        table = parse_raw_csv(p, CsvDialect())
        assert np.isnan(table["y"][1])

    def test_ragged_row_line_number(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x,y\n1,2\n3\n5,6\n")
        with pytest.raises(RaggedRow) as exc:
            parse_raw_csv(p, CsvDialect())
        assert exc.value.line == 3

    def test_empty_file(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("")
        with pytest.raises(EmptyFile):
            parse_raw_csv(p, CsvDialect())

    def test_single_data_row_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x\n1\n")
        with pytest.raises(EmptyFile):
            parse_raw_csv(p, CsvDialect())

    def test_decimal_comma_dialect(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x;y\n1,5;2\n2,5;3\n")
        table = parse_raw_csv(p, CsvDialect(delimiter=";", decimal=","))
        assert table["x"].tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_decimal_comma_numbers_in_text_column(self, tmp_path, newline):
        p = tmp_path / "f.csv"
        p.write_bytes(newline.join(["x;tag", "1;0,25", "2;idle", "3;0,75", "4;1,2,3", ""]).encode())
        table = parse_raw_csv(p, SEMICOLON)
        assert table["tag"].tolist() == ["0.25", "idle", "0.75", "1,2,3"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_decimal_comma_mixed_columns_through_adapter(self, tmp_path, newline):
        spec = AdapterSpec("x", 10.0, (
            SignalSpec("eff", "effort_motor_torque_0", SignalRole.EFFORT, "Nm", 0),
            SignalSpec("ctx", "ctx_load", SignalRole.CONTEXT, "-", None),
        ), absent_channels=(), phase_column=None)
        meta = EpisodeMeta("e", "arm", "pick_and_place")
        p = tmp_path / "f.csv"
        p.write_bytes(newline.join(["eff;ctx", "0,5;0,25", "1,5;idle", "2,5;0,75", ""]).encode())
        ctx = apply_adapter(parse_raw_csv(p, SEMICOLON), spec, meta).channel("ctx_load")
        assert ctx[0] == 0.25 and np.isnan(ctx[1]) and ctx[2] == 0.75
        p.write_bytes(newline.join(["eff;ctx", "0,25;1", "abc;2", "0,75;3", ""]).encode())
        with pytest.raises(NonNumericColumn, match=r"'eff'.*row 1: 'abc'"):
            apply_adapter(parse_raw_csv(p, SEMICOLON), spec, meta)

    def test_string_column_kept_as_objects(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x,tag\n1,alpha\n2,beta\n")
        table = parse_raw_csv(p, CsvDialect())
        assert table["tag"].dtype == object
        assert table["tag"].tolist() == ["alpha", "beta"]


    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_ragged_row_line_counts_blank_lines(self, tmp_path, newline):
        p = tmp_path / "f.csv"
        p.write_bytes(newline.join(["x,y", "", "1,2", "", "3,4", "5", ""]).encode())
        with pytest.raises(RaggedRow) as exc:
            parse_raw_csv(p, CsvDialect())
        assert exc.value.line == 6

    @pytest.mark.parametrize("text", ["x,x\n1,2\n3,4\n", "x, x \r\n1,2\r\n3,4\r\n"])
    def test_duplicate_header_name_rejected(self, tmp_path, text):
        p = tmp_path / "f.csv"
        p.write_bytes(text.encode())
        with pytest.raises(SchemaViolation) as exc:
            parse_raw_csv(p, CsvDialect())
        assert str(p) in str(exc.value) and "'x'" in str(exc.value)

    @pytest.mark.parametrize("cell", ["9" * 200_000, '"' + "9" * 200_000 + '"'],
                             ids=["unquoted", "quoted"])
    def test_cell_over_field_limit_fails_on_both_paths(self, tmp_path, cell):
        p = tmp_path / "f.csv"
        p.write_text(f"time,x\n0,{cell}\n1,2\n2,3\n")
        with pytest.raises(SchemaViolation, match=rf"^{re.escape(str(p))}: line 2: "
                           r"field larger than field limit \(131072\)"):
            parse_raw_csv(p, CsvDialect())

    def test_line_over_field_limit_with_short_cells_parses(self, tmp_path):
        n = csv.field_size_limit() // 2 + 1
        p = tmp_path / "f.csv"
        p.write_text(",".join(f"c{j}" for j in range(n)) + "\n"
                     + ("1," * n)[:-1] + "\n" + ("2," * n)[:-1] + "\n")
        assert_same_table(parse_raw_csv(p, CsvDialect()), reference_table(p))

    @pytest.mark.parametrize("semicolon,dialect", [(False, COMMA), (True, SEMICOLON)])
    def test_benchmark_files_skip_csv_reader(self, tmp_path, monkeypatch, semicolon, dialect):
        # The benchmark's raw recordings must stay on the whole-array path:
        # with csv.reader unusable they still parse, to the reference table.
        monkeypatch.syspath_prepend(str(BENCH))
        inputs = importlib.import_module("inputs")
        p = tmp_path / "rec.csv"
        inputs.write_raw_voraus(p, seed=3, semicolon=semicolon)
        want = reference_table(p, dialect)
        monkeypatch.setattr(csv, "reader", _no_csv_reader)
        assert_same_table(parse_raw_csv(p, dialect), want)

    @pytest.mark.parametrize("dialect", [COMMA, SEMICOLON], ids=["comma", "semicolon"])
    def test_na_tokens_anywhere_skip_csv_reader(self, tmp_path, monkeypatch, dialect):
        dialect = dataclasses.replace(dialect, na_tokens=DEFAULT_NA_TOKENS + ("-999",))
        one = f"1{dialect.decimal}5"
        rows = ([[t, one, t] for t in dialect.na_tokens] + [[one, t, one] for t in dialect.na_tokens]
                + [["", "", ""], [one, f"-0{dialect.decimal}0", "inf"]])
        # Column s is a string column holding NA tokens and numbers below "tag".
        rows = [["a", "b", "c", "s"]] + [[*r, "tag" if i == 0 else r[0]] for i, r in enumerate(rows)]
        p = tmp_path / "f.csv"
        p.write_text("\n".join(dialect.delimiter.join(r) for r in rows) + "\n")
        want = reference_table(p, dialect)
        monkeypatch.setattr(csv, "reader", _no_csv_reader)
        assert_same_table(parse_raw_csv(p, dialect), want)

    @pytest.mark.parametrize("dialect,text", [
        (COMMA, "a,b\n1,2\n1_000,3\n"),  # float() reads 1_000, np.loadtxt does not
        (COMMA, "a,b\n1,2\nx,3\n"),  # a text cell below a numeric first cell
        (COMMA, "a,b\n#,2\n1,#\n"),
        (SEMICOLON, "a;b\n1,5;2\n1.234,5;3\n"),
        (COMMA, 'a,b\n"1,5",2\n3,"4"\n'),
        (COMMA, "a,b\r\n1,2\r3,4\r\n"),  # a bare CR ends a line for csv.reader
        (COMMA, "a,b\r1,2\r3,4\r"),
        (COMMA, "a,b\r\r\n1,2\r\n3,4\r\n"),
        (COMMA, "a,b\n 1 ,NA \n3,\t\n"),
    ])
    def test_cells_only_csv_reader_handles(self, tmp_path, dialect, text):
        p = tmp_path / "f.csv"
        p.write_bytes(text.encode())
        assert_same_table(parse_raw_csv(p, dialect), reference_table(p, dialect))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference_reader(self, tmp_path_factory, data):
        dialect = data.draw(st.sampled_from([
            COMMA, SEMICOLON,
            CsvDialect(na_tokens=DEFAULT_NA_TOKENS + ("-999",)),
            CsvDialect(";", ",", DEFAULT_NA_TOKENS + ("-999",)),
        ]))
        text, (ragged_line, old_line) = data.draw(raw_csv_texts(dialect))
        p = tmp_path_factory.mktemp("raw") / "f.csv"
        p.write_bytes(text.encode())
        try:
            want = reference_table(p, dialect)
        except (EmptyFile, RaggedRow) as exc:
            with pytest.raises(type(exc)) as got:
                parse_raw_csv(p, dialect)
            if isinstance(exc, RaggedRow):
                assert (exc.line, got.value.line) == (old_line, ragged_line)
            return
        assert_same_table(parse_raw_csv(p, dialect), want)


def _bench_inputs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("inputs")


def _csv_reader_spy(monkeypatch) -> list:
    """Record each ``csv.reader`` call; the reader itself still runs."""
    calls = []
    real = csv.reader

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", spy)
    return calls


def _rewrite_line_ends(path: Path, newline: str) -> None:
    """End the lines of *path* in LF, CRLF or, for "mixed", CRLF on every other line."""
    lines = path.read_bytes().split(b"\n")
    ends = {"lf": [b"\n"], "crlf": [b"\r\n"], "mixed": [b"\r\n", b"\n"]}[newline]
    path.write_bytes(b"".join(line + ends[k % len(ends)] for k, line in enumerate(lines[:-1]))
                     + lines[-1])


class TestCrlfLineEnds:
    """A CRLF line end reads as LF on the block path: same table and errors as
    ``csv.reader``, which still takes every file with a bare CR (see
    ``test_cells_only_csv_reader_handles``)."""

    @pytest.mark.parametrize("newline", ["crlf", "mixed"])
    @pytest.mark.parametrize("semicolon,dialect", [(False, COMMA), (True, SEMICOLON)])
    def test_benchmark_file_skips_csv_reader(self, tmp_path, monkeypatch, semicolon, dialect,
                                             newline):
        p = tmp_path / "rec.csv"
        _bench_inputs(monkeypatch).write_raw_voraus(p, seed=3, semicolon=semicolon)
        _rewrite_line_ends(p, newline)
        want = ingest._parse_with_csv_reader(p, dialect, text_columns=())
        monkeypatch.setattr(csv, "reader", _no_csv_reader)
        assert_same_table(parse_raw_csv(p, dialect), want)

    @pytest.mark.parametrize("newline", ["crlf", "mixed"])
    @pytest.mark.parametrize("block_bytes", [1, 7, 1 << 18])
    def test_ragged_row_line_matches_csv_reader(self, tmp_path, monkeypatch, newline,
                                                block_bytes):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        p = tmp_path / "f.csv"
        p.write_text("\nx,y\n1,2\n\n3,4\n\n5\n6,7\n")
        _rewrite_line_ends(p, newline)
        with pytest.raises(RaggedRow) as want:
            ingest._parse_with_csv_reader(p, COMMA, text_columns=())
        with pytest.raises(RaggedRow) as got:
            parse_raw_csv(p, CsvDialect())
        assert got.value.line == want.value.line == 7
        assert str(got.value) == str(want.value)


class TestParseBlocks:
    """A plain file is parsed a block of whole lines at a time; no block
    boundary may change the table, the error or the fallback."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_tiny_blocks_match_reference_reader(self, tmp_path_factory, data):
        dialect = data.draw(st.sampled_from([
            COMMA, SEMICOLON,
            CsvDialect(na_tokens=DEFAULT_NA_TOKENS + ("-999",)),
            CsvDialect(";", ",", DEFAULT_NA_TOKENS + ("-999",)),
        ]))
        text, (ragged_line, old_line) = data.draw(raw_csv_texts(dialect))
        block_bytes = data.draw(st.integers(1, 40))
        p = tmp_path_factory.mktemp("raw") / "f.csv"
        p.write_bytes(text.encode())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_BYTES", block_bytes)
            cpus(mp, data.draw(st.integers(1, 3)))   # blocks parsed by this process and children
            try:
                want = reference_table(p, dialect)
            except (EmptyFile, RaggedRow) as exc:
                with pytest.raises(type(exc)) as got:
                    parse_raw_csv(p, dialect)
                if isinstance(exc, RaggedRow):
                    assert (exc.line, got.value.line) == (old_line, ragged_line)
            else:
                assert_same_table(parse_raw_csv(p, dialect), want)
        with pytest.raises(ChildProcessError):   # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("block_bytes", [1, 5, 9])
    def test_ragged_row_in_later_block_after_blank_lines(self, tmp_path, monkeypatch,
                                                          block_bytes):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        p = tmp_path / "f.csv"
        p.write_text("x,y\n1,2\n3,4\n\n\n5,6\n\n7\n8,9\n")
        with pytest.raises(RaggedRow) as exc:
            parse_raw_csv(p, CsvDialect())
        assert exc.value.line == 8 and str(exc.value) == "line 8: expected 2 fields, got 1"

    @pytest.mark.parametrize("dialect", [COMMA, SEMICOLON], ids=["comma", "semicolon"])
    @pytest.mark.parametrize("na", ["", "NA"])
    def test_na_cell_first_or_last_in_block(self, tmp_path, monkeypatch, dialect, na):
        # one line per block: the NA cells sit at the edges of their blocks
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1)
        d, one = dialect.delimiter, f"1{dialect.decimal}5"
        rows = [["a", "b", "c"], [na, one, "2"], ["3", one, na], [na, na, na], [one, "4", "5"]]
        p = tmp_path / "f.csv"
        p.write_text("\n".join(d.join(r) for r in rows) + "\n")
        want = reference_table(p, dialect)
        monkeypatch.setattr(csv, "reader", _no_csv_reader)
        got = parse_raw_csv(p, dialect)
        assert_same_table(got, want)
        assert np.isnan(got["a"][[0, 2]]).all() and np.isnan(got["c"][[1, 2]]).all()

    @pytest.mark.parametrize("block_bytes", [1, 8, 1 << 18])
    def test_text_cell_in_later_block_falls_back(self, tmp_path, monkeypatch, block_bytes):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        p = tmp_path / "f.csv"
        p.write_text("a,b,tag\n1,2,x\n3,4,y\n5,6,z\n7,idle,w\n9,10,v\n")
        want = reference_table(p)
        calls = _csv_reader_spy(monkeypatch)
        got = parse_raw_csv(p, CsvDialect())
        assert_same_table(got, want)
        assert len(calls) == 1 and got["b"].dtype == object

    @pytest.mark.parametrize("block_bytes", [1, 3, 7, 64])
    def test_header_after_blank_lines(self, tmp_path, monkeypatch, block_bytes):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        p = tmp_path / "f.csv"
        p.write_text("\n\n\nt,x,tag\n0,1,a\n\n1,,b\n2,3,c\n")
        want = reference_table(p)
        monkeypatch.setattr(csv, "reader", _no_csv_reader)
        assert_same_table(parse_raw_csv(p, CsvDialect()), want)

    @pytest.mark.parametrize("block_bytes", [1, 4, 6, 100])
    @pytest.mark.parametrize("last", ["5,6", "5,", "5,NA"])
    def test_no_trailing_newline(self, tmp_path, monkeypatch, block_bytes, last):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1,2\n3,4\n" + last)
        want = reference_table(p)
        monkeypatch.setattr(csv, "reader", _no_csv_reader)
        assert_same_table(parse_raw_csv(p, CsvDialect()), want)

    def test_line_over_field_limit_in_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4)
        p = tmp_path / "f.csv"
        p.write_text("time,x\n0,1\n1,2\n\n2," + "9" * 200_000 + "\n3,4\n")
        calls = _csv_reader_spy(monkeypatch)
        with pytest.raises(SchemaViolation, match=rf"^{re.escape(str(p))}: line 5: "
                           r"field larger than field limit \(131072\)"):
            parse_raw_csv(p, CsvDialect())
        assert len(calls) == 1

    def test_long_line_of_short_cells_in_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4)
        n = csv.field_size_limit() // 2 + 1
        p = tmp_path / "f.csv"
        p.write_text(",".join(f"c{j}" for j in range(n)) + "\n" + ("1," * n)[:-1] + "\n"
                     + ("2," * n)[:-1] + "\n")
        assert_same_table(parse_raw_csv(p, CsvDialect()), reference_table(p))

    @pytest.mark.parametrize("block_bytes", [4, 1 << 18])
    @pytest.mark.parametrize("text", [
        "x,y\n1,2\n3,4\n\n5,6\n7\n8,9\n",
        "x,y\n\n1,2\n",
        "x,y,x\n1,2,3\n4,5,6\n",
        "\n\n",
    ], ids=["ragged_row_in_later_block", "one_data_row", "repeated_header_name",
            "no_header"])
    def test_defective_file_reaches_csv_reader_once(self, tmp_path, monkeypatch, block_bytes,
                                                    text):
        # The block path declines every defective file; csv.reader alone
        # raises the error, the same one for every raw table.
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        p = tmp_path / "f.csv"
        p.write_text(text)
        with pytest.raises(SefcError) as want:
            ingest._parse_with_csv_reader(p, COMMA, text_columns=())
        calls = _csv_reader_spy(monkeypatch)
        with pytest.raises(type(want.value)) as got:
            parse_raw_csv(p, CsvDialect())
        assert str(got.value) == str(want.value) and len(calls) == 1

    def test_benchmark_file_spans_several_blocks(self, tmp_path, monkeypatch):
        p = tmp_path / "rec.csv"
        _bench_inputs(monkeypatch).write_raw_voraus(p, seed=3, semicolon=False)
        assert len(list(ingest._blocks(p.read_bytes(), start=0))) > 1

    @pytest.mark.parametrize("newline", ["lf", "crlf", "mixed"])
    @pytest.mark.parametrize("semicolon,dialect", [(False, COMMA), (True, SEMICOLON)])
    def test_parse_memory_follows_the_table(self, tmp_path, monkeypatch, semicolon, dialect,
                                            newline):
        # Traced peak: the file's bytes and the float64 table, with room for
        # one block's copies; not several whole-file copies of the text.
        p = tmp_path / "rec.csv"
        _bench_inputs(monkeypatch).write_raw_voraus(p, seed=3, semicolon=semicolon)
        _rewrite_line_ends(p, newline)
        monkeypatch.setattr(csv, "reader", _no_csv_reader)
        parse_raw_csv(p, dialect)
        tracemalloc.start()
        try:
            table = parse_raw_csv(p, dialect)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        numeric = [c for c in table.values() if c.dtype == np.float64]
        rows = len(numeric[0])
        assert peak <= 1.5 * (p.stat().st_size + 8 * rows * len(numeric))


    @pytest.mark.parametrize("newline", ["lf", "crlf"])
    @pytest.mark.parametrize("semicolon,dialect", [(False, COMMA), (True, SEMICOLON)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_parse_memory_counts_the_shared_table(self, tmp_path, monkeypatch, semicolon,
                                                  dialect, newline, k):
        # The table lives in a shared mapping that tracemalloc does not see:
        # the traced peak plus the table stays within the bound above.
        p = tmp_path / "rec.csv"
        _bench_inputs(monkeypatch).write_raw_voraus(p, seed=3, semicolon=semicolon)
        _rewrite_line_ends(p, newline)
        monkeypatch.setattr(csv, "reader", _no_csv_reader)
        cpus(monkeypatch, k)
        parse_raw_csv(p, dialect)
        tracemalloc.start()
        try:
            table = parse_raw_csv(p, dialect)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        numeric = [c for c in table.values() if c.dtype == np.float64]
        rows = len(numeric[0])
        assert peak + sum(c.nbytes for c in numeric) <= 1.5 * (p.stat().st_size
                                                               + 8 * rows * len(numeric))


@pytest.mark.usefixtures("no_child_left")
class TestParseOnEveryCore:
    """A plain file's blocks are parsed with one process per CPU of the
    affinity mask, each writing into one shared table: neither the table nor
    any error depends on the CPU count."""

    @staticmethod
    def _patch_blocks(monkeypatch, before):
        """Make the numeric parse of each block call ``before()`` first."""
        real = ingest._numeric_lines

        def patched(body, dialect):
            before()
            return real(body, dialect)

        monkeypatch.setattr(ingest, "_numeric_lines", patched)

    @pytest.mark.parametrize("newline", ["lf", "crlf", "mixed"])
    @pytest.mark.parametrize("semicolon,dialect", [(False, COMMA), (True, SEMICOLON)])
    def test_tables_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch, semicolon, dialect,
                                               newline):
        p = tmp_path / "rec.csv"
        _bench_inputs(monkeypatch).write_raw_voraus(p, seed=3, semicolon=semicolon)
        lines = p.read_bytes().split(b"\n")
        for at in (1900, 700, 1):   # blank lines after the header and between rows
            lines[at:at] = [b""] * 3
        p.write_bytes(b"\n".join(lines))
        _rewrite_line_ends(p, newline)
        want = ingest._parse_with_csv_reader(p, dialect, text_columns=())
        monkeypatch.setattr(csv, "reader", _no_csv_reader)
        blocks = []
        for k in (1, 2, 3):
            cpus(monkeypatch, k)
            log = tmp_path / f"pids{k}"

            def note(log=log):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")

            self._patch_blocks(monkeypatch, note)
            assert_same_table(parse_raw_csv(p, dialect), want)
            pids = log.read_text().split()
            assert len(set(pids)) == k and str(os.getpid()) in pids
            blocks.append(len(pids))
        assert blocks[0] > 3 and blocks == blocks[:1] * 3

    def test_file_of_one_block_does_not_fork(self, tmp_path, monkeypatch):
        def fork():
            raise AssertionError("a one-block file forked")

        cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fork)
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        assert parse_raw_csv(p, CsvDialect())["b"].tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("text,error,message", [
        ("x,y\n1,2\n3,4\n\n5,6\n7\n8,9\n", RaggedRow, "line 6: expected 2 fields, got 1"),
        ("x,y\n\n1,2\n\n\n", EmptyFile, "needs at least 2 data rows, got 1"),
        ("time,x\n0,1\n1,2\n\n2," + "9" * 200_000 + "\n3,4\n", SchemaViolation,
         "line 5: field larger than field limit (131072)"),
    ], ids=["ragged_row", "one_data_row", "cell_over_field_limit"])
    def test_errors_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch, text, error,
                                               message):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4)
        p = tmp_path / "f.csv"
        p.write_text(text)
        calls = _csv_reader_spy(monkeypatch)
        for k in (1, 2, 3):
            cpus(monkeypatch, k)
            with pytest.raises(error) as exc:
                parse_raw_csv(p, CsvDialect())
            assert str(exc.value).endswith(message)
        assert len(calls) == 3

    def test_text_cell_in_later_block_falls_back_at_every_cpu_count(self, tmp_path,
                                                                    monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 8)
        p = tmp_path / "f.csv"
        p.write_text("a,b,tag\n1,2,x\n3,4,y\n5,6,z\n7,idle,w\n9,10,v\n")
        want = reference_table(p)
        calls = _csv_reader_spy(monkeypatch)
        for k in (1, 2, 3):
            cpus(monkeypatch, k)
            assert_same_table(parse_raw_csv(p, CsvDialect()), want)
        assert len(calls) == 3

    def test_child_without_result_is_one_failure_line(self, tmp_path, monkeypatch, capsys):
        from sefc.cli import main

        parent = os.getpid()

        def die_in_child():
            if os.getpid() != parent:
                os._exit(3)

        raw = tmp_path / "raw"
        raw.mkdir()
        _bench_inputs(monkeypatch).write_raw_voraus(raw / "rec.csv", seed=3, semicolon=False)
        cpus(monkeypatch, 2)
        self._patch_blocks(monkeypatch, die_in_child)
        assert main(["ingest", "--raw-dir", str(raw), "--adapter", "voraus_ad",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("failures:\n  rec.csv: worker process ") and err.count("\n") == 2
        assert "status 3" in err

    def test_interrupt_kills_and_reaps_every_child(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def stall_in_child_interrupt_here():
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        p = tmp_path / "rec.csv"
        _bench_inputs(monkeypatch).write_raw_voraus(p, seed=3, semicolon=False)
        cpus(monkeypatch, 3)
        self._patch_blocks(monkeypatch, stall_in_child_interrupt_here)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            parse_raw_csv(p, CsvDialect())
        assert time.monotonic() - t0 < 30


class TestTextColumns:
    """A column the caller names as text keeps its cells as ``str | None``,
    on the block path and through ``csv.reader`` alike."""

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "csv_reader"])
    @pytest.mark.parametrize("dialect", [COMMA, SEMICOLON], ids=["comma", "semicolon"])
    def test_numeric_cells_stay_text(self, tmp_path, monkeypatch, dialect, quote):
        d, dec = dialect.delimiter, dialect.decimal
        rows = [["t", "phase", "x"], [f"{quote}0{quote}", "1", "5"], ["1", "1", "6"],
                ["2", "NA", "7"], ["3", f"2{dec}5", ""], ["4", "02", "9"]]
        p = tmp_path / "f.csv"
        p.write_text("\n".join(d.join(r) for r in rows) + "\n")
        calls = _csv_reader_spy(monkeypatch)
        table = parse_raw_csv(p, dialect, {"phase", "absent"})
        assert table["phase"].dtype == object
        assert table["phase"].tolist() == ["1", "1", None, "2.5", "02"]
        assert table["x"].dtype == np.float64 and np.isnan(table["x"][3])
        assert len(calls) == (1 if quote else 0)

    @pytest.mark.parametrize("block_bytes", [1, 7, 1 << 18])
    def test_named_column_matches_an_unnamed_text_column(self, tmp_path, monkeypatch,
                                                         block_bytes):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1,x\n2,3\n\n,4\n")
        text = parse_raw_csv(p, CsvDialect())
        p.write_text("a,b\n1,1\n2,3\n\n,4\n")
        named = parse_raw_csv(p, COMMA, ["b"])
        assert named["b"].tolist() == ["1", "3", "4"] and text["b"].tolist() == ["x", "3", "4"]
        assert named["a"].view(np.uint64).tolist() == text["a"].view(np.uint64).tolist()


class TestResample:
    def test_linear_signal_exact(self):
        t = np.arange(61) / 60.0
        ep = make_episode({"a": 2 * t, "b": -t, "c": np.ones_like(t)}, D, rate_hz=60.0)
        out = resample(ep, 100.0)
        assert out.n_steps == 101
        assert np.abs(out.channel("a") - 2 * out.t).max() <= 1e-12
        assert np.abs(out.channel("b") + out.t).max() <= 1e-12

    def test_identity_rate(self):
        t = np.arange(61) / 60.0
        ep = make_episode({"a": np.sin(t), "b": t, "c": t}, D, rate_hz=60.0)
        out = resample(ep, 60.0)
        assert np.abs(out.channels - ep.channels).max() <= 1e-12

    def test_sine_interpolation_error_bound(self):
        # linear interpolation of A sin(2 pi f t): error <= (2 pi f)^2 / (2 rate^2)
        f = 1.0
        t = np.arange(121) / 60.0
        ep = make_episode({"a": np.sin(2 * np.pi * f * t), "b": t, "c": t},
                          D, rate_hz=60.0)
        out = resample(ep, 100.0)
        direct = np.sin(2 * np.pi * f * out.t)
        bound = (2 * np.pi * f) ** 2 / (2 * 60.0 ** 2)
        assert np.abs(out.channel("a") - direct).max() <= bound

    def test_endpoints_and_descriptors_preserved(self):
        t = np.arange(61) / 60.0
        ep = make_episode({"a": t, "b": t, "c": t}, D, rate_hz=60.0)
        out = resample(ep, 100.0)
        assert out.t[0] == ep.t[0] and abs(out.t[-1] - ep.t[-1]) <= 1e-12
        assert out.descriptors == ep.descriptors

    def test_round_trip_100_60_100_linear(self):
        t = np.arange(301) / 100.0
        ep = make_episode({"a": 3 * t - 1, "b": t, "c": t}, D, rate_hz=100.0)
        back = resample(resample(ep, 60.0), 100.0)
        assert back.n_steps == ep.n_steps
        assert np.abs(back.channel("a") - ep.channel("a")).max() <= 1e-10

    def test_phase_nearest_left(self):
        t = np.arange(6) / 10.0
        ep = make_episode({"a": t, "b": t, "c": t}, D, rate_hz=10.0,
                          phase=["p0", "p0", "p0", "p1", "p1", "p1"])
        out = resample(ep, 20.0)
        # new sample at 0.25 s sits between source steps 2 (p0) and 3 (p1)
        k = int(round(0.25 * 20))
        assert out.phase[k] == "p0"
        assert out.phase[int(round(0.3 * 20))] == "p1"

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0])
    def test_rate_must_be_finite_and_positive(self, rate):
        t = np.arange(61) / 60.0
        ep = make_episode({"a": t, "b": t, "c": t}, D, rate_hz=60.0)
        with pytest.raises(ValueError, match="target_hz must be finite and positive"):
            resample(ep, rate)


class TestFillGaps:
    def test_midpoint_interpolation(self):
        col = np.array([1.0, np.nan, 3.0])
        ep = make_episode({"a": col, "b": np.ones(3), "c": np.ones(3)}, D,
                          rate_hz=10.0)
        out = fill_gaps(ep, max_missing_fraction=0.5)
        assert out.channel("a").tolist() == [1.0, 2.0, 3.0]

    def test_no_missing_unchanged(self):
        ep = make_episode({"a": np.arange(4.0), "b": np.ones(4), "c": np.ones(4)}, D)
        out = fill_gaps(ep, max_missing_fraction=0.001)
        assert np.array_equal(out.channels, ep.channels)

    def test_excessive_missing(self):
        col = np.ones(100)
        col[10:15] = np.nan  # 5 percent
        ep = make_episode({"a": col, "b": np.ones(100), "c": np.ones(100)}, D)
        with pytest.raises(ExcessiveMissing) as exc:
            fill_gaps(ep, max_missing_fraction=0.001)
        assert exc.value.channel == "a"
        assert exc.value.fraction == pytest.approx(0.05)

    def test_leading_trailing_nearest_value(self):
        col = np.array([np.nan, 2.0, 3.0, np.nan])
        ep = make_episode({"a": col, "b": np.ones(4), "c": np.ones(4)}, D)
        out = fill_gaps(ep, max_missing_fraction=0.5)
        assert out.channel("a").tolist() == [2.0, 2.0, 3.0, 3.0]

    def test_idempotent(self):
        col = np.array([1.0, np.nan, 4.0, 5.0])
        ep = make_episode({"a": col, "b": np.ones(4), "c": np.ones(4)}, D)
        once = fill_gaps(ep, 0.5)
        twice = fill_gaps(once, 0.5)
        assert np.array_equal(once.channels, twice.channels)

    def test_all_nan_carrier_channel_skipped(self):
        descs = dict(D)
        descs["lbl"] = (SignalRole.RAW_LABEL, "-", None)
        ep = make_episode({"a": np.ones(4), "b": np.ones(4), "c": np.ones(4),
                           "lbl": np.full(4, np.nan)}, descs)
        out = fill_gaps(ep, max_missing_fraction=0.001)
        assert np.all(np.isnan(out.channel("lbl")))

    @pytest.mark.parametrize("fraction", [np.nan, np.inf, -0.1, 1.5])
    def test_fraction_must_be_in_unit_interval(self, fraction):
        col = np.ones(100)
        col[10:20] = np.nan  # 10 percent
        ep = make_episode({"a": col, "b": np.ones(100), "c": np.ones(100)}, D)
        with pytest.raises(ValueError, match=r"max_missing_fraction must be in \[0, 1\]"):
            fill_gaps(ep, fraction)


class TestCanonicalFiles:
    def test_round_trip_exact(self, tmp_path, noisy_episode):
        csv_path, sidecar = write_canonical(noisy_episode, tmp_path)
        back = read_canonical(csv_path)
        assert np.abs(back.channels - noisy_episode.channels).max() <= 1e-12
        assert np.abs(back.t - noisy_episode.t).max() <= 1e-12
        assert back.episode_id == noisy_episode.episode_id
        assert back.descriptors == noisy_episode.descriptors
        assert list(back.phase) == list(noisy_episode.phase)
        assert back.fault == noisy_episode.fault

    def test_sidecar_channel_count_mismatch(self, tmp_path):
        ep = make_episode({"a": np.arange(4.0), "b": np.ones(4), "c": np.ones(4)}, D)
        csv_path, sidecar = write_canonical(ep, tmp_path)
        text = csv_path.read_text().splitlines()
        text[0] += ",extra"
        text[1:] = [line + ",0" for line in text[1:]]
        csv_path.write_text("\n".join(text) + "\n")
        with pytest.raises(SchemaViolation):
            read_canonical(csv_path)

    @pytest.mark.parametrize("rate", [".nan", ".inf"])
    def test_non_finite_sidecar_rate_raises(self, tmp_path, rate):
        ep = make_episode({"a": np.arange(4.0), "b": np.ones(4), "c": np.ones(4)}, D)
        csv_path, sidecar = write_canonical(ep, tmp_path)
        text = sidecar.read_text()
        assert "\nrate_hz: 100.0\n" in text
        sidecar.write_text(text.replace("\nrate_hz: 100.0\n", f"\nrate_hz: {rate}\n"))
        with pytest.raises(SchemaViolation, match="rate_hz must be finite and positive"):
            read_canonical(csv_path)

    def test_missing_directory_raises_naming_it(self, tmp_path):
        missing = tmp_path / "nope"
        with pytest.raises(FileNotFoundError) as err:
            read_episode_dir(missing)
        assert str(err.value) == f"{missing}: no such directory"

    def test_phase_rle_decode(self):
        phase = decode_phase_rle([("above_pick", 50), ("return", 50)], 100)
        assert len(phase) == 100
        assert phase[0] == "above_pick" and phase[-1] == "return"

    def test_phase_rle_length_mismatch(self):
        with pytest.raises(SchemaViolation):
            decode_phase_rle([("a", 10)], 12)

    @given(st.lists(st.sampled_from(["p0", "p1", "p2"]), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_phase_rle_round_trip(self, labels):
        rle = encode_phase_rle(labels)
        assert list(decode_phase_rle(rle, len(labels))) == labels

    @given(st.lists(st.tuples(st.one_of(st.text(max_size=6), st.integers(-50, 50), st.none()),
                              st.integers(1, 30)).map(list), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_phase_rle_decode_matches_list_build(self, rle):
        labels: list[str] = []
        for label, count in rle:
            labels.extend([str(label)] * count)
        want = np.asarray(labels)
        got = decode_phase_rle(rle, len(labels))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tolist() == want.tolist()


class TestCanonicalReadErrors:
    """Malformed canonical files: each case raises SchemaViolation or reads
    exactly as the per-cell csv.reader + float() reader did."""

    @pytest.fixture
    def written(self, tmp_path):
        ep = make_episode({"a": np.arange(4.0), "b": np.ones(4), "c": np.ones(4)}, D)
        csv_path, _ = write_canonical(ep, tmp_path)
        return ep, csv_path

    @staticmethod
    def _edit_lines(csv_path, edit):
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(edit(lines)))

    def test_malformed_sidecar_yaml(self, written):
        _, csv_path = written
        sidecar = sidecar_path_for(csv_path)
        sidecar.write_text("episode_id: [unclosed\nchannels: {\n")
        with pytest.raises(SchemaViolation, match=re.escape(str(sidecar))):
            read_canonical(csv_path)

    def test_first_column_not_t_s(self, written):
        _, csv_path = written
        self._edit_lines(csv_path, lambda ls: ["time" + ls[0][3:]] + ls[1:])
        with pytest.raises(SchemaViolation, match="t_s"):
            read_canonical(csv_path)

    def test_ragged_row(self, written):
        _, csv_path = written
        self._edit_lines(csv_path, lambda ls: ls[:2] + ["0.01,1,1\n"] + ls[3:])
        with pytest.raises(SchemaViolation):
            read_canonical(csv_path)

    def test_extra_cell_on_every_row(self, written):
        _, csv_path = written
        self._edit_lines(csv_path, lambda ls: ls[:1] + [l[:-1] + ",0\n" for l in ls[1:]])
        with pytest.raises(SchemaViolation):
            read_canonical(csv_path)

    def test_non_numeric_cell(self, written):
        _, csv_path = written
        self._edit_lines(csv_path, lambda ls: ls[:2] + ["0.01,abc,1,1\n"] + ls[3:])
        with pytest.raises(SchemaViolation):
            read_canonical(csv_path)

    def test_empty_file(self, written):
        _, csv_path = written
        csv_path.write_text("")
        with pytest.raises(SchemaViolation, match="empty"):
            read_canonical(csv_path)

    def test_header_only(self, written):
        _, csv_path = written
        self._edit_lines(csv_path, lambda ls: ls[:1])
        with pytest.raises(SchemaViolation):
            read_canonical(csv_path)

    def test_no_trailing_newline_reads_the_same(self, written):
        ep, csv_path = written
        csv_path.write_text(csv_path.read_text().rstrip("\n"))
        back = read_canonical(csv_path)
        assert np.array_equal(back.t, ep.t)
        assert np.array_equal(back.channels, ep.channels)

    def test_blank_line_inside_body(self, written):
        _, csv_path = written
        self._edit_lines(csv_path, lambda ls: ls[:2] + ["\n"] + ls[2:])
        with pytest.raises(SchemaViolation):
            read_canonical(csv_path)

    def test_blank_line_after_body(self, written):
        _, csv_path = written
        csv_path.write_text(csv_path.read_text() + "\n")
        with pytest.raises(SchemaViolation):
            read_canonical(csv_path)

    @staticmethod
    def _edit_sidecar(csv_path, edit):
        sidecar = sidecar_path_for(csv_path)
        meta = load_yaml(sidecar.read_text(), sidecar)
        edit(meta)
        sidecar.write_text(dump_yaml(meta))
        return sidecar

    @pytest.mark.parametrize("rle", [
        [["p0", "many"], ["p1", 2]],
        [["p0", 2.5], ["p1", 2]],
        [["p0", 2.0], ["p1", 2]],
        [["p0", "2"], ["p1", 2]],
        [["p0", True], ["p1", 3]],
        [["p0", 0], ["p1", 4]],
        [["p0", -1], ["p1", 5]],
        [["p0"], ["p1", 4]],
        [["p0", 2, 2], ["p1", 2]],
        [7],
        "p0",
        None,
        [["p0", 2], ["p1", 3]],
    ], ids=["word", "fraction", "integral_float", "digit_string", "bool", "zero", "negative",
            "one_item", "three_items", "scalar_entry", "string", "null", "length_mismatch"])
    def test_bad_phase_rle_names_sidecar(self, written, rle):
        _, csv_path = written
        sidecar = self._edit_sidecar(csv_path, lambda meta: meta.update(phase_rle=rle))
        with pytest.raises(SchemaViolation, match=f"^{re.escape(str(sidecar))}: "):
            read_canonical(csv_path)

    @pytest.mark.parametrize("labels, key", [
        ({"healthy": 0, "fault": 3}, "healthy"),
        ({"healthy": False, "fault": 3}, "fault"),
        ({"healthy": False, "fault": ["collision"]}, "fault"),
        ({"healthy": 0, "fault": "collision"}, "healthy"),
        ({"healthy": "yes"}, "healthy"),
    ], ids=["int_labels", "int_fault", "list_fault", "int_healthy", "string_healthy"])
    def test_mistyped_label_names_sidecar_and_key(self, written, labels, key):
        _, csv_path = written
        sidecar = self._edit_sidecar(csv_path, lambda meta: meta.update(labels))
        with pytest.raises(SchemaViolation, match=f"^{re.escape(str(sidecar))}: {key} must be "):
            read_canonical(csv_path)

    @pytest.mark.parametrize("labels", [
        {"healthy": False, "fault": "not_a_fault"},
        {"healthy": False, "fault": "missing_peg"},   # a peg_in_hole type
    ], ids=["not_in_taxonomy", "other_task"])
    def test_fault_outside_the_task_taxonomy_names_sidecar(self, written, labels):
        _, csv_path = written
        sidecar = self._edit_sidecar(csv_path, lambda meta: meta.update(labels))
        with pytest.raises(SchemaViolation, match=(
                f"^{re.escape(str(sidecar))}: fault must be null or a fault type of task "
                f"'pick_and_place', got '{labels['fault']}'$")):
            read_canonical(csv_path)

    def test_fault_of_the_task_reads(self, written):
        _, csv_path = written
        self._edit_sidecar(csv_path, lambda meta: meta.update(healthy=False, fault="missing_box"))
        assert read_canonical(csv_path).fault == "missing_box"

    def test_duplicate_channel_name(self, written):
        _, csv_path = written
        self._edit_sidecar(csv_path, lambda meta: meta["channels"][2].update(name="b"))
        self._edit_lines(csv_path, lambda ls: ["t_s,a,b,b\n"] + ls[1:])
        with pytest.raises(SchemaViolation, match="channel name 'b' appears twice"):
            read_canonical(csv_path)

    @pytest.mark.parametrize("sidecar_edit, lines_edit, reason", [
        (lambda meta: meta.update(task="juggling"), None, "unknown task 'juggling'"),
        (None, lambda ls: ls[:3] + ["0.025" + ls[3][ls[3].index(","):]] + ls[4:],
         "time base is not uniform"),
        (lambda meta: meta.update(healthy=False), None, "healthy flag inconsistent"),
    ], ids=["unknown_task", "non_uniform_time_base", "healthy_without_fault"])
    def test_episode_invariant_names_file(self, written, sidecar_edit, lines_edit, reason):
        _, csv_path = written
        if sidecar_edit:
            self._edit_sidecar(csv_path, sidecar_edit)
        if lines_edit:
            self._edit_lines(csv_path, lines_edit)
        with pytest.raises(SchemaViolation, match=f"^{re.escape(str(csv_path))}: {reason}"):
            read_canonical(csv_path)


def _read_outcome(csv_path):
    """The decoded episode's fields, or the type and text of the error."""
    try:
        ep = read_canonical(csv_path)
    except Exception as exc:
        return type(exc), str(exc)
    return (ep.episode_id, ep.source_id, ep.embodiment, ep.task, ep.rate_hz, ep.fault,
            ep.healthy, ep.descriptors, ep.phase.dtype, ep.phase.tolist(),
            ep.t.view(np.uint64).tolist(), ep.channels.view(np.uint64).tolist())


class TestSidecarChannelBlock:
    """``read_canonical`` parses each distinct ``channels:`` block once; every
    sidecar still reads as its whole-document parse does, errors included."""

    @staticmethod
    def assert_reads_as_whole_document(csv_path, monkeypatch, split: bool):
        """*csv_path* reads as with the block parse turned off; *split* says
        whether its sidecar takes the block parse."""
        sidecar = sidecar_path_for(csv_path)
        try:
            assert (ingest._load_sidecar(sidecar)[1] is not None) == split
        except SchemaViolation:
            assert not split
        got = _read_outcome(csv_path)
        with monkeypatch.context() as mp:
            mp.setattr(ingest, "_block_descriptors", lambda block: None)
            want = _read_outcome(csv_path)
        assert got == want
        return got

    @pytest.mark.parametrize("seed,fault", [
        (3, None), (19, "additional_axis_payload"), (55, "gripper_release_mid_motion"),
    ])
    def test_synthetic_sidecars(self, tmp_path, monkeypatch, seed, fault):
        ep = synthgen.generate_episode(seed, fault=fault, episode_id=f"s{seed}")
        csv_path, _ = write_canonical(ep, tmp_path)
        got = self.assert_reads_as_whole_document(csv_path, monkeypatch, split=True)
        assert got[7] == ep.descriptors and got[9] == ep.phase.tolist()

    def test_ingested_sidecar(self, tmp_path, monkeypatch):
        table = parse_raw_csv(Path(__file__).parent / "fixtures" / "voraus_sample.csv",
                              CsvDialect())
        ep = apply_adapter(table, builtin_adapter("voraus_ad"),
                           EpisodeMeta("voraus", "ur5", "pick_and_place"))
        csv_path, _ = write_canonical(ep, tmp_path)
        got = self.assert_reads_as_whole_document(csv_path, monkeypatch, split=True)
        assert got[7] == ep.descriptors

    def test_block_parsed_once_per_layout(self, tmp_path):
        eps = [synthgen.generate_episode(seed, fault=None, episode_id=f"e{seed}")
               for seed in (1, 2, 3)]
        for ep in eps:
            write_canonical(ep, tmp_path)
        read_canonical(tmp_path / "e1.csv")
        before = ingest._block_descriptors.cache_info()
        back = read_episode_dir(tmp_path)
        after = ingest._block_descriptors.cache_info()
        assert after.hits - before.hits == 3 and after.misses == before.misses
        assert [b.descriptors for b in back] == [ep.descriptors for ep in eps]

    EDITS = {
        # not in the writer's shape: parsed as one document
        "no_channels_key": (lambda head, block: head, False),
        "key_not_last": (lambda head, block: block + head, False),
        "key_repeated": (lambda head, block: head + block + block.replace("rad", "deg"), False),
        "key_first_and_last": (lambda head, block: block + head + block, False),
        "flow_style": (lambda head, block: head + "channels: " + _flow_block(block), True),
        # the writer's shape around an edited block or head
        "comment_after_block": (lambda head, block: head + block + "# end\n", True),
        "document_start": (lambda head, block: "---\n" + head + block, True),
        "quoted_key_in_head": (lambda head, block: '"channels": 5\n' + head + block, True),
        "block_only": (lambda head, block: block, True),
        "bad_role": (lambda head, block: head + block.replace("role: feedback", "role: nope", 1),
                     False),
        "missing_unit": (lambda head, block: head + re.sub(r"  unit: .*\n", "", block, 1),
                         False),
        "channels_scalar": (lambda head, block: head + "channels: 5\n", False),
        "malformed_block": (lambda head, block: head + "channels:\n- {name: a\n", False),
        "extra_key_after_block": (lambda head, block: head + block + "extra: 1\n", False),
        "anchor_in_head_alias_in_block": (
            lambda head, block: head.replace("source_id: test", "source_id: &u rad")
            + block.replace("unit: rad", "unit: *u", 1), False),
        "same_anchor_in_head_and_block": (
            lambda head, block: head.replace("source_id: test", "source_id: &u test")
            + block.replace("unit: rad", "unit: &u rad", 1), False),
        "tag_directive": (
            lambda head, block: "%TAG !! tag:example.com,2000:\n---\n" + head
            + block.replace("unit: rad", "unit: !!str rad", 1), False),
        # the writer's shape, but the other keys do not parse before the block
        "document_end_before_block": (lambda head, block: head + "...\n" + block, False),
        "indented_head": (lambda head, block: re.sub("(?m)^(?=.)", "  ", head) + block, False),
        "head_open_flow": (lambda head, block: head + "note: [1,\n" + block, False),
        "head_not_a_mapping": (lambda head, block: "- a\n" + block, False),
    }

    @pytest.mark.parametrize("name", list(EDITS))
    def test_hand_edited_sidecars(self, tmp_path, monkeypatch, name):
        edit, split = self.EDITS[name]
        ep = make_episode({"a": np.arange(4.0), "b": np.ones(4), "c": np.ones(4)}, D)
        csv_path, sidecar = write_canonical(ep, tmp_path)
        text = sidecar.read_text(encoding="utf-8")
        at = text.index("\nchannels:\n") + 1
        sidecar.write_text(edit(text[:at], text[at:]), encoding="utf-8")
        self.assert_reads_as_whole_document(csv_path, monkeypatch, split)


def _flow_block(block: str) -> str:
    """The ``channels:`` block's list in flow style (JSON is YAML)."""
    return json.dumps(load_yaml(block, "block")["channels"]) + "\n"


class TestPairing:
    def _eps(self, ids):
        return [
            make_episode({"a": np.ones(3), "b": np.ones(3), "c": np.ones(3)}, D,
                         episode_id=i)
            for i in ids
        ]

    def test_intersection_and_unpaired(self):
        pairs, unpaired = pair_episodes(self._eps(["a", "b", "c"]),
                                        self._eps(["b", "c", "d"]))
        assert [p.pair_key for p in pairs] == ["b", "c"]
        assert unpaired.real_only == ("a",)
        assert unpaired.sim_only == ("d",)

    def test_duplicate_key(self):
        with pytest.raises(DuplicateKey):
            pair_episodes(self._eps(["a"]), self._eps(["b", "b"]))

    def test_twin_suffix_default_key(self):
        corpus = synthgen.generate_corpus(0, {"additional_axis_payload": 20}, seed0=500)
        primaries = [e for e in corpus if not e.episode_id.endswith("_twin")]
        twins = [e for e in corpus if e.episode_id.endswith("_twin")]
        pairs, unpaired = pair_episodes(primaries, twins)
        assert len(pairs) == 20
        assert not unpaired.real_only and not unpaired.sim_only
