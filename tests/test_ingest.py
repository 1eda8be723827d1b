import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_episode
from sefc import synthgen
from sefc.errors import (
    DuplicateKey,
    EmptyFile,
    ExcessiveMissing,
    RaggedRow,
    SchemaViolation,
)
from sefc.ingest import (
    CsvDialect,
    decode_phase_rle,
    encode_phase_rle,
    fill_gaps,
    pair_episodes,
    parse_raw_csv,
    read_canonical,
    resample,
    sidecar_path_for,
    write_canonical,
)
from sefc.schema import SignalRole

D = {"a": (SignalRole.SETPOINT, "rad", None),
     "b": (SignalRole.FEEDBACK, "rad", None),
     "c": (SignalRole.CONTEXT, "-", None)}


class TestParseRawCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x,y,z\n" + "\n".join(f"{i},{i*2},{i*3}" for i in range(5)))
        table = parse_raw_csv(p)
        assert set(table) == {"x", "y", "z"}
        assert all(len(v) == 5 for v in table.values())
        assert table["y"].tolist() == [0, 2, 4, 6, 8]

    def test_na_token_becomes_missing(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x,y\n1,2\n3,NaN\n5,6\n")
        table = parse_raw_csv(p)
        assert np.isnan(table["y"][1])

    def test_ragged_row_line_number(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x,y\n1,2\n3\n5,6\n")
        with pytest.raises(RaggedRow) as exc:
            parse_raw_csv(p)
        assert exc.value.line == 3

    def test_empty_file(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("")
        with pytest.raises(EmptyFile):
            parse_raw_csv(p)

    def test_single_data_row_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x\n1\n")
        with pytest.raises(EmptyFile):
            parse_raw_csv(p)

    def test_decimal_comma_dialect(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x;y\n1,5;2\n2,5;3\n")
        table = parse_raw_csv(p, CsvDialect(delimiter=";", decimal=","))
        assert table["x"].tolist() == [1.5, 2.5]

    def test_string_column_kept_as_objects(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x,tag\n1,alpha\n2,beta\n")
        table = parse_raw_csv(p)
        assert table["tag"].dtype == object
        assert table["tag"].tolist() == ["alpha", "beta"]


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


class TestFillGaps:
    def test_midpoint_interpolation(self):
        col = np.array([1.0, np.nan, 3.0])
        ep = make_episode({"a": col, "b": np.ones(3), "c": np.ones(3)}, D,
                          rate_hz=10.0)
        out = fill_gaps(ep, max_missing_fraction=0.5)
        assert out.channel("a").tolist() == [1.0, 2.0, 3.0]

    def test_no_missing_unchanged(self):
        ep = make_episode({"a": np.arange(4.0), "b": np.ones(4), "c": np.ones(4)}, D)
        out = fill_gaps(ep)
        assert np.array_equal(out.channels, ep.channels)

    def test_excessive_missing(self):
        col = np.ones(100)
        col[10:15] = np.nan  # 5 percent
        ep = make_episode({"a": col, "b": np.ones(100), "c": np.ones(100)}, D)
        with pytest.raises(ExcessiveMissing) as exc:
            fill_gaps(ep)
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
        out = fill_gaps(ep)
        assert np.all(np.isnan(out.channel("lbl")))


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


class TestPairing:
    def _eps(self, ids):
        return [
            make_episode({"a": np.ones(3), "b": np.ones(3), "c": np.ones(3)}, D,
                         episode_id=i)
            for i in ids
        ]

    def test_intersection_and_unpaired(self):
        pairs, unpaired = pair_episodes(self._eps(["a", "b", "c"]),
                                        self._eps(["b", "c", "d"]),
                                        key_fn=lambda e: e.episode_id)
        assert [p.pair_key for p in pairs] == ["b", "c"]
        assert unpaired.real_only == ("a",)
        assert unpaired.sim_only == ("d",)

    def test_duplicate_key(self):
        with pytest.raises(DuplicateKey):
            pair_episodes(self._eps(["a"]), self._eps(["b", "b"]),
                          key_fn=lambda e: e.episode_id)

    def test_twin_suffix_default_key(self):
        corpus = synthgen.generate_corpus(0, {"additional_axis_payload": 20},
                                          seed0=500, noise=False)
        primaries = [e for e in corpus if not e.episode_id.endswith("_twin")]
        twins = [e for e in corpus if e.episode_id.endswith("_twin")]
        pairs, unpaired = pair_episodes(primaries, twins)
        assert len(pairs) == 20
        assert not unpaired.real_only and not unpaired.sim_only
