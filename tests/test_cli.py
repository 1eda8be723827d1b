import contextlib
import csv
import dataclasses
import filecmp
import io
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from adapter_expectations import PHASE_COLUMN_EXPECTED
from conftest import cpus
from sefc import synthgen
from sefc.cli import main
from sefc.errors import NumericalInstability, SchemaViolation
from sefc.gap import JOINT_CHANNELS, TCP_POS_CHANNELS, TCP_ROT_CHANNELS
from sefc.schema import BUILTIN_ADAPTER_IDS, SignalRole, builtin_adapter, phase_runs

FIXTURES = Path(__file__).parent / "fixtures"
ADAPTERS = Path(synthgen.__file__).parent / "adapters"


def _dir_contents_equal(a: Path, b: Path) -> bool:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return False
    return all(
        filecmp.cmp(a / n, b / n, shallow=False) for n in names_a
    )


def _no_training(*args, **kwargs):
    raise AssertionError("a model was trained")


def _no_reading(*args, **kwargs):
    raise AssertionError("a raw file was read")


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["generate", "--out", str(out), "--seed", "11", "--n-healthy", "6",
               "--fault-mix", "additional_axis_payload=2"])
    assert rc == 0
    return out / "episodes"


@pytest.fixture(scope="module")
def healthy_corpus(small_corpus, tmp_path_factory):
    """The healthy episodes of ``small_corpus``: ep_00000..ep_00005 and the twins."""
    out = tmp_path_factory.mktemp("healthy")
    for p in small_corpus.iterdir():
        stem = p.name.split(".")[0]
        if stem.endswith("_twin") or int(stem.split("_")[1]) < 6:
            shutil.copy(p, out / p.name)
    return out


class TestGenerate:
    def test_byte_identical_across_runs(self, tmp_path):
        for name in ("a", "b"):
            rc = main(["generate", "--out", str(tmp_path / name), "--seed", "3",
                       "--n-healthy", "3", "--fault-mix", "unstable_platform=1"])
            assert rc == 0
        assert _dir_contents_equal(tmp_path / "a" / "episodes",
                                   tmp_path / "b" / "episodes")

    def test_invalid_range_exits_2_naming_field(self, tmp_path, capsys):
        config = tmp_path / "gen.yaml"
        config.write_text(yaml.safe_dump({
            "n_healthy": 2, "seed": 0,
            "randomization": {"mass_kg_range": [0.5, 0.1]},
        }))
        rc = main(["generate", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert rc == 2
        assert "mass_kg_range" in capsys.readouterr().err

    def test_malformed_config_yaml_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text("randomization: {mass_kg_range: [0.1, 0.5\n")
        rc = main(["generate", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: malformed YAML")
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc,key", [
        ({"fault_mix": {"additional_axis_payload": "two"}}, "fault_mix.additional_axis_payload"),
        ({"fault_mix": {"additional_axis_payload": 1.5}}, "fault_mix.additional_axis_payload"),
        ({"fault_mix": {"unstable_platform": -1}}, "fault_mix.unstable_platform"),
        ({"fault_mix": ["unstable_platform"]}, "fault_mix"),
        ({"n_healthy": "three"}, "n_healthy"),
        ({"n_healthy": True}, "n_healthy"),
        ({"seed": -3}, "seed"),
    ])
    def test_config_count_not_a_non_negative_integer_exits_2(self, tmp_path, capsys, doc, key):
        config = tmp_path / "gen.yaml"
        config.write_text(yaml.safe_dump(doc))
        rc = main(["generate", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: {key}")
        assert "invalid literal" not in err

    @pytest.mark.parametrize("randomization,key", [
        ({"mass_kg_range": 5}, "randomization.mass_kg_range"),
        ({"mass_kg_range": [1, 2, 3]}, "randomization.mass_kg_range"),
        ({"spawn_box_m": ["a", 0.1]}, "randomization.spawn_box_m"),
        ({"sigma_effort": "abc"}, "randomization.sigma_effort"),
        ({"sigma_effort": [0.1]}, "randomization.sigma_effort"),
        ({"sigma_effort": True}, "randomization.sigma_effort"),
        ({"sigma_effort": float("nan")}, "randomization.sigma_effort"),
        ([1, 2], "randomization"),
    ])
    def test_mistyped_randomization_value_exits_2_naming_key(self, tmp_path, capsys,
                                                            randomization, key):
        config = tmp_path / "gen.yaml"
        config.write_text(yaml.safe_dump({"n_healthy": 1, "randomization": randomization}))
        rc = main(["generate", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: {key} ")
        assert "Traceback" not in err and "could not convert" not in err

    @pytest.mark.parametrize("field", ["gripper_pad_friction", "mass_kg_exploratory_cap",
                                       "sigma_base"])
    def test_removed_randomization_field_exits_2(self, tmp_path, capsys, field):
        config = tmp_path / "gen.yaml"
        config.write_text(yaml.safe_dump({"n_healthy": 1, "randomization": {field: 0.5}}))
        rc = main(["generate", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert rc == 2
        assert f"unknown randomization field {field!r}" in capsys.readouterr().err

    def test_unknown_fault_exits_2(self, tmp_path):
        rc = main(["generate", "--out", str(tmp_path / "o"), "--seed", "0",
                   "--n-healthy", "1", "--fault-mix", "damaged_screw_thread=1"])
        assert rc == 2

    def test_config_unknown_fault_exits_2_before_generating(self, tmp_path, capsys):
        config = tmp_path / "gen.yaml"
        config.write_text(yaml.safe_dump({"fault_mix": {"unstable_platform": 1, "nonsense": 1}}))
        out = tmp_path / "o"
        rc = main(["generate", "--out", str(out), "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().err == "error: unknown fault type 'nonsense'\n"
        assert not out.exists()

    def test_config_without_n_healthy_generates_ten_healthy(self, tmp_path, capsys):
        config = tmp_path / "gen.yaml"
        config.write_text(yaml.safe_dump({"seed": 3}))
        out = tmp_path / "o"
        assert main(["generate", "--out", str(out), "--config", str(config)]) == 0
        assert capsys.readouterr().out == f"generated 10 episodes -> {out / 'episodes'}\n"
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["seed"] == 3
        assert manifest["outputs"] == [f"ep_{i:05d}.csv" for i in range(10)]

    def test_plant_bound_error_names_the_episode(self, tmp_path, capsys):
        config = tmp_path / "gen.yaml"
        config.write_text(yaml.safe_dump({"randomization": {"mass_kg_range": [1000.0, 1000.0]}}))
        rc = main(["generate", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: ep_00000 (healthy): effort beyond |tau| <= 1000 Nm\n"
        assert "None" not in err

    @pytest.mark.parametrize("sim_dt_s,fault,key", [
        (0.2, "unstable_platform", "freq_hz"),            # 3 Hz sampled at 5 Hz aliases
        (1 / 6, "unstable_platform", "freq_hz"),          # at 6 Hz it samples sin(pi k)
        (0.25, "invalid_gripping_position", "delay_steps"),   # seed 0 draws past 35 steps
        (0.1, "collision_foam_spike", "onset_step"),      # transfer too short for the range
        (0.09, "collision_foam_spike", "duration_s"),     # the pulse samples only zeros
    ])
    def test_coarse_sim_dt_exits_2_naming_fault_and_key(self, tmp_path, capsys,
                                                        sim_dt_s, fault, key):
        config = tmp_path / "gen.yaml"
        config.write_text(yaml.safe_dump({"randomization": {"sim_dt_s": sim_dt_s}}))
        rc = main(["generate", "--out", str(tmp_path / "o"), "--config", str(config),
                   "--seed", "0", "--n-healthy", "0", "--fault-mix", f"{fault}=1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {fault}: {key} ")

    @pytest.mark.parametrize("sim_dt_s,phase", [(0.6, "grasp"), (1.0, "grasp")])
    def test_phase_without_a_step_exits_2_naming_phase(self, tmp_path, capsys, sim_dt_s, phase):
        config = tmp_path / "gen.yaml"
        config.write_text(yaml.safe_dump({"randomization": {"sim_dt_s": sim_dt_s}}))
        out = tmp_path / "o"
        rc = main(["generate", "--out", str(out), "--config", str(config), "--n-healthy", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: phase {phase!r} gets no step at sim_dt_s {sim_dt_s:g}\n")
        assert not (out / "episodes").exists()

    @pytest.mark.parametrize("sim_dt_s", [0.3, 0.5])
    def test_coarse_sim_dt_with_a_step_per_phase_generates(self, tmp_path, sim_dt_s):
        config = tmp_path / "gen.yaml"
        config.write_text(yaml.safe_dump({"randomization": {"sim_dt_s": sim_dt_s}}))
        out = tmp_path / "o"
        assert main(["generate", "--out", str(out), "--config", str(config),
                     "--n-healthy", "1"]) == 0
        from sefc import ingest

        ep = ingest.read_canonical(out / "episodes" / "ep_00000.csv")
        assert {label for label, _, _ in phase_runs(ep.phase)} == set(synthgen.PHASE_NAMES)

    def test_repeated_fault_mix_entry_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["generate", "--out", str(out), "--seed", "0", "--n-healthy", "1",
                   "--fault-mix", "unstable_platform=1,unstable_platform=2"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --fault-mix 'unstable_platform=1,unstable_platform=2': "
            "'unstable_platform' is repeated\n")
        assert not out.exists()

    @pytest.mark.parametrize("entry", [
        "additional_axis_payload", "additional_axis_payload=", "additional_axis_payload=two",
        "additional_axis_payload=1.5", "additional_axis_payload=-1",
    ])
    def test_malformed_fault_mix_exits_2_naming_entry(self, tmp_path, capsys, entry):
        rc = main(["generate", "--out", str(tmp_path / "o"), "--seed", "0", "--n-healthy", "1",
                   "--fault-mix", f"unstable_platform=1,{entry}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--fault-mix" in err and repr(entry) in err
        assert "invalid literal" not in err

    def test_manifest_written(self, small_corpus):
        manifest = yaml.safe_load((small_corpus.parent / "manifest.yaml").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 11
        assert len(manifest["outputs"]) == 10  # 6 healthy + 2 faulty + 2 twins


# 5 episodes: ep_00000..ep_00002 healthy, ep_00003 faulty and ep_00003_twin.
_GENERATE = ["generate", "--seed", "3", "--n-healthy", "3", "--fault-mix", "unstable_platform=1"]
_IDS = ["ep_00000", "ep_00001", "ep_00002", "ep_00003", "ep_00003_twin"]


@pytest.mark.usefixtures("no_child_left")
class TestGenerateOnEveryCore:
    """``generate`` maps its episodes over one process per CPU of its affinity mask."""

    @staticmethod
    def _patch_generate(monkeypatch, before):
        """Make ``synthgen.generate_episode`` call ``before(episode_id)`` first."""
        real = synthgen.generate_episode

        def patched(seed, config, *, fault, episode_id, noise):
            before(episode_id)
            return real(seed, config, fault=fault, episode_id=episode_id, noise=noise)

        monkeypatch.setattr(synthgen, "generate_episode", patched)

    def _pids(self, monkeypatch, log: Path):
        """Log the pid that generates each episode to *log*."""
        def note(episode_id):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        self._patch_generate(monkeypatch, note)

    def test_bytes_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        for k in (1, 2, 3):
            cpus(monkeypatch, k)
            self._pids(monkeypatch, tmp_path / f"pids{k}")
            assert main([*_GENERATE, "--out", str(tmp_path / str(k))]) == 0
            pids = (tmp_path / f"pids{k}").read_text().split()
            assert len(pids) == 5 and len(set(pids)) == k and str(os.getpid()) in pids
        manifests = [yaml.safe_load((tmp_path / str(k) / "manifest.yaml").read_text())
                     for k in (1, 2, 3)]
        assert [m["outputs"] for m in manifests] == [[f"{i}.csv" for i in _IDS]] * 3
        for k in (2, 3):
            assert _dir_contents_equal(tmp_path / "1" / "episodes",
                                       tmp_path / str(k) / "episodes")

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_serial_without_fork_or_affinity(self, tmp_path, monkeypatch, missing):
        self._pids(monkeypatch, tmp_path / "pids")
        monkeypatch.delattr(os, missing)
        assert main([*_GENERATE, "--out", str(tmp_path / "o")]) == 0
        assert set((tmp_path / "pids").read_text().split()) == {str(os.getpid())}

    # On 2 CPUs this process generates episodes 0, 2 and 4, a child 1 and 3.
    @pytest.mark.parametrize("failing,rc,message", [
        ({1: SchemaViolation, 2: NumericalInstability}, 2, "bad ep_00001"),  # the child's first
        ({2: NumericalInstability, 3: SchemaViolation}, 1, "bad ep_00002"),  # this process's first
    ])
    def test_first_error_in_corpus_order_wins(self, tmp_path, monkeypatch, capsys,
                                              failing, rc, message):
        kinds = {_IDS[i]: kind for i, kind in failing.items()}

        def fail(episode_id):
            if episode_id in kinds:
                raise kinds[episode_id](f"bad {episode_id}")

        self._patch_generate(monkeypatch, fail)
        errs = []
        for k in (1, 2):
            cpus(monkeypatch, k)
            assert main([*_GENERATE, "--out", str(tmp_path / str(k))]) == rc
            errs.append(capsys.readouterr().err)
        assert errs == [f"error: {message}\n"] * 2

    def test_child_without_result_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()

        def die_in_child(episode_id):
            if os.getpid() != parent:
                os._exit(3)

        cpus(monkeypatch, 2)
        self._patch_generate(monkeypatch, die_in_child)
        assert main([*_GENERATE, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "status 3" in err

    def test_interrupt_kills_and_reaps_every_child(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def stall_in_child_interrupt_here(episode_id):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        cpus(monkeypatch, 3)
        self._patch_generate(monkeypatch, stall_in_child_interrupt_here)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main([*_GENERATE, "--out", str(tmp_path / "o")])
        assert time.monotonic() - t0 < 30


class TestIngest:
    def test_voraus_fixture_yields_model_channels(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "sample01.csv").write_text(
            (FIXTURES / "voraus_sample.csv").read_text()
        )
        out = tmp_path / "out"
        rc = main(["ingest", "--raw-dir", str(raw), "--adapter", "voraus_ad",
                   "--out", str(out), "--rate-hz", "100"])
        assert rc == 0
        from sefc import ingest
        from sefc.anomaly import ANOMALY_INPUT_CHANNELS, ANOMALY_OUTPUT_CHANNELS

        ep = ingest.read_canonical(out / "episodes" / "sample01.csv")
        for name in ANOMALY_INPUT_CHANNELS + ANOMALY_OUTPUT_CHANNELS:
            assert ep.has_channel(name)
        assert ep.rate_hz == 100.0

    def test_empty_dir_exits_0(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        out = tmp_path / "out"
        rc = main(["ingest", "--raw-dir", str(raw), "--adapter", "voraus_ad",
                   "--out", str(out)])
        assert rc == 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["outputs"] == []

    def test_unknown_adapter_exits_2(self, tmp_path):
        rc = main(["ingest", "--raw-dir", str(tmp_path), "--adapter", "nonsense",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_adapter_directory_exits_2(self, tmp_path, capsys):
        rc = main(["ingest", "--raw-dir", str(tmp_path), "--adapter", str(tmp_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "built-in adapter id or an adapter YAML file" in err
        assert "Errno" not in err

    def test_malformed_adapter_yaml_exits_2(self, tmp_path, capsys):
        adapter = tmp_path / "bad.yaml"
        adapter.write_text("source_id: lab\nsignals: [{raw_name: q0\n")
        rc = main(["ingest", "--raw-dir", str(tmp_path), "--adapter", str(adapter),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {adapter}: malformed YAML")
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc,where,detail", [
        ("native_rate_hz: 100\nsignals: [{raw: q0, canonical: feedback_pos_0, role: feedback}]\n",
         "source_id", "'source_id'"),
        ("source_id: lab\nnative_rate_hz: 100\nsignals: [{canonical: feedback_pos_0}]\n",
         "signals[0]", "'raw'"),
        ("source_id: lab\nnative_rate_hz: 100\n"
         "signals: [{raw: 'q{j}', canonical: 'feedback_pos_{i}', expand: {i: 0..5}}]\n",
         "signals[0]", "'j'"),
        ("source_id: lab\nnative_rate_hz: fast\nsignals: []\n", "native_rate_hz", "'fast'"),
        ("source_id: lab\nnative_rate_hz: 100\nsignals: null\n", "signals", "NoneType"),
        ("source_id: lab\nnative_rate_hz: 100\nsignals: [{raw: q0, canonical: c, axis: x}]\n",
         "signals[0]", "'x'"),
        ("source_id: lab\nnative_rate_hz: 100\n"
         "signals: [{raw: q0, canonical: c}, {raw: q1, canonical: d, expand: 5}]\n",
         "signals[1]", "'int'"),
        ("source_id: lab\nnative_rate_hz: 100\nphase_column: [a]\n"
         "signals: [{raw: q0, canonical: c, role: context, unit: '-'}]\n",
         "phase_column", "expected a raw column name, got ['a']"),
    ], ids=["no_source_id", "row_without_raw", "unbound_expand_variable", "rate_not_a_number",
            "signals_null", "axis_not_an_integer", "expand_not_a_mapping",
            "phase_column_not_a_name"])
    def test_malformed_adapter_exits_2_naming_file_and_key(self, tmp_path, capsys,
                                                           doc, where, detail):
        adapter = tmp_path / "bad.yaml"
        adapter.write_text(doc)
        rc = main(["ingest", "--raw-dir", str(tmp_path), "--adapter", str(adapter),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {adapter}: {where}: ") and detail in err
        assert "Traceback" not in err

    def test_absent_phase_column_fails_the_file(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "sample01.csv").write_text((FIXTURES / "voraus_sample.csv").read_text())
        adapter = tmp_path / "adapter.yaml"
        adapter.write_text((ADAPTERS / "voraus_ad.yaml").read_text() + "phase_column: phse\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--raw-dir", str(raw), "--adapter", str(adapter),
                   "--out", str(out)])
        assert rc == 1
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["outputs"] == []
        assert manifest["failures"] == [
            "sample01.csv: mapped raw column not found in table: 'phse'"]

    @pytest.mark.parametrize("source_id", BUILTIN_ADAPTER_IDS)
    def test_builtin_adapter_ingests_text_phase_labels(self, tmp_path, source_id):
        """Each built-in adapter ingests a raw file of its own columns, with
        text labels in the phase column it declares, into a phase vector."""
        spec = builtin_adapter(source_id)
        phase_column = PHASE_COLUMN_EXPECTED.get(source_id)
        names = [s.raw_name for s in spec.signals]
        if phase_column and phase_column not in names:
            names.append(phase_column)
        labels = ["approach"] * 3 + ["cut"] * 4
        rows = [[labels[k] if name == phase_column else f"{k + j / 100:g}"
                 for j, name in enumerate(names)] for k in range(len(labels))]
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "e1.csv").write_text("\n".join(",".join(r) for r in [names, *rows]) + "\n")
        out = tmp_path / "out"
        task = "machining" if source_id == "umich_cnc" else "pick_and_place"
        rc = main(["ingest", "--raw-dir", str(raw), "--adapter", source_id, "--out", str(out),
                   "--rate-hz", repr(spec.native_rate_hz), "--task", task])
        assert rc == 0
        sidecar = yaml.safe_load((out / "episodes" / "e1.meta.yaml").read_text())
        want_rle = [["approach", 3], ["cut", 4]] if phase_column else [["unknown", 7]]
        assert sidecar["phase_rle"] == want_rle
        from sefc import ingest

        ep = ingest.read_canonical(out / "episodes" / "e1.csv")
        assert ep.channel_names == tuple(s.canonical_name for s in spec.signals)
        assert not np.isnan(ep.channels).all(axis=0).any()

    # A quoted signal cell sends the file through csv.reader.
    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "csv_reader"])
    def test_numeric_phase_labels_keep_their_text(self, tmp_path, quote):
        spec = builtin_adapter("umich_cnc")
        names = [s.raw_name for s in spec.signals] + ["Machining_Process"]
        labels = ["1", "1", "NA", "2", "2", "2"]
        rows = [[labels[k] if name == "Machining_Process" else f"{k + j / 100:g}"
                 for j, name in enumerate(names)] for k in range(len(labels))]
        rows[0][0] = f"{quote}{rows[0][0]}{quote}"
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "e1.csv").write_text("\n".join(",".join(r) for r in [names, *rows]) + "\n")
        out = tmp_path / "out"
        assert main(["ingest", "--raw-dir", str(raw), "--adapter", "umich_cnc",
                     "--out", str(out), "--rate-hz", repr(spec.native_rate_hz),
                     "--task", "machining"]) == 0
        sidecar = yaml.safe_load((out / "episodes" / "e1.meta.yaml").read_text())
        assert sidecar["phase_rle"] == [["1", 2], ["unknown", 1], ["2", 3]]

    def test_manifest_records_failures(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "good.csv").write_text((FIXTURES / "voraus_sample.csv").read_text())
        (raw / "bad.csv").write_text("a,b\n1,2\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--raw-dir", str(raw), "--adapter", "voraus_ad",
                   "--out", str(out)])
        assert rc == 1
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["outputs"] == ["good.csv"]
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0].startswith("bad.csv: ")
        assert manifest["failures"][0] in capsys.readouterr().err

    def test_duplicate_raw_header_is_a_failure(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "good.csv").write_text((FIXTURES / "voraus_sample.csv").read_text())
        (raw / "dup.csv").write_text("time,time\n0,0\n1,1\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--raw-dir", str(raw), "--adapter", "voraus_ad",
                   "--out", str(out)])
        assert rc == 1
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["outputs"] == ["good.csv"]
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0].startswith("dup.csv: ")
        assert "duplicate column name 'time'" in manifest["failures"][0]

    @pytest.mark.parametrize("name, raw_bytes, reason", [
        ("latin1.csv", b"time,x\n0,\xe9\n1,2\n", "not UTF-8 text"),
        ("huge.csv", b'time,x\n0,"' + b"9" * 200_000 + b'"\n1,2\n',
         "line 2: field larger than field limit"),
        ("ragged_lf.csv", b"time,x\n0,1\n\n2\n3,4\n", "line 4: expected 2 fields, got 1"),
        ("ragged_crlf.csv", b"time,x\r\n0,1\r\n\r\n2\r\n3,4\r\n",
         "line 4: expected 2 fields, got 1"),
    ], ids=["not_utf8", "oversized_field", "ragged_lf", "ragged_crlf"])
    def test_unreadable_raw_file_is_a_failure(self, tmp_path, capsys, name, raw_bytes,
                                              reason):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "good.csv").write_text((FIXTURES / "voraus_sample.csv").read_text())
        (raw / name).write_bytes(raw_bytes)
        out = tmp_path / "out"
        rc = main(["ingest", "--raw-dir", str(raw), "--adapter", "voraus_ad",
                   "--out", str(out)])
        assert rc == 1
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["outputs"] == ["good.csv"]
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0].startswith(f"{name}: ")
        assert reason in manifest["failures"][0]
        assert "Traceback" not in capsys.readouterr().err

    def test_each_failure_is_printed_once(self, tmp_path):
        """Under pytest the log handler does not reach stderr, so a process is run."""
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "bad1.csv").write_text("a,b\n1,2\n")
        (raw / "bad2.csv").write_text("time,time\n0,0\n1,1\n")
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        run = subprocess.run([sys.executable, "-m", "sefc.cli", "ingest", "--raw-dir", str(raw),
                              "--adapter", "voraus_ad", "--out", str(out)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 1
        failures = yaml.safe_load((out / "manifest.yaml").read_text())["failures"]
        assert [f.partition(": ")[0] for f in failures] == ["bad1.csv", "bad2.csv"]
        assert run.stderr == "failures:\n" + "".join(f"  {f}\n" for f in failures)

    @pytest.mark.parametrize("flag,value,expected", [
        ("--rate-hz", "nan", "a finite number above 0"),
        ("--rate-hz", "inf", "a finite number above 0"),
        ("--rate-hz", "0", "a finite number above 0"),
        ("--max-missing-fraction", "nan", "a number from 0 to 1"),
        ("--max-missing-fraction", "-0.1", "a number from 0 to 1"),
        ("--max-missing-fraction", "1.5", "a number from 0 to 1"),
    ])
    def test_bad_number_exits_2_before_reading(self, tmp_path, capsys, monkeypatch,
                                               flag, value, expected):
        from sefc import ingest

        monkeypatch.setattr(ingest, "parse_raw_csv", _no_reading)
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "good.csv").write_text((FIXTURES / "voraus_sample.csv").read_text())
        out = tmp_path / "out"
        rc = main(["ingest", "--raw-dir", str(raw), "--adapter", "voraus_ad",
                   "--out", str(out), flag, value])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag} {float(value)!r}: expected {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize("adapter_edit,flags,message", [
        (("native_rate_hz: 500.0", "native_rate_hz: .nan"), [],
         "adapter 'voraus_ad' invalid:\n[bad-rate] native_rate_hz must be finite and positive\n"),
        (("unit: V, notes: global", "notes: global"), [],
         "adapter 'voraus_ad' invalid:\n[missing-unit] 'robot_voltage' has no unit\n"),
        (None, ["--task", "bogus"], "argument --task: invalid choice: 'bogus'"),
        (None, ["--dialect-delimiter", ""], "CSV dialect delimiter must be one character, got ''\n"),
        (None, ["--dialect-decimal", ""], "CSV dialect decimal must be one character, got ''\n"),
        (None, ["--dialect-delimiter", '"'],
         "CSV dialect delimiter must not be a quote or a line end, got '\"'\n"),
        (None, ["--dialect-delimiter", "\n"],
         "CSV dialect delimiter must not be a quote or a line end, got '\\n'\n"),
        (None, ["--dialect-decimal", "\r"],
         "CSV dialect decimal must not be a quote or a line end, got '\\r'\n"),
        (None, ["--dialect-delimiter", ";", "--dialect-decimal", ";"],
         "CSV dialect decimal must differ from the delimiter, got ';' for both\n"),
        (("source_id: voraus_ad\n", "source_id: voraus_ad\nphase_column: anomaly\n"), [],
         "adapter 'voraus_ad' invalid:\n[phase-mapped] phase column 'anomaly' is also mapped\n"),
        (None, ["--allow-missing", "not_a_column"],
         "--allow-missing: 'not_a_column' is not a raw column of adapter 'voraus_ad'\n"),
    ], ids=["nan_rate", "row_without_unit", "unknown_task", "empty_delimiter", "empty_decimal",
            "quote_delimiter", "newline_delimiter", "cr_decimal", "decimal_is_delimiter",
            "mapped_phase_column", "allow_missing_not_a_column"])
    def test_configuration_error_exits_2_once_before_reading(self, tmp_path, capsys, monkeypatch,
                                                              adapter_edit, flags, message):
        from sefc import ingest

        parsed = []
        real_parse = ingest.parse_raw_csv
        monkeypatch.setattr(ingest, "parse_raw_csv",
                            lambda *a, **kw: parsed.append(a) or real_parse(*a, **kw))
        raw = tmp_path / "raw"
        raw.mkdir()
        for name in ("a.csv", "b.csv"):
            (raw / name).write_text((FIXTURES / "voraus_sample.csv").read_text())
        adapter, where = "voraus_ad", ""
        if adapter_edit:
            text = (Path(ingest.__file__).parent / "adapters" / "voraus_ad.yaml").read_text()
            assert text.count(adapter_edit[0]) == 1
            adapter = tmp_path / "adapter.yaml"
            adapter.write_text(text.replace(*adapter_edit))
            where = f"{adapter}: "
        out = tmp_path / "out"
        try:
            rc = main(["ingest", "--raw-dir", str(raw), "--adapter", str(adapter),
                       "--out", str(out), *flags])
        except SystemExit as exc:   # argparse refuses a choice itself
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("error:") == 1 and f"error: {where}{message}" in err
        assert parsed == []
        assert not (out / "episodes").exists()


class TestTrainAndScore:
    def test_faulty_episode_in_training_exits_2(self, small_corpus, tmp_path, capsys):
        rc = main(["train-anomaly", "--data", str(small_corpus),
                   "--out", str(tmp_path / "t"), "--epochs", "1"])
        assert rc == 2
        assert "healthy-only" in capsys.readouterr().err

    def test_manifest_records_best_epoch_and_early_stop(self, tmp_path, monkeypatch):
        from sefc import anomaly, ingest
        from sefc.nnkit import TrainHistory

        history = TrainHistory(train_loss=[1.0, 0.5, 0.7], val_loss=[1.0, 0.4, 0.6],
                               lr=[1e-3] * 3, best_epoch=1, stopped_early=True)

        class Model:
            def save(self, path):
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text("ckpt")
                return path

        monkeypatch.setattr(ingest, "read_episode_dir", lambda d: [])
        monkeypatch.setattr(anomaly, "train_anomaly_model", lambda eps, config: (Model(), history))
        out = tmp_path / "t"
        assert main(["train-anomaly", "--data", str(tmp_path), "--out", str(out)]) == 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["best_epoch"] == 1
        assert manifest["stopped_early"] is True

    @pytest.mark.parametrize("flag,value,field", [
        ("--epochs", "0", "max_epochs"),
        ("--batch-size", "0", "batch_size"),
        ("--patience", "-3", "patience"),
    ])
    def test_bad_training_number_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                         flag, value, field):
        from sefc import anomaly

        monkeypatch.setattr(anomaly, "train", _no_training)
        rc = main(["train-anomaly", "--data", str(tmp_path), "--out", str(tmp_path / "t"),
                   flag, value])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "t" / "anomaly_model.ckpt").exists()

    def test_train_then_score(self, small_corpus, healthy_corpus, tmp_path):
        train_out = tmp_path / "train"
        rc = main(["train-anomaly", "--data", str(healthy_corpus),
                   "--out", str(train_out), "--epochs", "2", "--batch-size", "1024"])
        assert rc == 0
        score_out = tmp_path / "score"
        rc = main(["score", "--model", str(train_out / "anomaly_model.ckpt"),
                   "--data", str(small_corpus), "--out", str(score_out)])
        assert rc == 0
        lines = (score_out / "scores.csv").read_text().strip().splitlines()
        assert lines[0] == "episode_id,label,score"
        assert len(lines) == 11  # 10 episodes + header


class TestScoreCheckpointErrors:
    """A damaged checkpoint header makes `sefc score` exit 2 naming the file."""

    @staticmethod
    def _score(tmp_path, capsys, header_edit=None, head_prefix=b""):
        from sefc.nnkit import DenseNet, save_model

        path = save_model(tmp_path / "m.ckpt", DenseNet([2, 3, 1], seed=0), extra={})
        head, _, payload = path.read_bytes().partition(b"\n---\n")
        header = yaml.safe_load(head)
        if header_edit:
            header_edit(header)
        path.write_bytes(head_prefix + yaml.safe_dump(header, sort_keys=False).encode()
                         + b"---\n" + payload)
        rc = main(["score", "--model", str(path), "--data", str(tmp_path / "none"),
                   "--out", str(tmp_path / "score")])
        return path, rc, capsys.readouterr().err

    def test_spec_missing_key(self, tmp_path, capsys):
        def rename(header):
            header["model"]["sizes"] = header["model"].pop("widths")
        path, rc, err = self._score(tmp_path, capsys, header_edit=rename)
        assert rc == 2
        assert err.startswith(f"error: {path}: ")
        assert "widths" in err

    def test_spec_disagrees_with_parameter_count(self, tmp_path, capsys):
        def widen(header):
            header["model"]["widths"] = [2, 4, 1]
        path, rc, err = self._score(tmp_path, capsys, header_edit=widen)
        assert rc == 2
        assert err.startswith(f"error: {path}: ")
        assert "17" in err and "13" in err

    def test_header_not_utf8(self, tmp_path, capsys):
        path, rc, err = self._score(tmp_path, capsys, head_prefix=b"# caf\xe9\n")
        assert rc == 2
        assert err.startswith(f"error: {path}: ")


class TestScoreCheckpointExtras:
    """Checkpoint extras that do not fit the net make `sefc score` exit 2 naming file and key."""

    @staticmethod
    def _extras(n_in=18, n_out=6):
        return {"input_channels": [f"in_{i}" for i in range(n_in)],
                "output_channels": [f"out_{i}" for i in range(n_out)],
                "x_mean": [0.0] * n_in, "x_stdev": [1.0] * n_in,
                "y_mean": [0.0] * n_out, "y_stdev": [1.0] * n_out}

    @pytest.mark.parametrize("key,value", [
        ("x_mean", [0.0] * 17),
        ("x_stdev", [1.0] * 19),
        ("y_mean", [0.0] * 5),
        ("y_stdev", [1.0] * 7),
        ("input_channels", [f"in_{i}" for i in range(17)]),
        ("output_channels", [f"out_{i}" for i in range(5)]),
        ("x_mean", ["a"] * 18),
        ("y_stdev", 1.0),
        ("input_channels", list(range(18))),
        ("output_channels", "out"),
    ])
    def test_extra_that_does_not_fit_exits_2(self, tmp_path, capsys, key, value):
        from sefc.nnkit import DenseNet, save_model

        extra = self._extras()
        extra[key] = value
        path = save_model(tmp_path / "m.ckpt", DenseNet([18, 4, 6], seed=0), extra=extra)
        rc = main(["score", "--model", str(path), "--data", str(tmp_path / "none"),
                   "--out", str(tmp_path / "score")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {key} ")
        assert "broadcast" not in err

    def test_net_output_width_must_match_torque_channels(self, tmp_path, capsys):
        from sefc.nnkit import DenseNet, save_model

        path = save_model(tmp_path / "m.ckpt", DenseNet([18, 4, 5], seed=0),
                          extra=self._extras())
        rc = main(["score", "--model", str(path), "--data", str(tmp_path / "none"),
                   "--out", str(tmp_path / "score")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestEvalForecast:
    def test_report_rows_per_horizon_and_model(self, small_corpus, tmp_path):
        out = tmp_path / "fc"
        rc = main(["eval-forecast", "--data", str(small_corpus), "--out", str(out),
                   "--models", "kinematic_zero,linear", "--horizon", "50,100,200",
                   "--epochs", "2", "--start", "10"])
        assert rc == 0
        lines = (out / "forecast_report.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + 2 models x 3 horizons
        assert (out / "survival_curve.csv").exists()

    def test_manifest_records_best_epoch_and_early_stop_per_kind(self, small_corpus, tmp_path,
                                                                 monkeypatch):
        from sefc import forecast
        from sefc.nnkit import TrainHistory

        histories = {
            "linear": TrainHistory(train_loss=[1.0, 0.5], val_loss=[1.0, 0.4], lr=[1e-3] * 2,
                                   best_epoch=1, stopped_early=False),
            "tcn": TrainHistory(train_loss=[1.0, 0.5], val_loss=[0.4, 0.6], lr=[1e-3] * 2,
                                best_epoch=0, stopped_early=True),
        }
        monkeypatch.setattr(forecast, "train_forecaster", lambda eps, kind, target, config: (
            forecast.Forecaster("kinematic_zero", target="accel"), histories.get(kind)))
        out = tmp_path / "fc"
        assert main(["eval-forecast", "--data", str(small_corpus), "--out", str(out),
                     "--models", "kinematic_zero,linear,tcn", "--horizon", "50"]) == 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["training"] == {
            "linear": {"best_epoch": 1, "stopped_early": False},
            "tcn": {"best_epoch": 0, "stopped_early": True},
        }

    @pytest.mark.parametrize("flags,name", [
        (["--horizon", "0,50"], "--horizon"),
        (["--horizon", "-50"], "--horizon"),
        (["--horizon", "abc"], "--horizon"),
        (["--horizon", "50,"], "--horizon"),
        (["--start", "5"], "--start"),
        (["--epochs", "0"], "max_epochs"),
        (["--batch-size", "0"], "batch_size"),
        (["--horizon", "50,50"], "--horizon"),
        (["--models", "linear,linear"], "--models 'linear,linear': 'linear' is repeated"),
    ])
    def test_bad_number_exits_2_before_training(self, small_corpus, tmp_path, capsys,
                                                monkeypatch, flags, name):
        from sefc import forecast

        monkeypatch.setattr(forecast, "train", _no_training)
        out = tmp_path / "fc"
        rc = main(["eval-forecast", "--data", str(small_corpus), "--out", str(out),
                   "--models", "linear", "--epochs", "1", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert name in err and "invalid literal" not in err
        assert not (out / "forecast_report.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.01"])
    def test_bad_threshold_exits_2_before_training(self, small_corpus, tmp_path, capsys,
                                                   monkeypatch, value):
        from sefc import forecast

        monkeypatch.setattr(forecast, "train", _no_training)
        out = tmp_path / "fc"
        rc = main(["eval-forecast", "--data", str(small_corpus), "--out", str(out),
                   "--models", "linear", "--epochs", "1", "--threshold", value])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --threshold {float(value)!r}: expected a finite number above 0\n")
        assert not out.exists()


class TestEvalTransfer:
    def test_transfer_report_rows(self, small_corpus, tmp_path):
        out = tmp_path / "tr"
        rc = main(["eval-transfer", "--train-data", str(small_corpus),
                   "--eval-data", str(small_corpus), "--out", str(out),
                   "--models", "kinematic_zero,linear", "--channel-set", "effort",
                   "--epochs", "2"])
        assert rc == 0
        lines = (out / "transfer_report.csv").read_text().strip().splitlines()
        assert lines[0] == "model,target,mc_mae,ci_halfwidth,raw_mae,n_episodes"
        assert len(lines) == 3

    def test_measures_healthy_target_episodes_only(self, small_corpus, tmp_path):
        out = tmp_path / "tr"
        assert main(["eval-transfer", "--train-data", str(small_corpus),
                     "--eval-data", str(small_corpus), "--out", str(out),
                     "--models", "kinematic_zero", "--channel-set", "effort"]) == 0
        with open(out / "transfer_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["n_episodes"] == "8" for r in rows)   # 8 healthy, 2 faulty

    def test_target_without_healthy_episode_exits_1_before_training(
            self, small_corpus, tmp_path, capsys, monkeypatch):
        from sefc import forecast

        faulty = tmp_path / "faulty"
        faulty.mkdir()
        for p in small_corpus.iterdir():
            if p.name.split(".")[0] in ("ep_00006", "ep_00007"):
                shutil.copy(p, faulty / p.name)
        monkeypatch.setattr(forecast, "train_forecaster", _no_training)
        out = tmp_path / "tr"
        rc = main(["eval-transfer", "--train-data", str(small_corpus),
                   "--eval-data", str(faulty), "--out", str(out), "--models", "linear"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {faulty}: no healthy episode to evaluate on\n"
        assert not out.exists()

    def test_unknown_model_kind_exits_2_before_training(self, small_corpus, tmp_path,
                                                        capsys, monkeypatch):
        from sefc import forecast

        monkeypatch.setattr(forecast, "train_forecaster", _no_training)
        out = tmp_path / "tr"
        rc = main(["eval-transfer", "--train-data", str(small_corpus),
                   "--eval-data", str(small_corpus), "--out", str(out),
                   "--models", "linear,bogus", "--epochs", "1"])
        assert rc == 2
        assert "'bogus'" in capsys.readouterr().err
        assert not (out / "transfer_report.csv").exists()

    def test_manifest_records_best_epoch_and_early_stop_per_kind(self, small_corpus, tmp_path,
                                                                 monkeypatch):
        from sefc import forecast
        from sefc.nnkit import TrainHistory

        histories = {
            "linear": TrainHistory(train_loss=[1.0, 0.5], val_loss=[1.0, 0.4], lr=[1e-3] * 2,
                                   best_epoch=1, stopped_early=False),
            "tcn": TrainHistory(train_loss=[1.0, 0.5], val_loss=[0.4, 0.6], lr=[1e-3] * 2,
                                best_epoch=0, stopped_early=True),
        }
        monkeypatch.setattr(forecast, "train_forecaster", lambda eps, kind, target, config: (
            forecast.Forecaster("kinematic_zero", target=target), histories.get(kind)))
        out = tmp_path / "tr"
        assert main(["eval-transfer", "--train-data", str(small_corpus),
                     "--eval-data", str(small_corpus), "--out", str(out),
                     "--models", "kinematic_zero,linear,tcn", "--channel-set", "effort"]) == 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["training"] == {
            "linear": {"best_epoch": 1, "stopped_early": False},
            "tcn": {"best_epoch": 0, "stopped_early": True},
        }


class TestGapCommand:
    def test_summary_shape(self, tmp_path):
        rc = main(["generate", "--out", str(tmp_path / "g"), "--seed", "5",
                   "--n-healthy", "0", "--fault-mix", "unstable_platform=3",
                   "--no-noise"])
        assert rc == 0
        eps = tmp_path / "g" / "episodes"
        real = tmp_path / "real"
        sim = tmp_path / "sim"
        real.mkdir(), sim.mkdir()
        for p in eps.iterdir():
            stem = p.name.split(".")[0]
            target = sim if stem.endswith("_twin") else real
            (target / p.name).write_text(p.read_text())
        out = tmp_path / "gapout"
        rc = main(["gap", "--real-dir", str(real), "--sim-dir", str(sim),
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "gap_summary.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == ["metric", "mean", "median", "p10", "p90", "n"]
        assert len(lines) == 6

    def test_malformed_sidecar_exits_2(self, small_corpus, tmp_path, capsys):
        real = tmp_path / "real"
        real.mkdir()
        for p in small_corpus.glob("ep_00000.*"):
            (real / p.name).write_text(p.read_text())
        sidecar = real / "ep_00000.meta.yaml"
        sidecar.write_text("episode_id: [unclosed\n")
        rc = main(["gap", "--real-dir", str(real), "--sim-dir", str(real),
                   "--out", str(tmp_path / "gapout")])
        assert rc == 2
        assert str(sidecar) in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["many", 2.5])
    def test_bad_phase_rle_count_exits_2(self, small_corpus, tmp_path, capsys, count):
        real = tmp_path / "real"
        real.mkdir()
        for p in small_corpus.glob("ep_00000.*"):
            (real / p.name).write_text(p.read_text())
        sidecar = real / "ep_00000.meta.yaml"
        meta = yaml.safe_load(sidecar.read_text())
        meta["phase_rle"][0][1] = count
        sidecar.write_text(yaml.safe_dump(meta, sort_keys=False))
        rc = main(["gap", "--real-dir", str(real), "--sim-dir", str(real),
                   "--out", str(tmp_path / "gapout")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sidecar}: phase RLE count must be an integer >= 1")


class TestGapPairFailures:
    """A pair's own error fails that pair alone: it is listed under the
    manifest's ``failures``, the other pairs are reported as if alone, and
    the command exits 1."""

    ERRORS = {
        "no_phases": "no shared phases between real and sim",
        "no_metric": "no gap metric can be computed",
        "task": "task mismatch (pick_and_place vs screwdriving)",
    }

    @staticmethod
    def _write(root: Path, keys) -> tuple[Path, Path]:
        """Real and sim dirs with one pair per key: ``good`` is a noiseless
        episode against itself, the others each break it one way."""
        from sefc import ingest

        groups = set(JOINT_CHANNELS + TCP_POS_CHANNELS + TCP_ROT_CHANNELS)
        for key in keys:
            real = synthgen.generate_episode(3, episode_id=key, noise=False, fault=None)
            sim = real
            if key == "no_phases":
                sim = real.replace(phase=np.full(real.n_steps, "unknown"))
            elif key == "task":
                sim = real.replace(task="screwdriving")
            elif key == "no_metric":
                keep = [i for i, d in enumerate(real.descriptors)
                        if d.canonical_name not in groups and d.role != SignalRole.EFFORT]
                real = sim = real.replace(channels=real.channels[:, keep],
                                          descriptors=tuple(real.descriptors[i] for i in keep))
            ingest.write_canonical(real, root / "real")
            ingest.write_canonical(sim, root / "sim")
        return root / "real", root / "sim"

    @staticmethod
    def _gap(real, sim, out):
        return main(["gap", "--real-dir", str(real), "--sim-dir", str(sim), "--out", str(out)])

    @pytest.mark.parametrize("bad", sorted(ERRORS))
    def test_other_pairs_are_reported(self, tmp_path, capsys, bad):
        assert self._gap(*self._write(tmp_path / "alone", ["good"]), tmp_path / "want") == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert self._gap(*self._write(tmp_path / "batch", ["good", bad]), out) == 1
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        (failure,) = manifest["failures"]
        assert failure.startswith(f"pair '{bad}': {self.ERRORS[bad]}")
        assert manifest["outputs"] == ["gap_pairs.csv", "gap_summary.csv"]
        for name in manifest["outputs"]:
            assert filecmp.cmp(out / name, tmp_path / "want" / name, shallow=False)
        captured = capsys.readouterr()
        assert failure in captured.err
        assert f"gap summary over 1 pairs -> {out / 'gap_summary.csv'}" in captured.out

    def test_all_pairs_failing_writes_no_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self._gap(*self._write(tmp_path, sorted(self.ERRORS)), out) == 1
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert [f.partition(": ")[0] for f in manifest["failures"]] == [
            f"pair {key!r}" for key in sorted(self.ERRORS)]
        assert manifest["outputs"] == []
        assert sorted(p.name for p in out.iterdir()) == ["manifest.yaml"]
        captured = capsys.readouterr()
        assert captured.out == "no gap summary: all 3 pairs failed\n"
        for failure in manifest["failures"]:
            assert failure in captured.err

    def test_each_entry_names_its_pair_once(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self._gap(*self._write(tmp_path, sorted(self.ERRORS)), out) == 1
        failures = yaml.safe_load((out / "manifest.yaml").read_text())["failures"]
        for key, failure in zip(sorted(self.ERRORS), failures):
            # what precedes the error's own text (which may hold the key as a word)
            assert failure[:failure.index(self.ERRORS[key])].count(key) == 1, failure
        assert capsys.readouterr().err == "failures:\n" + "".join(f"  {f}\n" for f in failures)


@pytest.fixture(scope="module")
def gap_dirs(tmp_path_factory):
    """``(real, sim)``: ep_00000 on both sides (sim lacks its 'return' phase),
    a real-only ep_00001 and a sim-only ep_00009."""
    from sefc import ingest

    root = tmp_path_factory.mktemp("gapdiag")
    assert main(["generate", "--out", str(root / "g"), "--seed", "5", "--n-healthy", "0",
                 "--fault-mix", "unstable_platform=2", "--no-noise"]) == 0
    eps = {ep.episode_id: ep for ep in ingest.read_episode_dir(root / "g" / "episodes")}
    real, sim = root / "real", root / "sim"
    for name in ("ep_00000", "ep_00001"):
        ingest.write_canonical(eps[name], real)
    twin = eps["ep_00000_twin"]
    phase = twin.phase.copy()
    phase[phase == "return"] = "release"
    ingest.write_canonical(dataclasses.replace(twin, phase=phase), sim)
    ingest.write_canonical(dataclasses.replace(eps["ep_00001_twin"], episode_id="ep_00009_sim"), sim)
    return real, sim


@pytest.fixture(scope="module")
def gap_run(gap_dirs, tmp_path_factory):
    """The gap command's manifest, stdout and out directory over ``gap_dirs``."""
    real, sim = gap_dirs
    out = tmp_path_factory.mktemp("gapdiag") / "gapout"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["gap", "--real-dir", str(real), "--sim-dir", str(sim),
                     "--out", str(out)]) == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    return manifest, stdout.getvalue(), out


class TestGapManifest:
    def test_prints_unpaired_then_summary(self, gap_run):
        _, stdout, out = gap_run
        assert stdout == ("unpaired: real=['ep_00001'] sim=['ep_00009']\n"
                          f"gap summary over 1 pairs -> {out / 'gap_summary.csv'}\n")

    def test_records_unpaired_keys(self, gap_run):
        assert gap_run[0]["unpaired"] == {"real_only": ["ep_00001"], "sim_only": ["ep_00009"]}

    def test_records_phases_skipped(self, gap_run):
        assert gap_run[0]["phases_skipped"] == {"ep_00000": ["return"]}

    def test_keeps_core_keys(self, gap_run):
        manifest = gap_run[0]
        assert list(manifest)[:5] == ["command", "config", "seed", "inputs", "outputs"]
        assert list(manifest)[-2:] == ["tool_version", "wall_time_s"]
        assert manifest["outputs"] == ["gap_pairs.csv", "gap_summary.csv"]

    def test_seed_is_null(self, gap_run):
        assert gap_run[0]["seed"] is None


@pytest.mark.usefixtures("no_child_left")
class TestGapOnEveryCore:
    """``gap`` reads its real and sim episodes with one process per CPU of its mask.

    The read list is real ep_00000, ep_00001, then sim ep_00000_twin,
    ep_00009_sim; on 2 CPUs this process reads items 0 and 2, a child 1 and 3.
    """

    @staticmethod
    def _patch_read(monkeypatch, before):
        """Make ``ingest.read_canonical`` call ``before(path)`` first."""
        from sefc import ingest

        real = ingest.read_canonical

        def patched(path):
            before(path)
            return real(path)

        monkeypatch.setattr(ingest, "read_canonical", patched)

    @staticmethod
    def _gap(real, sim, out):
        return main(["gap", "--real-dir", str(real), "--sim-dir", str(sim), "--out", str(out)])

    @staticmethod
    def _break(src: Path, dst: Path, stem: str) -> Path:
        """Copy *src* to *dst* with *stem*'s sidecar listing one channel too few."""
        shutil.copytree(src, dst)
        sidecar = dst / f"{stem}.meta.yaml"
        meta = yaml.safe_load(sidecar.read_text())
        meta["channels"].pop()
        sidecar.write_text(yaml.safe_dump(meta, sort_keys=False))
        return dst / f"{stem}.csv"

    def test_reports_do_not_depend_on_cpu_count(self, gap_dirs, tmp_path, monkeypatch):
        real, sim = gap_dirs
        for k in (1, 2, 3):
            cpus(monkeypatch, k)
            log = tmp_path / f"pids{k}"

            def note(path, log=log):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")

            self._patch_read(monkeypatch, note)
            assert self._gap(real, sim, tmp_path / str(k)) == 0
            pids = log.read_text().split()
            assert len(pids) == 4 and len(set(pids)) == k and str(os.getpid()) in pids
        manifests = [yaml.safe_load((tmp_path / str(k) / "manifest.yaml").read_text())
                     for k in (1, 2, 3)]
        assert manifests[0]["unpaired"] == {"real_only": ["ep_00001"], "sim_only": ["ep_00009"]}
        assert manifests[0]["phases_skipped"] == {"ep_00000": ["return"]}
        for k, manifest in zip((2, 3), manifests[1:]):
            for key in ("unpaired", "phases_skipped"):
                assert manifest[key] == manifests[0][key]
            for name in ("gap_pairs.csv", "gap_summary.csv"):
                assert filecmp.cmp(tmp_path / "1" / name, tmp_path / str(k) / name,
                                   shallow=False)

    def test_broken_sim_episode_reports_alike_on_1_and_2_cpus(self, gap_dirs, tmp_path,
                                                              monkeypatch, capsys):
        real, sim = gap_dirs
        broken = self._break(sim, tmp_path / "sim", "ep_00009_sim")   # read by the child
        results = []
        for k in (1, 2):
            cpus(monkeypatch, k)
            rc = self._gap(real, tmp_path / "sim", tmp_path / str(k))
            results.append((rc, capsys.readouterr().err))
        assert results == [(2, f"error: {broken}: data columns do not match "
                               "sidecar channel list\n")] * 2

    # (real stem, sim stem): the broken real file read by the child, then by this process.
    @pytest.mark.parametrize("real_stem,sim_stem", [
        ("ep_00001", "ep_00000_twin"),
        ("ep_00000", "ep_00009_sim"),
    ])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_broken_real_file_wins_over_broken_sim_file(self, gap_dirs, tmp_path, monkeypatch,
                                                        capsys, real_stem, sim_stem, k):
        real, sim = gap_dirs
        broken = self._break(real, tmp_path / "real", real_stem)
        self._break(sim, tmp_path / "sim", sim_stem)
        cpus(monkeypatch, k)
        assert self._gap(tmp_path / "real", tmp_path / "sim", tmp_path / "o") == 2
        assert capsys.readouterr().err == (f"error: {broken}: data columns do not match "
                                           "sidecar channel list\n")

    def test_interrupt_kills_and_reaps_every_child(self, gap_dirs, tmp_path, monkeypatch):
        parent = os.getpid()

        def stall_in_child_interrupt_here(path):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        cpus(monkeypatch, 3)
        self._patch_read(monkeypatch, stall_in_child_interrupt_here)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self._gap(*gap_dirs, tmp_path / "o")
        assert time.monotonic() - t0 < 30


class TestModelPlaneReadsSerially:
    """The model-plane commands never fork: their BLAS work already uses every CPU."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        def fork():
            raise AssertionError("a model-plane command forked")

        cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fork)

    def test_train_anomaly_then_score(self, small_corpus, healthy_corpus, tmp_path, no_fork):
        assert main(["train-anomaly", "--data", str(healthy_corpus), "--out", str(tmp_path / "t"),
                     "--epochs", "1", "--batch-size", "1024"]) == 0
        assert main(["score", "--model", str(tmp_path / "t" / "anomaly_model.ckpt"),
                     "--data", str(small_corpus), "--out", str(tmp_path / "s")]) == 0

    def test_eval_forecast(self, small_corpus, tmp_path, no_fork):
        assert main(["eval-forecast", "--data", str(small_corpus), "--out", str(tmp_path),
                     "--models", "kinematic_zero,linear", "--horizon", "50",
                     "--epochs", "1"]) == 0

    def test_eval_transfer(self, small_corpus, tmp_path, no_fork):
        assert main(["eval-transfer", "--train-data", str(small_corpus),
                     "--eval-data", str(small_corpus), "--out", str(tmp_path),
                     "--models", "kinematic_zero,linear", "--epochs", "1"]) == 0


class TestMissingInputDirectory:
    """A missing input directory exits 1 naming it; an empty one is a directory like any."""

    @pytest.mark.parametrize("argv", [
        ["ingest", "--raw-dir", "{missing}", "--adapter", "voraus_ad"],
        ["train-anomaly", "--data", "{missing}"],
        ["eval-forecast", "--data", "{missing}"],
        ["eval-transfer", "--train-data", "{missing}", "--eval-data", "{empty}"],
        ["gap", "--real-dir", "{empty}", "--sim-dir", "{missing}"],
        ["report", "--in", "{missing}"],
    ], ids=lambda argv: argv[0])
    def test_exits_1_naming_it(self, tmp_path, capsys, argv):
        missing, empty, out = tmp_path / "missing", tmp_path / "empty", tmp_path / "out"
        empty.mkdir()
        argv = [a.format(missing=missing, empty=empty) for a in argv]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {missing}: no such directory\n"
        assert not out.exists()

    def test_a_file_is_not_a_directory(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("a,b\n1,2\n")
        rc = main(["ingest", "--raw-dir", str(raw), "--adapter", "voraus_ad",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {raw}: no such directory\n"


class TestNonFiniteModelValue:
    """A NaN in a model channel of a canonical episode fails ``train-anomaly``,
    ``score`` and ``gap`` with exit 1 and an error naming the episode, the
    channel and the first bad row; no loss, score or gap metric reads NaN."""

    ERROR = "episode 'ep_00001': channel 'effort_motor_torque_2' holds nan at row 40"

    @staticmethod
    def _write(directory: Path, episode_ids) -> Path:
        """Noiseless healthy episodes; ``ep_00001`` has one NaN effort value."""
        from sefc import ingest

        for k, episode_id in enumerate(episode_ids):
            ep = synthgen.generate_episode(30 + k, episode_id=episode_id, noise=False, fault=None)
            if episode_id == "ep_00001":
                channels = np.array(ep.channels)
                channels[40, ep.channel_index("effort_motor_torque_2")] = np.nan
                ep = ep.replace(channels=channels)
            ingest.write_canonical(ep, directory)
        return directory

    def test_train_anomaly(self, tmp_path, capsys):
        data = self._write(tmp_path / "data", ["ep_00000", "ep_00001", "ep_00002"])
        out = tmp_path / "out"
        assert main(["train-anomaly", "--data", str(data), "--out", str(out),
                     "--epochs", "1"]) == 1
        assert capsys.readouterr().err == f"error: {self.ERROR}\n"
        assert not out.exists()

    def test_score(self, healthy_corpus, tmp_path, capsys):
        model = tmp_path / "model"
        assert main(["train-anomaly", "--data", str(healthy_corpus), "--out", str(model),
                     "--epochs", "1", "--batch-size", "1024"]) == 0
        data = self._write(tmp_path / "data", ["ep_00000", "ep_00001"])
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["score", "--model", str(model / "anomaly_model.ckpt"), "--data", str(data),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {self.ERROR}\n"
        assert not out.exists()

    def test_gap(self, tmp_path, capsys):
        real = self._write(tmp_path / "real", ["ep_00001"])
        sim = self._write(tmp_path / "sim", ["ep_00001_sim"])
        out = tmp_path / "out"
        assert main(["gap", "--real-dir", str(real), "--sim-dir", str(sim),
                     "--out", str(out)]) == 1
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["failures"] == [self.ERROR]
        assert manifest["outputs"] == []
        assert self.ERROR in capsys.readouterr().err


class TestNegativeSeed:
    """Every ``--seed`` refuses a negative value while the arguments are parsed."""

    @pytest.mark.parametrize("argv", [
        ["generate", "--n-healthy", "1"],
        ["train-anomaly", "--data", "{healthy}", "--epochs", "1"],
        ["score", "--model", "{data}/none.ckpt", "--data", "{data}"],
        ["eval-forecast", "--data", "{data}", "--epochs", "1"],
        ["eval-transfer", "--train-data", "{data}", "--eval-data", "{data}", "--epochs", "1"],
    ], ids=lambda argv: argv[0])
    def test_exits_2_naming_the_flag_and_writes_nothing(self, small_corpus, healthy_corpus,
                                                        tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = [a.format(data=small_corpus, healthy=healthy_corpus) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out), "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer, got '-1'" in err
        assert not out.exists()


class TestReport:
    def test_merges_available_sections(self, tmp_path):
        (tmp_path / "gap_summary.csv").write_text("metric,mean\nx,1\n")
        (tmp_path / "transfer_report.csv").write_text("model,mc_mae\nzero,0.5\n")
        out = tmp_path / "merged"
        rc = main(["report", "--in", str(tmp_path), "--out", str(out)])
        assert rc == 0
        text = (out / "summary.csv").read_text()
        assert "gap" in text and "transfer" in text

    def test_takes_no_seed_and_records_null(self, tmp_path):
        out = tmp_path / "merged"
        with pytest.raises(SystemExit) as exc:
            main(["report", "--in", str(tmp_path), "--out", str(out), "--seed", "0"])
        assert exc.value.code == 2
        assert main(["report", "--in", str(tmp_path), "--out", str(out)]) == 0
        assert yaml.safe_load((out / "manifest.yaml").read_text())["seed"] is None
