import contextlib
import dataclasses
import filecmp
import io
import os
import time
from pathlib import Path

import pytest
import yaml

from sefc import synthgen
from sefc.cli import main
from sefc.errors import NumericalInstability, SchemaViolation

FIXTURES = Path(__file__).parent / "fixtures"


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


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["generate", "--out", str(out), "--seed", "11", "--n-healthy", "6",
               "--fault-mix", "additional_axis_payload=2"])
    assert rc == 0
    return out / "episodes"


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


class TestGenerateOnEveryCore:
    """``generate`` maps its episodes over one process per CPU of its affinity mask."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _cpus(monkeypatch, k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    @staticmethod
    def _patch_generate(monkeypatch, before):
        """Make ``synthgen.generate_episode`` call ``before(episode_id)`` first."""
        real = synthgen.generate_episode

        def patched(seed, config, fault=None, episode_id=None, noise=True):
            before(episode_id)
            return real(seed, config, fault, episode_id, noise)

        monkeypatch.setattr(synthgen, "generate_episode", patched)

    def _pids(self, monkeypatch, log: Path):
        """Log the pid that generates each episode to *log*."""
        def note(episode_id):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        self._patch_generate(monkeypatch, note)

    def test_bytes_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        for k in (1, 2, 3):
            self._cpus(monkeypatch, k)
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
            self._cpus(monkeypatch, k)
            assert main([*_GENERATE, "--out", str(tmp_path / str(k))]) == rc
            errs.append(capsys.readouterr().err)
        assert errs == [f"error: {message}\n"] * 2

    def test_child_without_result_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()

        def die_in_child(episode_id):
            if os.getpid() != parent:
                os._exit(3)

        self._cpus(monkeypatch, 2)
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

        self._cpus(monkeypatch, 3)
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
    ], ids=["not_utf8", "oversized_field"])
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

    def test_train_then_score(self, small_corpus, tmp_path):
        healthy_dir = tmp_path / "healthy"
        healthy_dir.mkdir()
        for p in small_corpus.iterdir():
            stem = p.name.split(".")[0]
            if stem.endswith("_twin") or int(stem.split("_")[1]) < 6:
                (healthy_dir / p.name).write_text(p.read_text())
        train_out = tmp_path / "train"
        rc = main(["train-anomaly", "--data", str(healthy_dir),
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

        path = save_model(tmp_path / "m.ckpt", DenseNet([2, 3, 1], seed=0))
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
            forecast.Forecaster("kinematic_zero"), histories.get(kind)))
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


@pytest.fixture(scope="module")
def gap_run(tmp_path_factory):
    """Gap over ep_00000 (sim lacks its 'return' phase), a real-only ep_00001
    and a sim-only ep_00009."""
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
    out = root / "gapout"
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
