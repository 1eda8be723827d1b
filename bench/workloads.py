"""The benchmark's two closed-loop workloads.

Each workload has a ``setup`` (seeded inputs, not timed as work), a timed
``run`` that issues one operation after another, an ``observe`` that
condenses the outputs into digests and numbers for the reference check, and
a ``deep_check`` run once per process on the last iteration's outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sefc import cli, forecast, ingest, synthgen
from sefc.nnkit import DenseNet, SeqNet, TCNNet, TrainConfig
from sefc.schema import EpisodeMeta, apply_adapter, builtin_adapter

import inputs

perf = time.perf_counter


@dataclass
class Op:
    metric: str                  # end-to-end metric the op's time counts toward
    label: str
    seconds: float
    error: str | None = None


def _record(ops: list[Op], metric: str, label: str, fn, *args):
    t0 = perf()
    result, error = None, None
    try:
        result = fn(*args)
    except Exception as exc:  # a raising call is a failed operation, not a crash of the run
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    ops.append(Op(metric, label, perf() - t0, error))
    return result


def _cli(ops: list[Op], metric: str, *argv) -> None:
    argv = [str(a) for a in argv]

    def command():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"sefc {argv[0]} exited with {rc}")

    _record(ops, metric, f"sefc {argv[0]}", command)


def warm_up() -> None:
    """First tiny call to each model kind, so BLAS threads are up before timing."""
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(8, 10, 36)), rng.normal(size=(8, 6))
    for net, xin in ((DenseNet([360, 16, 6]), x.reshape(8, -1)),
                     (TCNNet(36, hidden=8, dilations=(1,), out_dim=6), x),
                     (SeqNet(36, hidden=8, tcn_dilations=(1,), n_blocks=1, heads=2,
                             ff_dim=8, out_dim=6), x)):
        net.loss_and_grad(xin, y)
        net.predict(xin[:1])


def _canonical_files(dirs) -> list[Path]:
    return sorted((p for d in dirs for p in Path(d).iterdir()
                   if p.name.endswith((".csv", ".meta.yaml"))), key=lambda p: p.name)


def digest(dirs) -> str:
    """SHA-256 over the names and bytes of the canonical files under ``dirs``."""
    h = hashlib.sha256()
    for p in _canonical_files(dirs):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)")


def csv_cells(path: Path) -> list:
    """A report CSV as rows of tokens: numbers become floats, text stays text."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        tokens = []
        for cell in line.split(","):
            tokens.append(_NUMBER.sub("#", cell))
            tokens.extend(float(m) for m in _NUMBER.findall(cell))
        rows.append(tokens)
    return rows


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-exact float64 equality; any NaN matches any NaN (files store no payload)."""
    return a.shape == b.shape and bool(np.all(
        (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))))


def read_back_problems(expected, dirs) -> list[str]:
    """Every episode must be on disk once and read back bit-exactly."""
    files = {p.stem: p for p in _canonical_files(dirs) if p.name.endswith(".csv")}
    problems = [f"unexpected file {name}.csv" for name in
                sorted(set(files) - {ep.episode_id for ep in expected})]
    identity = ("episode_id", "source_id", "embodiment", "task", "rate_hz", "fault",
                "healthy", "descriptors")
    for ep in expected:
        if ep.episode_id not in files:
            problems.append(f"{ep.episode_id}.csv missing")
            continue
        back = ingest.read_canonical(files[ep.episode_id])
        if not (_same_bits(back.t, ep.t) and _same_bits(back.channels, ep.channels)
                and [getattr(back, k) for k in identity] == [getattr(ep, k) for k in identity]
                and [str(p) for p in back.phase] == [str(p) for p in ep.phase]):
            problems.append(f"{ep.episode_id} does not read back bit-exactly")
    return problems


class CorpusIO:
    name = "corpus_io"
    metrics = ("generate_s", "ingest_s", "gap_s")
    N_HEALTHY = 1
    FAULTS_EACH = 2            # per fault type, each with a healthy twin
    FAULT_TYPES = ("additional_axis_payload", "gripper_release_mid_motion")
    RAW_FILES_PER_DIALECT = 1

    def setup(self, root: Path, seed: int) -> dict:
        comma, semi = inputs.write_raw_dirs(root, seed, self.RAW_FILES_PER_DIALECT)
        return {"seed": seed, "comma": comma, "semi": semi}

    def run(self, st: dict, out: Path) -> list[Op]:
        ops: list[Op] = []
        mix = ",".join(f"{f}={self.FAULTS_EACH}" for f in self.FAULT_TYPES)
        _cli(ops, "generate_s", "generate", "--out", out / "gen", "--seed", st["seed"] * 1000,
             "--n-healthy", self.N_HEALTHY, "--fault-mix", mix)
        _cli(ops, "ingest_s", "ingest", "--raw-dir", st["comma"], "--adapter", "voraus_ad",
             "--out", out / "ingest_comma", "--rate-hz", 100)
        _cli(ops, "ingest_s", "ingest", "--raw-dir", st["semi"], "--adapter", "voraus_ad",
             "--out", out / "ingest_semicolon", "--rate-hz", 100,
             "--dialect-delimiter", ";", "--dialect-decimal", ",")
        # Faulty episodes play "real", their healthy twins "sim".
        gen, real, sim = out / "gen" / "episodes", out / "real", out / "sim"
        real.mkdir()
        sim.mkdir()
        for twin in sorted(gen.glob("*_twin.csv")):
            primary = twin.stem[: -len("_twin")]
            for src, dst in ((twin, sim), (gen / f"{primary}.csv", real)):
                src.rename(dst / src.name)
                meta = ingest.sidecar_path_for(src)
                meta.rename(dst / meta.name)
        _cli(ops, "gap_s", "gap", "--real-dir", real, "--sim-dir", sim, "--out", out / "gap")
        return ops

    def _generated_dirs(self, out: Path):
        return [out / "gen" / "episodes", out / "real", out / "sim"]

    def _ingested_dirs(self, out: Path):
        return [out / "ingest_comma" / "episodes", out / "ingest_semicolon" / "episodes"]

    def observe(self, st: dict, out: Path) -> dict:
        return {
            "generate_s": {"episodes": digest(self._generated_dirs(out))},
            "ingest_s": {"episodes": digest(self._ingested_dirs(out))},
            "gap_s": {"gap_pairs.csv": file_digest(out / "gap" / "gap_pairs.csv"),
                      "gap_summary.csv": file_digest(out / "gap" / "gap_summary.csv")},
        }

    def deep_check(self, st: dict, out: Path) -> dict:
        """Episodes built in memory by the same library calls must read back from disk."""
        generated = synthgen.generate_corpus(
            self.N_HEALTHY, {f: self.FAULTS_EACH for f in self.FAULT_TYPES}, st["seed"] * 1000)
        adapter = builtin_adapter("voraus_ad")
        ingested = []
        for raw_dir, dialect in ((st["comma"], ingest.CsvDialect()),
                                 (st["semi"], ingest.CsvDialect(delimiter=";", decimal=","))):
            for path in sorted(raw_dir.glob("*.csv")):
                ep = apply_adapter(ingest.parse_raw_csv(path, dialect), adapter,
                                   EpisodeMeta(path.stem, adapter.source_id, "pick_and_place"))
                ingested.append(ingest.resample(ingest.fill_gaps(ep, 0.001), 100.0))
        n_pairs = {row.split(",")[0] for row in
                   (out / "gap" / "gap_pairs.csv").read_text().splitlines()[1:]}
        expected_pairs = self.FAULTS_EACH * len(self.FAULT_TYPES)
        return {
            "generate_s": read_back_problems(generated, self._generated_dirs(out)),
            "ingest_s": read_back_problems(ingested, self._ingested_dirs(out)),
            "gap_s": [] if len(n_pairs) == expected_pairs else
                     [f"{len(n_pairs)} gap pairs, expected {expected_pairs}"],
        }


class TrainEval:
    """Training at big batches, then batch-1 rollouts and batched transfer inference."""
    name = "train_eval"
    metrics = ("train_anomaly_s", "score_s", "eval_forecast_s", "rollout_s", "transfer_s")
    N_HEALTHY = 5
    FAULTS_EACH = 1
    FAULT_TYPES = ("additional_axis_payload", "gripper_release_mid_motion")
    N_FORECAST = 3
    ANOMALY_EPOCHS = 4
    MODELS = "kinematic_zero,linear,tcn,tcn_transformer"
    # Forecasters trained in set-up for the rollout and transfer operations.
    KINDS = ("flat_mlp", "tcn", "tcn_transformer")
    N_TRAIN = 2
    N_EVAL = 2
    START = 10
    HORIZON = 400

    def setup(self, root: Path, seed: int) -> dict:
        episodes = synthgen.generate_corpus(
            self.N_HEALTHY, {f: self.FAULTS_EACH for f in self.FAULT_TYPES}, seed * 1000)
        labelled, healthy, fc = root / "labelled", root / "healthy", root / "forecast"
        for d in (healthy, fc):
            d.mkdir(parents=True)
        primaries = [ep for ep in episodes
                     if ep.healthy and not ep.episode_id.endswith("_twin")]
        healthy_ids = [ep.episode_id for ep in primaries]
        for ep in episodes:
            csv_path, meta = ingest.write_canonical(ep, labelled)
            targets = ([healthy] if ep.episode_id in healthy_ids else []) + (
                [fc] if ep.episode_id in healthy_ids[: self.N_FORECAST] else [])
            for d in targets:
                shutil.copyfile(csv_path, d / csv_path.name)
                shutil.copyfile(meta, d / meta.name)
        config = TrainConfig(optimizer="adamw", lr0=1e-4, max_epochs=1, patience=1,
                             batch_size=1024, seed=seed)
        models = {kind: forecast.train_forecaster(primaries[: self.N_TRAIN], kind,
                                                  config=config)[0]
                  for kind in self.KINDS}
        return {"seed": seed, "labelled": labelled, "healthy": healthy, "forecast": fc,
                "models": models,
                "eval": primaries[self.N_TRAIN: self.N_TRAIN + self.N_EVAL]}

    def run(self, st: dict, out: Path) -> list[Op]:
        ops: list[Op] = []
        _cli(ops, "train_anomaly_s", "train-anomaly", "--data", st["healthy"],
             "--out", out / "anomaly", "--epochs", self.ANOMALY_EPOCHS,
             "--patience", self.ANOMALY_EPOCHS,
             "--batch-size", 4096, "--seed", st["seed"])
        _cli(ops, "score_s", "score", "--model", out / "anomaly" / "anomaly_model.ckpt",
             "--data", st["labelled"], "--out", out / "score", "--seed", st["seed"])
        _cli(ops, "eval_forecast_s", "eval-forecast", "--data", st["forecast"],
             "--out", out / "forecast", "--models", self.MODELS, "--epochs", 1,
             "--patience", 1, "--horizon", "50,100,200", "--seed", st["seed"])
        rollouts, transfers = {}, {}
        for kind, model in st["models"].items():
            rollouts[kind] = [
                _record(ops, "rollout_s", f"rollout {kind}", forecast.euler_rollout,
                        model, ep, self.START, self.HORIZON)
                for ep in st["eval"]]
        for kind, model in st["models"].items():
            transfers[kind] = _record(ops, "transfer_s", f"transfer {kind}",
                                      forecast.transfer_eval, model, st["eval"], "accel")
        st["outputs"] = (rollouts, transfers)
        return ops

    def observe(self, st: dict, out: Path) -> dict:
        rollouts, transfers = st["outputs"]
        return {
            "train_anomaly_s": {"train_history.csv":
                                csv_cells(out / "anomaly" / "train_history.csv")},
            "score_s": {name: csv_cells(out / "score" / name)
                        for name in ("scores.csv", "anomaly_report.csv")},
            "eval_forecast_s": {"forecast_report.csv":
                                csv_cells(out / "forecast" / "forecast_report.csv")},
            "rollout_s": {kind: [[r.survival_steps, float(np.abs(r.pred_pos - r.truth_pos).mean())]
                                 if r is not None else None for r in results]
                          for kind, results in rollouts.items()},
            "transfer_s": {kind: None if t is None else [t.mc_mae_mean, list(t.per_episode),
                                                         t.raw_mae_mean]
                           for kind, t in transfers.items()},
        }

    def deep_check(self, st: dict, out: Path) -> dict:
        n_scored = len(csv_cells(out / "score" / "scores.csv")) - 1
        expected = self.N_HEALTHY + 2 * self.FAULTS_EACH * len(self.FAULT_TYPES)
        obs = self.observe(st, out)
        problems = {metric: [f"{kind}: missing or non-finite result"
                             for kind, value in obs[metric].items()
                             if value is None or not np.all(np.isfinite(_flatten(value)))]
                    for metric in ("rollout_s", "transfer_s")}
        problems["score_s"] = ([] if n_scored == expected else
                               [f"{n_scored} episodes scored, expected {expected}"])
        return problems


def _flatten(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _flatten(v)]
    return [np.nan if value is None else value]


WORKLOADS = {w.name: w for w in (CorpusIO(), TrainEval())}
