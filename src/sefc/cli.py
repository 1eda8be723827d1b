"""Batch command-line surface: generate, ingest, train, score, evaluate, report.

Every run writes a manifest next to its outputs.  Config precedence is
CLI flag > config file > built-in default.  Exit codes: 0 on success, 2
for configuration/usage errors, 1 for operational failures.  The env var
``SEFC_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import __version__, anomaly, forecast, gap, ingest, synthgen
from .codec import dump_yaml, write_csv
from .errors import EmptyDataset, SchemaViolation, SefcError, UnsupportedFault
from .nnkit import TrainConfig
from .parallel import fork_map
from .schema import (BUILTIN_ADAPTER_IDS, TASKS, EpisodeMeta, apply_adapter, builtin_adapter,
                     load_adapter)

#: The report file of each section that ``sefc report`` merges, in order.
_REPORT_FILES = {
    "anomaly": "anomaly_report.csv",
    "forecast": "forecast_report.csv",
    "transfer": "transfer_report.csv",
    "gap": "gap_summary.csv",
}


class _Done(NamedTuple):
    """What a command body hands back to ``_command``."""

    inputs: list[str]
    outputs: list[str]
    message: str                          # printed to stdout after the manifest
    diagnostics: Optional[dict] = None    # extra manifest keys


def _command(body):
    """Turn ``body(args, out) -> _Done`` into ``cmd_<name>(args) -> exit code``.

    ``out`` is the ``--out`` directory.  The wrapper times the body, writes
    ``out/manifest.yaml`` (command, config, seed, inputs, outputs, the body's
    diagnostics, tool_version, wall_time_s) and prints the message.  It
    returns 1 when the diagnostics hold a non-empty ``failures`` list, which
    only it prints (to stderr), and 0 otherwise.  Errors raised by the body
    reach ``main``, which maps them to exit codes 2 and 1.
    """
    name = body.__name__.removeprefix("cmd_").replace("_", "-")

    @functools.wraps(body)
    def command(args: argparse.Namespace) -> int:
        t0 = time.perf_counter()
        out = Path(args.out)
        done = body(args, out)
        diagnostics = done.diagnostics or {}
        manifest = {
            "command": name,
            "config": getattr(args, "config", None),
            "seed": getattr(args, "seed", None),
            "inputs": done.inputs,
            "outputs": done.outputs,
            **diagnostics,
            "tool_version": __version__,
            "wall_time_s": round(time.perf_counter() - t0, 3),
        }
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.yaml").write_text(dump_yaml(manifest), encoding="utf-8")
        print(done.message)
        failures = diagnostics.get("failures")
        if failures:
            print("failures:", *failures, sep="\n  ", file=sys.stderr)
            return 1
        return 0

    return command


def _train_config(args: argparse.Namespace, optimizer: str) -> TrainConfig:
    return TrainConfig(optimizer=optimizer, lr0=args.lr, batch_size=args.batch_size,
                       max_epochs=args.epochs, patience=min(args.patience, args.epochs),
                       seed=args.seed)


def _finite_positive(flag: str, value: float) -> None:
    """Raise SchemaViolation naming *flag* unless *value* is finite and above 0."""
    if not 0 < value < np.inf:
        raise SchemaViolation(f"{flag} {value!r}: expected a finite number above 0")


def _seed(text: str) -> int:
    """A ``--seed`` value, refused by argparse (exit 2) unless a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _model_kinds(models: str) -> list[str]:
    """The ``--models`` list; every kind must be one of ``forecast.MODEL_KINDS``, once."""
    kinds = [k.strip() for k in models.split(",")]
    for i, kind in enumerate(kinds):
        if kind not in forecast.MODEL_KINDS:
            raise SchemaViolation(f"--models: unknown model kind {kind!r}")
        if kind in kinds[:i]:
            raise SchemaViolation(f"--models {models!r}: {kind!r} is repeated")
    return kinds


def _counts(read: list, used: list) -> dict:
    """The manifest's ``episodes`` entry: *used* are the episodes of *read*
    that a command measured, and it skipped the others as faulty."""
    return {"read": len(read), "used": len(used), "skipped_faulty": len(read) - len(used)}


def _healthy(data: str) -> tuple[list, dict]:
    """The healthy episodes of directory *data*, and their ``_counts``."""
    episodes = ingest.read_episode_dir(data)
    healthy = [ep for ep in episodes if ep.healthy]
    return healthy, _counts(episodes, healthy)


def _train_each(kinds: list[str], episodes, target: str, config: TrainConfig):
    """Each kind's model, and ``{kind: {best_epoch, stopped_early}}`` for the manifest."""
    models, training = {}, {}
    for kind in kinds:
        models[kind], hist = forecast.train_forecaster(episodes, kind, target=target, config=config)
        if hist is not None:   # kinematic_zero does not train
            training[kind] = {"best_epoch": hist.best_epoch, "stopped_early": hist.stopped_early}
    return models, training


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@_command
def cmd_generate(args: argparse.Namespace, out: Path) -> _Done:
    loaded = synthgen.load_generation_config(args.config)
    n_healthy = loaded["n_healthy"] if args.n_healthy is None else args.n_healthy
    fault_mix = loaded["fault_mix"]
    args.seed = seed = loaded["seed"] if args.seed is None else args.seed
    if args.fault_mix:
        fault_mix = {}
        for part in args.fault_mix.split(","):
            name, _, count = (s.strip() for s in part.partition("="))
            if not count.isdecimal():
                raise SchemaViolation(
                    f"--fault-mix entry {part!r}: expected <fault>=<count> "
                    "with a non-negative integer count"
                )
            if name in fault_mix:
                raise SchemaViolation(f"--fault-mix {args.fault_mix!r}: {name!r} is repeated")
            fault_mix[name] = int(count)

    plan = synthgen.corpus_plan(n_healthy, fault_mix, seed)
    config, noise, ep_dir = loaded["config"], not args.no_noise, out / "episodes"

    def generate_and_write(entry) -> str:
        ep_seed, fault, episode_id = entry
        ep = synthgen.generate_episode(ep_seed, config, fault=fault, episode_id=episode_id,
                                       noise=noise)
        return ingest.write_canonical(ep, ep_dir)[0].name

    written = fork_map(generate_and_write, plan)
    return _Done([], sorted(written), f"generated {len(written)} episodes -> {ep_dir}")


@_command
def cmd_ingest(args: argparse.Namespace, out: Path) -> _Done:
    _finite_positive("--rate-hz", args.rate_hz)
    if not 0 <= args.max_missing_fraction <= 1:
        raise SchemaViolation(f"--max-missing-fraction {args.max_missing_fraction!r}: "
                              "expected a number from 0 to 1")
    adapter_arg = args.adapter
    if adapter_arg in BUILTIN_ADAPTER_IDS:
        adapter = builtin_adapter(adapter_arg)
    elif Path(adapter_arg).is_file():
        adapter = load_adapter(adapter_arg)
    else:
        raise SchemaViolation(
            f"unknown adapter {adapter_arg!r}: expected a built-in adapter id or an "
            f"adapter YAML file; built-ins: {', '.join(BUILTIN_ADAPTER_IDS)}"
        )
    allow_missing = args.allow_missing.split(",") if args.allow_missing else ()
    raw_names = {sig.raw_name for sig in adapter.signals}
    for name in allow_missing:
        if name not in raw_names:
            raise SchemaViolation(f"--allow-missing: {name!r} is not a raw column of "
                                  f"adapter {adapter.source_id!r}")

    dialect = ingest.CsvDialect(
        delimiter=args.dialect_delimiter,
        decimal=args.dialect_decimal,
        na_tokens=tuple(args.dialect_na.split("|")) if args.dialect_na else ingest.DEFAULT_NA_TOKENS,
    )
    text_columns = {adapter.phase_column} - {None}
    files = ingest.episode_files(args.raw_dir)
    ep_dir = out / "episodes"
    written, failures = [], []
    for path in files:
        try:
            meta = EpisodeMeta(path.stem, args.embodiment or adapter.source_id, args.task)
            ep = apply_adapter(ingest.parse_raw_csv(path, dialect, text_columns), adapter, meta,
                               allow_missing)
            ep = ingest.fill_gaps(ep, args.max_missing_fraction)
            if abs(ep.rate_hz - args.rate_hz) > 1e-12:
                ep = ingest.resample(ep, args.rate_hz)
            csv_path, _ = ingest.write_canonical(ep, ep_dir)
            written.append(csv_path.name)
        except (SefcError, OSError) as exc:
            failures.append(f"{path.name}: {exc}")
    return _Done([p.name for p in files], sorted(written),
                 f"ingested {len(written)}/{len(files)} files -> {ep_dir}",
                 {"failures": failures})


@_command
def cmd_train_anomaly(args: argparse.Namespace, out: Path) -> _Done:
    episodes = ingest.read_episode_dir(args.data)
    model, history = anomaly.train_anomaly_model(episodes, config=_train_config(args, "adam"))
    ckpt = model.save(out / "anomaly_model.ckpt")
    hist_path = write_csv(
        out / "train_history.csv", ["epoch", "train_loss", "val_loss", "lr"],
        ([e, f"{tr:.12g}", f"{va:.12g}", f"{lr:.12g}"]
         for e, (tr, va, lr) in enumerate(zip(history.train_loss, history.val_loss, history.lr))),
    )
    return _Done([str(args.data)], [ckpt.name, hist_path.name],
                 f"trained {history.n_epochs} epochs, best epoch {history.best_epoch} -> {ckpt}",
                 {"episodes": _counts(episodes, episodes), "best_epoch": history.best_epoch,
                  "stopped_early": history.stopped_early})


@_command
def cmd_score(args: argparse.Namespace, out: Path) -> _Done:
    model = anomaly.AnomalyModel.load(args.model)
    episodes = ingest.read_episode_dir(args.data)
    scored = anomaly.score_episodes(model, episodes)
    scores_path = anomaly.write_scores_csv(scored, out / "scores.csv")
    outputs = [scores_path.name]
    if any(s.is_anomalous for s in scored) and any(not s.is_anomalous for s in scored):
        report = anomaly.per_category_report(scored, seed=args.seed)
        outputs.append(anomaly.write_report_csv(report, out / _REPORT_FILES["anomaly"]).name)
        outputs.append(
            anomaly.write_report_summary(report, out / "anomaly_summary.yaml").name
        )
    return _Done([str(args.data)], outputs, f"scored {len(scored)} episodes -> {scores_path}",
                 {"episodes": _counts(episodes, episodes)})


@_command
def cmd_eval_forecast(args: argparse.Namespace, out: Path) -> _Done:
    _finite_positive("--threshold", args.threshold)
    episodes, counts = _healthy(args.data)
    if len(episodes) < 3:
        raise SchemaViolation("eval-forecast needs at least 3 healthy episodes")
    parts = args.horizon.split(",")
    if not all(p.strip().isdecimal() and int(p) > 0 for p in parts):
        raise SchemaViolation(
            f"--horizon {args.horizon!r}: expected comma-separated positive integers")
    horizons = sorted(int(p) for p in parts)
    if len(set(horizons)) != len(horizons):
        raise SchemaViolation(f"--horizon {args.horizon!r}: a horizon is repeated")
    h_max = horizons[-1]
    kinds = _model_kinds(args.models)
    config = _train_config(args, "adamw")

    n_eval = max(1, len(episodes) // 5)
    train_eps, eval_eps = episodes[:-n_eval], episodes[-n_eval:]
    start = args.start
    if start < forecast.WINDOW_STEPS:
        raise SchemaViolation(f"--start {start}: a rollout needs {forecast.WINDOW_STEPS} "
                              "steps of history")
    for ep in eval_eps:
        if start + h_max >= ep.n_steps:
            raise SchemaViolation(
                f"episode {ep.episode_id} too short for start={start}, H={h_max}"
            )

    rows_by_model: dict[str, list[forecast.HorizonRow]] = {}
    survival_by_model: dict[str, float] = {}
    curves: dict[str, np.ndarray] = {}
    models, training = _train_each(kinds, train_eps, "accel", config)
    for kind, model in models.items():
        results = [
            forecast.euler_rollout(model, ep, start, h_max, args.threshold)
            for ep in eval_eps
        ]
        rows_by_model[kind] = forecast.horizon_metrics(results, horizons)
        survival_by_model[kind] = float(np.mean([r.survival_steps for r in results]))
        curves[kind] = forecast.survival_curve(results, h_max)

    report_path = forecast.write_forecast_csv(rows_by_model, survival_by_model,
                                              out / _REPORT_FILES["forecast"])
    curve_path = write_csv(
        out / "survival_curve.csv", ["model", "step", "fraction_surviving"],
        ([kind, step, f"{frac:.6f}"]
         for kind in sorted(curves) for step, frac in enumerate(curves[kind], start=1)),
    )
    return _Done([str(args.data)], [report_path.name, curve_path.name],
                 f"evaluated {kinds} at H={horizons} -> {report_path}",
                 {"episodes": counts, "training": training})


@_command
def cmd_eval_transfer(args: argparse.Namespace, out: Path) -> _Done:
    kinds = _model_kinds(args.models)
    source, source_counts = _healthy(args.train_data)
    target, target_counts = _healthy(args.eval_data)
    if not target:
        raise EmptyDataset(f"{args.eval_data}: no healthy episode to evaluate on")
    config = _train_config(args, "adamw")
    models, training = _train_each(kinds, source, args.channel_set, config)
    reports = [forecast.transfer_eval(m, target, args.channel_set) for m in models.values()]
    path = forecast.write_transfer_csv(reports, out / _REPORT_FILES["transfer"])
    return _Done([str(args.train_data), str(args.eval_data)], [path.name],
                 f"transfer report -> {path}",
                 {"episodes": {"train": source_counts, "eval": target_counts},
                  "training": training})


@_command
def cmd_gap(args: argparse.Namespace, out: Path) -> _Done:
    real_files = ingest.episode_files(args.real_dir)
    sim_files = ingest.episode_files(args.sim_dir)
    episodes = fork_map(ingest.read_canonical, real_files + sim_files)
    real, sim = episodes[:len(real_files)], episodes[len(real_files):]
    pairs, unpaired = ingest.pair_episodes(real, sim)
    per_pair, phases_skipped, failures = [], {}, []
    for pair in pairs:
        try:
            aligned = gap.phase_align(pair)
            phases_skipped[pair.pair_key] = list(aligned.phases_skipped)
            per_pair.append(gap.pair_metrics(aligned))
        except SefcError as exc:
            failures.append(str(exc))
    outputs = []
    if per_pair or not failures:   # no pair at all raises EmptyInput here
        summary = gap.batch_summary(per_pair)
        outputs = [gap.write_pair_metrics_csv(per_pair, out / "gap_pairs.csv").name,
                   gap.write_summary_csv(summary, out / _REPORT_FILES["gap"]).name]
        message = f"gap summary over {summary.n_pairs} pairs -> {out / outputs[1]}"
    else:
        message = f"no gap summary: all {len(failures)} pairs failed"
    if unpaired.real_only or unpaired.sim_only:
        message = (f"unpaired: real={list(unpaired.real_only)} "
                   f"sim={list(unpaired.sim_only)}\n{message}")
    return _Done(
        [str(args.real_dir), str(args.sim_dir)], outputs, message,
        {"unpaired": {"real_only": list(unpaired.real_only),
                      "sim_only": list(unpaired.sim_only)},
         "phases_skipped": phases_skipped,
         "failures": failures},
    )


@_command
def cmd_report(args: argparse.Namespace, out: Path) -> _Done:
    in_dir = ingest.existing_dir(args.in_dir)
    present = [(section, in_dir / name) for section, name in _REPORT_FILES.items()
               if (in_dir / name).exists()]
    merged = write_csv(
        out / "summary.csv", ["section", "row"],
        ([section, line] for section, path in present
         for line in path.read_text(encoding="utf-8").splitlines()),
    )
    return _Done([str(in_dir)], [merged.name],
                 f"merged {len(present)} report sections -> {merged}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_train_flags(p: argparse.ArgumentParser, epochs: int, lr: float,
                     batch_size: int) -> None:
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--lr", type=float, default=lr)
    p.add_argument("--batch-size", type=int, default=batch_size)
    p.add_argument("--patience", type=int, default=30)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sefc",
        description="Control-loop telemetry toolkit: generation, ingestion, evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="generation config YAML")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--n-healthy", type=int, default=None)
    p.add_argument("--fault-mix", default=None, help="e.g. additional_axis_payload=20")
    p.add_argument("--no-noise", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="adapt raw CSVs into canonical episodes")
    p.add_argument("--raw-dir", required=True)
    p.add_argument("--adapter", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rate-hz", type=float, default=100.0)
    p.add_argument("--task", choices=TASKS, default="pick_and_place")
    p.add_argument("--embodiment", default=None)
    p.add_argument("--allow-missing", default=None, help="comma-separated raw names")
    p.add_argument("--max-missing-fraction", type=float, default=0.001)
    p.add_argument("--dialect-delimiter", default=",")
    p.add_argument("--dialect-decimal", default=".")
    p.add_argument("--dialect-na", default=None, help="pipe-separated NA tokens")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train-anomaly", help="train the setpoint->effort regressor")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    _add_train_flags(p, epochs=60, lr=5e-4, batch_size=4096)
    p.set_defaults(func=cmd_train_anomaly)

    p = sub.add_parser("score", help="score episodes with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval-forecast", help="rollout evaluation of the forecaster zoo")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--models", default=",".join(forecast.MODEL_KINDS))
    p.add_argument("--horizon", default="50,100,200")
    p.add_argument("--start", type=int, default=10)
    p.add_argument("--threshold", type=float, default=0.01)
    p.add_argument("--seed", type=_seed, default=0)
    _add_train_flags(p, epochs=30, lr=1e-4, batch_size=1024)
    p.set_defaults(func=cmd_eval_forecast)

    p = sub.add_parser("eval-transfer", help="zero-shot cross-embodiment evaluation")
    p.add_argument("--train-data", required=True)
    p.add_argument("--eval-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--models", default="kinematic_zero,tcn_transformer")
    p.add_argument("--channel-set", choices=("effort", "accel"), default="effort")
    p.add_argument("--seed", type=_seed, default=0)
    _add_train_flags(p, epochs=30, lr=1e-4, batch_size=1024)
    p.set_defaults(func=cmd_eval_transfer)

    p = sub.add_parser("gap", help="phase-aware gap metrics over episode pairs")
    p.add_argument("--real-dir", required=True)
    p.add_argument("--sim-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("report", help="merge report CSVs into one summary")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SEFC_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaViolation, UnsupportedFault, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SefcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
