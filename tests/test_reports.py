"""Every report file keeps its bytes.

The ``_ref_*`` functions are the hand-rolled writers the report modules had
before they shared ``sefc.codec.write_csv``/``dump_yaml``; each test feeds the
same report objects to a reference and to the current writer and compares
bytes.  The inputs hold ``None`` cells, NaN and ids with commas and quotes,
so csv quoting and the ``\\r\\n`` row ends are exercised.  The golden test pins
the digests of a small ``generate -> gap -> report`` run.
"""

import csv
import hashlib
import types
from pathlib import Path

import numpy as np
import pytest
import yaml

from sefc import anomaly, forecast, gap, ingest
from sefc.anomaly import AnomalyReport, CategoryRow, ScoredEpisode
from sefc.cli import main
from sefc.forecast import HorizonRow, TransferReport
from sefc.gap import GapMetrics, GapSummary, MetricSummary
from sefc.nnkit import TrainHistory

NAN = float("nan")


# ---------------------------------------------------------------------------
# reference writers
# ---------------------------------------------------------------------------

def _ref_write_report_csv(report, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category", "n", "auroc"])
        for row in report.rows:
            writer.writerow([row.category, row.n, f"{row.auroc:.6f}"])
        writer.writerow(["mean", sum(r.n for r in report.rows),
                         f"{report.mean_auroc:.6f}"])
        writer.writerow(["pooled", sum(r.n for r in report.rows),
                         f"{report.pooled_auroc:.6f}"])
        writer.writerow([
            "ci95",
            report.n_healthy,
            f"[{report.ci[0]:.6f}, {report.ci[1]:.6f}]",
        ])


def _ref_write_report_summary(report, path):
    payload = {
        "mean_auroc": round(report.mean_auroc, 6),
        "pooled_auroc": round(report.pooled_auroc, 6),
        "ci": [round(report.ci[0], 6), round(report.ci[1], 6)],
        "ci_level": 0.95,
        "n_healthy": report.n_healthy,
        "n_anomalous": sum(r.n for r in report.rows),
        "categories": {
            r.category: {"n": r.n, "auroc": round(r.auroc, 6)} for r in report.rows
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(payload, fh, sort_keys=False)


def _ref_write_scores_csv(scored, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode_id", "label", "score"])
        for s in scored:
            writer.writerow([s.episode_id, s.label, "{:.17g}".format(s.score)])


def _ref_write_forecast_csv(rows_by_model, survival_by_model, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "horizon", "mse_scaled", "mse_std",
                         "mae_scaled", "mae_std", "survival_steps"])
        for model_kind in sorted(rows_by_model):
            for row in rows_by_model[model_kind]:
                writer.writerow([
                    model_kind, row.horizon,
                    f"{row.mse_scaled:.6f}", f"{row.mse_std:.6f}",
                    f"{row.mae_scaled:.6f}", f"{row.mae_std:.6f}",
                    f"{survival_by_model[model_kind]:.3f}",
                ])


def _ref_write_transfer_csv(reports, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "target", "mc_mae", "ci_halfwidth",
                         "raw_mae", "n_episodes"])
        for r in reports:
            writer.writerow([
                r.model_kind, r.target, f"{r.mc_mae_mean:.6f}",
                f"{r.ci_halfwidth:.6f}", f"{r.raw_mae_mean:.6f}", r.n_episodes,
            ])


def _ref_write_pair_metrics_csv(per_pair, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_key", "metric", "value", "rotvec_wrapped"])
        for m in per_pair:
            for metric in gap.METRIC_NAMES:
                v = getattr(m, metric)
                writer.writerow([
                    m.pair_key, metric,
                    "" if v is None else f"{v:.9g}",
                    int(m.rotvec_wrapped),
                ])


def _ref_write_summary_csv(summary, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean", "median", "p10", "p90", "n"])
        for r in summary.rows:
            writer.writerow([
                r.metric, f"{r.mean:.9g}", f"{r.median:.9g}",
                f"{r.p10:.9g}", f"{r.p90:.9g}", r.n,
            ])


def _ref_write_train_history(history, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "lr"])
        for e, (tr, va, lr) in enumerate(
            zip(history.train_loss, history.val_loss, history.lr)
        ):
            writer.writerow([e, f"{tr:.12g}", f"{va:.12g}", f"{lr:.12g}"])


def _ref_write_survival_curve(curves, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "step", "fraction_surviving"])
        for kind in sorted(curves):
            for step, frac in enumerate(curves[kind], start=1):
                writer.writerow([kind, step, f"{frac:.6f}"])


def _ref_write_merged_summary(in_dir, path):
    sections = (("anomaly", "anomaly_report.csv"), ("forecast", "forecast_report.csv"),
                ("transfer", "transfer_report.csv"), ("gap", "gap_summary.csv"))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["section", "row"])
        for section, filename in sections:
            src = in_dir / filename
            if not src.exists():
                continue
            for line in src.read_text(encoding="utf-8").splitlines():
                writer.writerow([section, line])


def _same_bytes(a: Path, b: Path) -> None:
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# report objects
# ---------------------------------------------------------------------------

REPORT = AnomalyReport(
    rows=(CategoryRow("additional_axis_payload", 4, 0.8125),
          CategoryRow('cat, "quoted"', 2, NAN)),
    mean_auroc=0.8125, pooled_auroc=0.79999999, ci=(0.5, 1.0), n_healthy=7,
)

SCORED = (ScoredEpisode("ep_00000", "healthy", 0.1234567890123),
          ScoredEpisode('ep,"1"', "additional_axis_payload", NAN),
          ScoredEpisode("ep 2", "healthy", -0.0),
          ScoredEpisode("ep_3", "unstable_platform", float("inf")))

ROWS_BY_MODEL = {
    "tcn": [HorizonRow(50, 1.5, 0.25, NAN, 1e-9), HorizonRow(100, 2e6, 0.0, 3.0, 4.0)],
    "kinematic_zero": [HorizonRow(50, 0.1, 0.2, 0.3, 0.4)],
}
SURVIVAL_BY_MODEL = {"tcn": 42.0, "kinematic_zero": NAN}

TRANSFER = (TransferReport("tcn", "effort", 0.5, NAN, 1.25, 3, (0.1, 0.2)),
            TransferReport("kinematic_zero", 'acc,"el"', 1e-7, 0.0, 2.0, 1, (1.0,)))

PAIRS = (GapMetrics("ep_00000", joint_rmse_deg=1.2345678901, tcp_pos_rmse_mm=NAN,
                    w1_effort_mean=0.0, rotvec_wrapped=True),
         GapMetrics('pair,"two"', ee_l2_rms_mm=3.0, tcp_rotvec_rmse_mrad=1e-12))

SUMMARY = GapSummary(rows=(MetricSummary("joint_rmse_deg", 1.0, NAN, 0.5, 2.0, 2),
                           MetricSummary('m,"x"', 1e20, 2.0, -1.0, 3.0, 1)), n_pairs=2)


# ---------------------------------------------------------------------------
# module writers
# ---------------------------------------------------------------------------

WRITERS = [
    (anomaly.write_report_csv, _ref_write_report_csv, (REPORT,)),
    (anomaly.write_report_summary, _ref_write_report_summary, (REPORT,)),
    (anomaly.write_scores_csv, _ref_write_scores_csv, (SCORED,)),
    (forecast.write_forecast_csv, _ref_write_forecast_csv, (ROWS_BY_MODEL, SURVIVAL_BY_MODEL)),
    (forecast.write_transfer_csv, _ref_write_transfer_csv, (TRANSFER,)),
    (gap.write_pair_metrics_csv, _ref_write_pair_metrics_csv, (PAIRS,)),
    (gap.write_summary_csv, _ref_write_summary_csv, (SUMMARY,)),
]


@pytest.mark.parametrize("write, ref, args", WRITERS, ids=[w[0].__name__ for w in WRITERS])
def test_module_writer_bytes(tmp_path, write, ref, args):
    path = write(*args, tmp_path / "new" / "deep" / "report")
    assert path == tmp_path / "new" / "deep" / "report"
    ref(*args, tmp_path / "ref")
    _same_bytes(path, tmp_path / "ref")


def test_reports_quote_cells_and_end_rows_with_crlf(tmp_path):
    text = gap.write_pair_metrics_csv(PAIRS, tmp_path / "p.csv").read_bytes()
    assert text.startswith(b"pair_key,metric,value,rotvec_wrapped\r\n")
    assert b'"pair,""two""",ee_l2_rms_mm,3,0\r\n' in text
    assert b"ep_00000,tcp_pos_rmse_mm,nan,1\r\n" in text
    assert b"ep_00000,ee_l2_rms_mm,,1\r\n" in text


# ---------------------------------------------------------------------------
# writers inside CLI commands
# ---------------------------------------------------------------------------

def test_train_history_bytes(tmp_path, monkeypatch, capsys):
    history = TrainHistory(train_loss=[1.0, NAN, 1e-300], val_loss=[2.5, float("inf"), 0.1],
                           lr=[5e-4, 2.5e-4, 0.0], best_epoch=2, stopped_early=False)

    class Model:
        def save(self, path):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("ckpt")
            return path

    monkeypatch.setattr(ingest, "read_episode_dir", lambda d: [])
    monkeypatch.setattr(anomaly, "train_anomaly_model", lambda eps, config: (Model(), history))
    out = tmp_path / "t"
    assert main(["train-anomaly", "--data", str(tmp_path), "--out", str(out)]) == 0
    _ref_write_train_history(history, tmp_path / "ref.csv")
    _same_bytes(out / "train_history.csv", tmp_path / "ref.csv")
    assert capsys.readouterr().out == (
        f"trained 3 epochs, best epoch 2 -> {out / 'anomaly_model.ckpt'}\n")


def test_eval_forecast_report_and_curve_bytes(tmp_path, monkeypatch, capsys):
    curves = {"tcn": np.array([1.0, 2 / 3, NAN]), "linear": np.array([0.5, 0.0, 1e-7])}
    episodes = [types.SimpleNamespace(healthy=True, n_steps=10_000, episode_id=f"e{i}")
                for i in range(3)]
    monkeypatch.setattr(ingest, "read_episode_dir", lambda d: episodes)
    # the fake "model" is its kind, so each rollout knows which curve it belongs to
    monkeypatch.setattr(forecast, "train_forecaster", lambda eps, kind, **k: (kind, None))
    monkeypatch.setattr(forecast, "euler_rollout",
                        lambda kind, *a: types.SimpleNamespace(kind=kind, survival_steps=2.0))
    monkeypatch.setattr(forecast, "horizon_metrics",
                        lambda results, horizons: ROWS_BY_MODEL["tcn"])
    monkeypatch.setattr(forecast, "survival_curve", lambda results, h: curves[results[0].kind])
    out = tmp_path / "fc"
    rc = main(["eval-forecast", "--data", str(tmp_path), "--out", str(out),
               "--models", "tcn,linear", "--horizon", "100,50"])
    assert rc == 0
    _ref_write_survival_curve(curves, tmp_path / "curve.csv")
    _same_bytes(out / "survival_curve.csv", tmp_path / "curve.csv")
    _ref_write_forecast_csv({"tcn": ROWS_BY_MODEL["tcn"], "linear": ROWS_BY_MODEL["tcn"]},
                            {"tcn": 2.0, "linear": 2.0}, tmp_path / "report.csv")
    _same_bytes(out / "forecast_report.csv", tmp_path / "report.csv")
    assert capsys.readouterr().out == (
        f"evaluated ['tcn', 'linear'] at H=[50, 100] -> {out / 'forecast_report.csv'}\n")


def test_merged_summary_bytes(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    (in_dir / "anomaly_report.csv").write_text('category,n,auroc\r\n"a, ""b""",2,nan\r\n')
    (in_dir / "gap_summary.csv").write_text("metric,mean\nx,1\n\n")
    out = tmp_path / "merged"
    assert main(["report", "--in", str(in_dir), "--out", str(out)]) == 0
    _ref_write_merged_summary(in_dir, tmp_path / "ref.csv")
    _same_bytes(out / "summary.csv", tmp_path / "ref.csv")
    assert capsys.readouterr().out == f"merged 2 report sections -> {out / 'summary.csv'}\n"


# ---------------------------------------------------------------------------
# golden end-to-end digests
# ---------------------------------------------------------------------------

GOLDEN = {
    "gap/gap_pairs.csv": "3fa263241fd5b25ec3222ca3d989b610165b87e28dd3fd1065beb7df37d46145",
    "gap/gap_summary.csv": "27853673ccae4bf1006cdfac7220652ba480e6457d2e25c0dc93e30c31e37c13",
    "report/summary.csv": "d1df676da6ddadb80eb8030df1242091733e7ccac0d0c95ddced7e51fdf1fa49",
}


def test_generate_gap_report_golden_digests(tmp_path):
    assert main(["generate", "--out", str(tmp_path / "g"), "--seed", "5", "--n-healthy", "0",
                 "--fault-mix", "unstable_platform=2", "--no-noise"]) == 0
    real, sim = tmp_path / "real", tmp_path / "sim"
    real.mkdir(), sim.mkdir()
    for p in (tmp_path / "g" / "episodes").iterdir():
        target = sim if p.name.split(".")[0].endswith("_twin") else real
        (target / p.name).write_bytes(p.read_bytes())
    assert main(["gap", "--real-dir", str(real), "--sim-dir", str(sim),
                 "--out", str(tmp_path / "gap")]) == 0
    assert main(["report", "--in", str(tmp_path / "gap"), "--out", str(tmp_path / "report")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN
