"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Everything is seeded; the full gate targets well under ten
minutes on a laptop.
"""

import filecmp
import time
from pathlib import Path

import numpy as np
import pytest

from adapter_expectations import EXPECTED_BY_SOURCE
from conftest import channel_for_raw, make_episode
from gradcheck import gradient_check
from sefc import anomaly, gap, ingest, synthgen
from sefc.anomaly import ANOMALY_INPUT_CHANNELS, ANOMALY_OUTPUT_CHANNELS, auroc
from sefc.cli import main as cli_main
from sefc.errors import ExcessiveMissing
from sefc.forecast import Forecaster, euler_rollout, mc_mae
from sefc.gap import batch_summary, pair_metrics, phase_align, wasserstein_1d
from sefc.nnkit import DenseNet, SeqNet, TCNNet, TrainConfig
from sefc.schema import SignalRole, apply_adapter, builtin_adapter


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} PASS - {detail}")


def test_criterion_01_adapter_fidelity():
    for source_id, expected in EXPECTED_BY_SOURCE.items():
        spec = builtin_adapter(source_id)
        for raw, canonical, role, unit in expected:
            s = channel_for_raw(spec, raw)
            assert (s.canonical_name, s.role.value, s.unit) == (canonical, role, unit), \
                f"{source_id}: {raw}"
        assert {s.raw_name for s in spec.signals} == {r for r, *_ in expected}, source_id

    # the voraus adapter yields exactly the 24-channel anomaly signal set
    spec = builtin_adapter("voraus_ad")
    rng = np.random.default_rng(0)
    table = {s.raw_name: rng.normal(size=8) for s in spec.signals}
    from sefc.schema import EpisodeMeta
    ep = apply_adapter(table, spec, EpisodeMeta("e", "arm", "pick_and_place"))
    setpoints = tuple(d.canonical_name for d in ep.descriptors
                      if d.role == SignalRole.SETPOINT and d.canonical_name.startswith(
                          ("setpoint_pos_", "setpoint_vel_", "setpoint_acc_")))
    efforts = tuple(d.canonical_name for d in ep.descriptors
                    if d.role == SignalRole.EFFORT
                    and d.canonical_name.startswith("effort_motor_torque_"))
    assert setpoints == ANOMALY_INPUT_CHANNELS
    assert efforts == ANOMALY_OUTPUT_CHANNELS
    n_rows = sum(len(v) for v in EXPECTED_BY_SOURCE.values())
    report(1, f"6 adapters, {n_rows} transcribed rows exact; voraus 18+6 signal set")


def test_criterion_02_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    checks = {
        "dense_18_512_256_128_6": (
            DenseNet([18, 512, 256, 128, 6], seed=1),
            rng.normal(size=(6, 18)), rng.normal(size=(6, 6)),
        ),
        "flat_mlp_360_128_64_6": (
            DenseNet([360, 128, 64, 6], seed=2),
            rng.normal(size=(6, 360)), rng.normal(size=(6, 6)),
        ),
        "tcn": (
            TCNNet(36, hidden=64, kernel=3, dilations=(1, 2), out_dim=6, seed=3),
            rng.normal(size=(3, 10, 36)), rng.normal(size=(3, 6)),
        ),
        "seqnet": (
            SeqNet(seed=4),
            rng.normal(size=(2, 10, 36)), rng.normal(size=(2, 6)),
        ),
    }
    worst = {}
    for name, (model, x, y) in checks.items():
        err = gradient_check(model, x, y, n_probes=120, eps=1e-6, seed=7)
        worst[name] = err
        assert err < 1e-4, f"{name}: {err}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report(2, f"max rel errors {detail} in {elapsed:.1f}s")


def _auroc_pairwise_oracle(scored):
    pos = [s for s, a in scored if a]
    neg = [s for s, a in scored if not a]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_criterion_03_auroc_oracle_equivalence():
    rng = np.random.default_rng(123)
    for case in range(200):
        n = int(rng.integers(2, 201))
        scores = rng.integers(0, 12, size=n) / 3.0   # coarse grid forces ties
        labels = rng.integers(0, 2, size=n).astype(bool)
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        scored = list(zip(scores.tolist(), labels.tolist()))
        assert auroc(scored) == _auroc_pairwise_oracle(scored), f"case {case}"
    report(3, "rank-formula AUROC == exhaustive pairwise oracle on 200 instances")


def test_criterion_04_desk_scale_anomaly_experiment():
    t0 = time.monotonic()
    corpus = synthgen.generate_corpus(80, {"additional_axis_payload": 20}, seed0=1000)
    healthy = [e for e in corpus if e.healthy and not e.episode_id.endswith("_twin")]
    faulty = [e for e in corpus if not e.healthy]
    assert len(healthy) == 80 and len(faulty) == 20

    train_eps, test_healthy = healthy[:60], healthy[60:]
    config = TrainConfig(optimizer="adam", lr0=5e-4,
                         batch_size=4096, max_epochs=40, patience=30, seed=0)
    model, history = anomaly.train_anomaly_model(train_eps, config=config)

    scored = anomaly.score_episodes(model, test_healthy + faulty)
    value = auroc([(s.score, s.is_anomalous) for s in scored])
    elapsed = time.monotonic() - t0
    assert value >= 0.90
    assert elapsed < 180.0
    report(4, f"additional_axis_payload AUROC {value:.3f} "
              f"({history.n_epochs} epochs, {elapsed:.0f}s)")


def test_criterion_05_mc_mae_invariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        t = int(rng.integers(2, 60))
        k = int(rng.integers(1, 8))
        pred = rng.normal(size=(t, k))
        truth = rng.normal(size=(t, k))
        c = rng.normal(size=k) * 10.0
        assert abs(mc_mae(pred + c, truth) - mc_mae(pred, truth)) <= 1e-12
        assert mc_mae(truth + c, truth) <= 1e-12
    report(5, "mc_mae constant-offset invariance <= 1e-12 on 100 random instances")


def _recurrence_episode(seed=3, n_steps=260, rate_hz=100.0):
    rng = np.random.default_rng(seed)
    dt = 1.0 / rate_hz
    scale = rng.uniform(0.5, 1.5, 6)
    acc = 0.3 * np.sin(2 * np.pi * 0.8 * np.arange(n_steps) * dt)[:, None] * scale
    vel = np.zeros((n_steps, 6))
    pos = np.zeros((n_steps, 6))
    pos[0] = rng.uniform(-1, 1, 6)
    for t in range(n_steps - 1):
        vel[t + 1] = vel[t] + acc[t] * dt
        pos[t + 1] = pos[t] + vel[t] * dt
    channels, descs = {}, {}
    for prefix, arr, unit in (("feedback_pos", pos, "rad"),
                              ("feedback_vel", vel, "rad/s"),
                              ("feedback_acc", acc, "rad/s^2")):
        for i in range(6):
            channels[f"{prefix}_{i}"] = arr[:, i]
            descs[f"{prefix}_{i}"] = (SignalRole.FEEDBACK, unit, i)
    for prefix, unit in (("setpoint_pos", "rad"), ("setpoint_vel", "rad/s"),
                         ("setpoint_acc", "rad/s^2")):
        for i in range(6):
            channels[f"{prefix}_{i}"] = np.zeros(n_steps)
            descs[f"{prefix}_{i}"] = (SignalRole.SETPOINT, unit, i)
    return make_episode(channels, descs, rate_hz=rate_hz, episode_id="rec")


class _TrueAccelOracle:
    def __init__(self, ep, start):
        self.acc = np.column_stack([ep.channel(f"feedback_acc_{i}") for i in range(6)])
        self.step = start

    def predict_batch(self, windows):
        a = self.acc[self.step]
        self.step += 1
        return a[None]


def test_criterion_06_euler_and_survival():
    ep = _recurrence_episode()
    res0 = euler_rollout(Forecaster(kind="kinematic_zero", target="accel"), ep, 10, 200)
    q0 = np.column_stack([ep.channel(f"feedback_pos_{i}") for i in range(6)])[10]
    v0 = np.column_stack([ep.channel(f"feedback_vel_{i}") for i in range(6)])[10]
    ks = np.arange(1, 201)[:, None]
    closed = q0[None] + v0[None] * ks / ep.rate_hz
    kin_err = np.abs(res0.pred_pos - closed).max()
    assert kin_err <= 1e-12

    res = euler_rollout(_TrueAccelOracle(ep, 10), ep, 10, 200, threshold_rad=0.01)
    assert res.survival_steps == 200.0
    assert np.all(res.first_violation == -1)
    report(6, f"kinematic closed form err {kin_err:.1e}; oracle survival 200/200")


def _w1_transport_oracle(a, b):
    from scipy.optimize import linprog

    a, b = np.asarray(a, float), np.asarray(b, float)
    n, m = len(a), len(b)
    cost = np.abs(a[:, None] - b[None, :]).ravel()
    rows = []
    for i in range(n):
        r = np.zeros((n, m))
        r[i, :] = 1.0
        rows.append(r.ravel())
    for j in range(m):
        c = np.zeros((n, m))
        c[:, j] = 1.0
        rows.append(c.ravel())
    res = linprog(cost, A_eq=np.asarray(rows), b_eq=[1.0 / n] * n + [1.0 / m] * m,
                  method="highs")
    assert res.success
    return float(res.fun)


def test_criterion_07_wasserstein_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n, m = rng.integers(1, 6, size=2)
        a = np.round(rng.normal(size=n), 2)   # rounding forces duplicates
        b = np.round(rng.normal(size=m), 2)
        got = wasserstein_1d(a, b)
        want = _w1_transport_oracle(a, b)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9
        assert wasserstein_1d(b, a) == got
        c = float(rng.normal() * 5)
        assert abs(wasserstein_1d(a + c, b + c) - got) <= 1e-12
    report(7, f"quantile-integral W1 vs transport LP: worst |diff| {worst:.2e} "
              "over 1000 cases; symmetry/translation hold")


def test_criterion_08_gap_pipeline_end_to_end():
    real_eps, sim_eps = [], []
    for k in range(1, 21):
        base = synthgen.generate_episode(4000 + k, episode_id=f"pair{k:02d}",
                                         noise=False, fault=None)
        ch = np.array(base.channels)
        for i in range(6):
            ch[:, base.channel_index(f"feedback_pos_{i}")] += np.deg2rad(float(k))
        sim = base.replace(episode_id=f"pair{k:02d}_sim", channels=ch)
        real_eps.append(base)
        sim_eps.append(sim)
    pairs, unpaired = ingest.pair_episodes(real_eps, sim_eps)
    assert len(pairs) == 20 and not unpaired.real_only and not unpaired.sim_only

    per_pair = [pair_metrics(phase_align(p)) for p in pairs]
    rows = {r.metric: r for r in batch_summary(per_pair).rows}
    joint = rows["joint_rmse_deg"]
    assert abs(joint.mean - 10.5) <= 1e-9
    for name in gap.METRIC_NAMES:
        row = rows.get(name)
        assert row is not None, name
        assert row.p10 <= row.median <= row.p90, name
    report(8, f"20 offset pairs: joint RMSE mean {joint.mean:.12f} deg; "
              "p10<=median<=p90 for all five metrics")


def test_criterion_09_ingestion_exactness(tmp_path):
    noisy = synthgen.generate_episode(77, episode_id="rt", noise=True, fault=None)
    csv_path, _ = ingest.write_canonical(noisy, tmp_path)
    back = ingest.read_canonical(csv_path)
    rt_err = np.abs(back.channels - noisy.channels).max()
    assert rt_err <= 1e-12

    t = np.arange(61) / 60.0
    descs = {"a": (SignalRole.SETPOINT, "rad", None),
             "b": (SignalRole.FEEDBACK, "rad", None),
             "c": (SignalRole.CONTEXT, "-", None)}
    linear = make_episode({"a": 2 * t - 0.5, "b": -3 * t, "c": t}, descs,
                          rate_hz=60.0, episode_id="lin")
    res = ingest.resample(linear, 100.0)
    lin_err = max(
        np.abs(res.channel("a") - (2 * res.t - 0.5)).max(),
        np.abs(res.channel("b") + 3 * res.t).max(),
    )
    assert lin_err <= 1e-12

    with_gap = make_episode({"a": np.array([1.0, np.nan, 3.0]),
                             "b": np.array([np.nan, 5.0, np.nan]),
                             "c": np.ones(3)}, descs, episode_id="g")
    filled = ingest.fill_gaps(with_gap, max_missing_fraction=0.7)
    assert filled.channel("a").tolist() == [1.0, 2.0, 3.0]
    assert filled.channel("b").tolist() == [5.0, 5.0, 5.0]

    col = np.ones(1000)
    col[::500] = np.nan  # 0.2 percent missing, above the 0.1 percent default
    over = make_episode({"a": col, "b": np.ones(1000), "c": np.ones(1000)}, descs,
                        episode_id="x")
    with pytest.raises(ExcessiveMissing):
        ingest.fill_gaps(over, max_missing_fraction=0.001)
    report(9, f"round trip err {rt_err:.1e}; 60->100 Hz linear err {lin_err:.1e}; "
              "gap fill + 0.1% threshold enforced")


def _files_identical(a: Path, b: Path) -> bool:
    return filecmp.cmp(a, b, shallow=False)


def test_criterion_10_cli_determinism(tmp_path):
    # generate
    for name in ("g1", "g2"):
        rc = cli_main(["generate", "--out", str(tmp_path / name), "--seed", "21",
                       "--n-healthy", "6", "--fault-mix", "unstable_platform=1"])
        assert rc == 0
    g1, g2 = tmp_path / "g1" / "episodes", tmp_path / "g2" / "episodes"
    names = sorted(p.name for p in g1.iterdir())
    assert names == sorted(p.name for p in g2.iterdir())
    assert all(_files_identical(g1 / n, g2 / n) for n in names)

    # train-anomaly (healthy primaries only)
    healthy = tmp_path / "healthy"
    healthy.mkdir()
    for p in g1.iterdir():
        if "_twin" in p.name or int(p.name.split(".")[0].split("_")[1]) < 6:
            (healthy / p.name).write_bytes(p.read_bytes())
    for name in ("t1", "t2"):
        rc = cli_main(["train-anomaly", "--data", str(healthy),
                       "--out", str(tmp_path / name), "--epochs", "2",
                       "--batch-size", "1024", "--seed", "4"])
        assert rc == 0
    assert _files_identical(tmp_path / "t1" / "train_history.csv",
                            tmp_path / "t2" / "train_history.csv")
    assert _files_identical(tmp_path / "t1" / "anomaly_model.ckpt",
                            tmp_path / "t2" / "anomaly_model.ckpt")

    # eval-forecast
    for name in ("f1", "f2"):
        rc = cli_main(["eval-forecast", "--data", str(g1), "--out",
                       str(tmp_path / name), "--models", "kinematic_zero,linear",
                       "--horizon", "50,100,200", "--epochs", "2", "--seed", "4"])
        assert rc == 0
    assert _files_identical(tmp_path / "f1" / "forecast_report.csv",
                            tmp_path / "f2" / "forecast_report.csv")
    assert _files_identical(tmp_path / "f1" / "survival_curve.csv",
                            tmp_path / "f2" / "survival_curve.csv")
    report(10, "generate / train-anomaly / eval-forecast byte-identical across reruns")
