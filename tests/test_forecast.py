import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_episode
from sefc import synthgen
from sefc.errors import HorizonOverrun, MissingChannel, SchemaViolation, ShapeMismatch
from sefc.forecast import (
    FEATURE_BLOCKS,
    Forecaster,
    RolloutResult,
    episode_features,
    euler_rollout,
    horizon_metrics,
    make_windows,
    mc_mae,
    survival_curve,
    train_forecaster,
    transfer_eval,
    _NETS,
)
from sefc.nnkit import TrainConfig, save_model
from sefc.schema import SignalRole


def recurrence_episode(seed=3, n_steps=260, rate_hz=100.0, episode_id="rec"):
    """Episode whose feedback states satisfy the first-order integrator
    recurrence exactly (the independent oracle for rollout checks)."""
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
    return make_episode(channels, descs, rate_hz=rate_hz, episode_id=episode_id)


class TrueAccelOracle:
    """Feeds back the recorded acceleration at each rollout step."""

    def __init__(self, ep, start):
        self.acc = np.column_stack([ep.channel(f"feedback_acc_{i}") for i in range(6)])
        self.step = start

    def predict_batch(self, windows):
        a = self.acc[self.step]
        self.step += 1
        return a[None]


class EchoSetpoint:
    """Echoes the setpoint-acc features of the last window row."""

    def predict_batch(self, windows):
        return windows[:, -1, 30:36]


def reference_rollout(model, ep, start, horizon, threshold=0.01):
    """The closed loop written out step by step: feedback rows from *start*
    on are the loop's own states, then q <- q + v dt and v <- v + a dt.

    Returns (pred_pos, truth_pos, first_violation, survival_steps)."""
    feats = episode_features(ep)
    work = feats.copy()
    dt = 1.0 / ep.rate_hz
    q, v = feats[start, 0:6].copy(), feats[start, 6:12].copy()
    pred = np.empty((horizon, 6))
    for k in range(horizon):
        t = start + k
        work[t, 0:6], work[t, 6:12] = q, v
        a = np.asarray(model.predict_batch(work[t - 10:t][None]))[0]
        work[t, 12:18] = a
        q, v = q + v * dt, v + a * dt
        pred[k] = q
    truth = feats[start + 1:start + 1 + horizon, 0:6]
    over = np.abs(pred - truth) > threshold
    hit = over.any(axis=0)
    first = np.where(hit, over.argmax(axis=0) + 1, -1)
    survived = np.where(hit, over.argmax(axis=0), horizon)
    return pred, truth, first, float(survived.astype(float).mean())


class TestFeatures:
    def test_layout_order(self, noiseless_episode):
        feats = episode_features(noiseless_episode)
        assert feats.shape == (noiseless_episode.n_steps, 36)
        assert np.array_equal(feats[:, 0], noiseless_episode.channel("feedback_pos_0"))
        assert np.array_equal(feats[:, 18], noiseless_episode.channel("setpoint_pos_0"))
        assert FEATURE_BLOCKS[:3] == ("feedback_pos", "feedback_vel", "feedback_acc")

    def test_derived_feedback_acc(self):
        # drop the recorded acceleration channels; derive from velocity
        rec = recurrence_episode()
        keep = [d.canonical_name for d in rec.descriptors
                if not d.canonical_name.startswith("feedback_acc")]
        channels = {n: rec.channel(n) for n in keep}
        descs = {n: (d.role, d.unit, d.axis) for n, d in
                 zip(rec.channel_names, rec.descriptors) if n in keep}
        ep = make_episode(channels, descs, rate_hz=100.0, episode_id="noacc")
        feats = episode_features(ep)
        vel = np.column_stack([ep.channel(f"feedback_vel_{i}") for i in range(6)])
        derived = feats[:, 12:18]
        expected = np.empty_like(vel)
        expected[1:] = (vel[1:] - vel[:-1]) * 100.0
        expected[0] = expected[1]
        assert np.abs(derived - expected).max() <= 1e-12

    def test_missing_channel(self):
        ep = make_episode(
            {"feedback_pos_0": np.zeros(20), "x": np.zeros(20)},
            {"feedback_pos_0": (SignalRole.FEEDBACK, "rad", 0),
             "x": (SignalRole.CONTEXT, "-", None)},
        )
        with pytest.raises(MissingChannel):
            episode_features(ep)

    @pytest.mark.parametrize("joint", [0, 3])
    def test_accel_targets_without_one_recorded_acc_channel(self, joint):
        # episode_features derives a missing feedback_acc joint by joint; the
        # accel targets are those feature columns
        ep = synthgen.generate_episode(3, noise=False, fault=None, episode_id="ep_3")
        k = ep.channel_index(f"feedback_acc_{joint}")
        ep = ep.replace(channels=np.delete(ep.channels, k, axis=1),
                        descriptors=ep.descriptors[:k] + ep.descriptors[k + 1:])
        x, y = make_windows(ep, target="accel")
        feats = episode_features(ep)
        assert np.array_equal(y, feats[10:, 12:18]) and len(y) == len(x)

    # sha256 of the feature bits of seed 3's noiseless episode without some
    # recorded accelerations, recorded while each feature column was gathered
    # on its own (numpy 2.4, x86-64)
    @pytest.mark.parametrize("dropped,digest", [
        ((3,), "4596722ed4f9e7fc06b99d58ee1a00349b51ef71da53128a60322fd468fcf696"),
        (range(6), "342c885b52ff509ba51e204fcb6afb906709c079bf7fdf4d3fc9ec006f18bef9"),
    ])
    def test_derived_feature_bits_are_golden(self, dropped, digest):
        ep = synthgen.generate_episode(3, noise=False, fault=None, episode_id="ep_3")
        drop = {f"feedback_acc_{j}" for j in dropped}
        keep = [k for k, d in enumerate(ep.descriptors) if d.canonical_name not in drop]
        ep = ep.replace(channels=ep.channels[:, keep],
                        descriptors=tuple(ep.descriptors[k] for k in keep))
        assert hashlib.sha256(episode_features(ep).tobytes()).hexdigest() == digest

    def test_make_windows_shapes(self):
        ep = recurrence_episode(n_steps=60)
        x, y = make_windows(ep, target="accel")
        feats = episode_features(ep)
        assert x.shape == (50, 10, 36) and y.shape == (50, 6)
        # window k ends right before its target row
        assert np.array_equal(x[0, -1, 12:18], feats[9, 12:18])
        for k in range(len(x)):
            assert np.array_equal(x[k].view(np.uint64), feats[k:k + 10].view(np.uint64))
        assert x.dtype == np.float64 and x.flags.c_contiguous and x.flags.writeable


class TestPredict:
    def test_kinematic_zero(self):
        model = Forecaster(kind="kinematic_zero", target="accel")
        window = np.ones((10, 36))
        assert model.predict_batch(window[None]).tolist() == [[0.0] * 6]

    def test_zero_weight_linear(self):
        from sefc.anomaly import Standardizer
        from sefc.nnkit import DenseNet

        net = DenseNet([360, 6], seed=0)
        net.set_params(np.zeros(net.n_params))
        model = Forecaster(
            kind="linear", net=net,
            x_std=Standardizer(np.zeros(36), np.ones(36)),
            y_std=Standardizer(np.zeros(6), np.ones(6)), target="accel",
        )
        assert model.predict_batch(np.ones((1, 10, 36))).tolist() == [[0.0] * 6]

    def test_window_shape_checked(self):
        model = Forecaster(kind="kinematic_zero", target="accel")
        with pytest.raises(ShapeMismatch):
            model.predict_batch(np.ones((1, 9, 36)))

    def test_trained_tcn_recovers_constant_acceleration(self):
        # constant-acceleration kinematics: the recovered constant of each
        # held-out episode (mean prediction over its windows) lands within
        # 1e-2 while the zero baseline stays out
        eps = []
        for k in range(300):
            rng = np.random.default_rng(k)
            T, dt = 14, 0.01
            c = rng.uniform(-0.05, 0.05, 6)
            acc = np.tile(c, (T, 1))
            vel = np.cumsum(acc, axis=0) * dt
            pos = np.cumsum(vel, axis=0) * dt
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
                    channels[f"{prefix}_{i}"] = np.zeros(T)
                    descs[f"{prefix}_{i}"] = (SignalRole.SETPOINT, unit, i)
            eps.append(make_episode(channels, descs, episode_id=f"const{k:03d}"))
        model, _ = train_forecaster(
            eps, "tcn", target="accel",
            config=TrainConfig(optimizer="adamw", lr0=1e-2,
                               batch_size=400, max_epochs=80, patience=80, seed=0),
        )
        for ep in eps[-36:]:  # the validation episodes, unseen constants
            x, y = make_windows(ep, target="accel")
            recovered = model.predict_batch(x).mean(axis=0)
            assert np.abs(recovered - y[0]).max() < 1e-2
            zero_err = np.abs(y[0]).max()
            if zero_err > 1e-2:  # the test discriminates against the baseline
                assert np.abs(recovered - y[0]).max() < zero_err


class TestRollout:
    @pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValueError, match="threshold_rad must be finite and positive"):
            euler_rollout(Forecaster(kind="kinematic_zero", target="accel"), recurrence_episode(),
                          10, 50, threshold)

    def test_kinematic_zero_closed_form(self):
        ep = recurrence_episode()
        res = euler_rollout(Forecaster(kind="kinematic_zero", target="accel"), ep, 10, 200)
        q0 = np.column_stack([ep.channel(f"feedback_pos_{i}") for i in range(6)])[10]
        v0 = np.column_stack([ep.channel(f"feedback_vel_{i}") for i in range(6)])[10]
        ks = np.arange(1, 201)[:, None]
        closed = q0[None] + v0[None] * ks / ep.rate_hz
        assert np.abs(res.pred_pos - closed).max() <= 1e-12

    def test_oracle_accelerations_reproduce_truth(self):
        ep = recurrence_episode()
        res = euler_rollout(TrueAccelOracle(ep, 10), ep, 10, 200)
        assert np.abs(res.pred_pos - res.truth_pos).max() < 1e-6
        assert res.survival_steps == 200.0
        assert np.all(res.first_violation == -1)

    def test_horizon_overrun(self):
        ep = recurrence_episode(n_steps=100)
        with pytest.raises(HorizonOverrun):
            euler_rollout(Forecaster(kind="kinematic_zero", target="accel"), ep, 10, 200)
        with pytest.raises(HorizonOverrun):
            euler_rollout(Forecaster(kind="kinematic_zero", target="accel"), ep, 5, 50)

    def test_setpoints_replayed_not_recirculated(self):
        # the echoed setpoint features stay recorded (zeros), so the loop
        # integrates zero accelerations, as the zero baseline does
        ep = recurrence_episode()
        res = euler_rollout(EchoSetpoint(), ep, 10, 50)
        zero = euler_rollout(Forecaster(kind="kinematic_zero", target="accel"), ep, 10, 50)
        assert res.pred_pos.tobytes() == zero.pred_pos.tobytes()

    @pytest.mark.parametrize("kind", ["kinematic_zero", "echo", "tcn"])
    def test_bits_equal_the_reference_loop(self, kind):
        if kind == "kinematic_zero":
            model = Forecaster(kind="kinematic_zero", target="accel")
        elif kind == "echo":
            model = EchoSetpoint()
        else:
            train_eps = [recurrence_episode(seed=s, episode_id=f"tr{s}") for s in range(4)]
            model, _ = train_forecaster(
                train_eps, "tcn", config=TrainConfig(optimizer="adamw", lr0=1e-3, batch_size=256,
                                                     max_epochs=1, patience=1, seed=0))
        ep = recurrence_episode(seed=7)
        res = euler_rollout(model, ep, 10, 120, 0.002)
        pred, truth, first, survival = reference_rollout(model, ep, 10, 120, 0.002)
        assert res.pred_pos.tobytes() == pred.tobytes()
        assert res.truth_pos.tobytes() == truth.tobytes()
        assert res.first_violation.tolist() == first.tolist()
        assert res.survival_steps == survival


class TestHorizonMetrics:
    def _result(self, err_value, H=200):
        pred = np.zeros((H, 6))
        truth = pred - err_value
        return RolloutResult(pred_pos=pred, truth_pos=truth,
                             first_violation=np.full(6, -1), survival_steps=float(H))

    def test_zero_error(self):
        rows = horizon_metrics([self._result(0.0)], (50, 100, 200))
        assert all(r.mse_scaled == 0.0 and r.mae_scaled == 0.0 for r in rows)

    def test_unit_scales(self):
        # constant 0.01 rad error: MAE = 1.00 (x1e-2 rad), MSE = 1.00 (x1e-4 rad^2)
        rows = horizon_metrics([self._result(0.01)], (50,))
        assert rows[0].mae_scaled == pytest.approx(1.0)
        assert rows[0].mse_scaled == pytest.approx(1.0)

    def test_prefix_property(self):
        ep = recurrence_episode()
        res = euler_rollout(Forecaster(kind="kinematic_zero", target="accel"), ep, 10, 200)
        full = horizon_metrics([res], (50, 100, 200))
        only50 = horizon_metrics([res], (50,))
        assert full[0] == only50[0]

    def test_survival_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        from sefc.forecast import _survival

        for _ in range(50):
            err = np.abs(rng.normal(0, 0.02, size=(100, 6)))
            _, loose = _survival(err, 0.03)
            _, tight = _survival(err, 0.01)
            assert tight <= loose

    def test_survival_curve_shape(self):
        ep = recurrence_episode()
        res = euler_rollout(TrueAccelOracle(ep, 10), ep, 10, 100)
        curve = survival_curve([res], 100)
        assert curve.shape == (100,)
        assert np.all(curve == 1.0)


class TestMcMae:
    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(30, 6))
        assert mc_mae(x, x) == 0.0

    def test_constant_offset_removed(self):
        rng = np.random.default_rng(1)
        truth = rng.normal(size=(40, 6))
        c = rng.normal(size=6)
        assert mc_mae(truth + c, truth) <= 1e-12

    def test_double_amplitude_hand_case(self):
        # 3-step, 1-channel, zero-mean truth: pred = 2*truth -> mean |truth|
        truth = np.array([[-1.0], [0.0], [1.0]])
        assert mc_mae(2 * truth, truth) == pytest.approx(np.mean(np.abs(truth)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mc_mae(np.zeros((3, 2)), np.zeros((3, 3)))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=(25, 4))
        truth = rng.normal(size=(25, 4))
        c = rng.normal(size=4) * 10
        assert abs(mc_mae(pred + c, truth) - mc_mae(pred, truth)) <= 1e-12


class TestTransfer:
    def test_oracle_on_source_is_zero(self):
        ep = recurrence_episode(n_steps=80)

        class Oracle:
            def __init__(self):
                self.kind = "oracle"
                self.target = "accel"

            def predict_batch(self, windows):
                _, y = make_windows(ep, "accel")
                return y[:len(windows)]

        report = transfer_eval(Oracle(), [ep], target="accel")
        assert report.mc_mae_mean <= 1e-12

    def test_constant_effort_offset_transfers_exactly(self):
        # target embodiment = source + per-joint constant effort offsets
        source = [synthgen.generate_episode(200 + k, episode_id=f"s{k}", fault=None)
                  for k in range(8)]
        rng = np.random.default_rng(5)
        offsets = rng.uniform(1.0, 3.0, 6)
        shifted = []
        for ep in source:
            ch = np.array(ep.channels)
            for i in range(6):
                ch[:, ep.channel_index(f"effort_motor_torque_{i}")] += offsets[i]
            shifted.append(ep.replace(episode_id=ep.episode_id + "b", channels=ch))
        model, _ = train_forecaster(
            source, "linear", target="effort",
            config=TrainConfig(optimizer="adamw", lr0=1e-3, batch_size=1024,
                               max_epochs=8, patience=8, seed=0),
        )
        on_source = transfer_eval(model, source, "effort")
        on_shifted = transfer_eval(model, shifted, "effort")
        # constant bias contributes nothing to the mean-centered error
        assert on_shifted.mc_mae_mean == pytest.approx(on_source.mc_mae_mean, abs=1e-12)
        # but dominates the raw error
        assert on_shifted.raw_mae_mean > on_shifted.mc_mae_mean
        assert on_shifted.raw_mae_mean > on_source.raw_mae_mean

    def test_forecaster_checkpoint_round_trip(self, tmp_path):
        eps = [recurrence_episode(seed=k, n_steps=60, episode_id=f"s{k}")
               for k in range(4)]
        model, _ = train_forecaster(
            eps, "linear", target="accel",
            config=TrainConfig(optimizer="adamw", lr0=1e-3, batch_size=256,
                               max_epochs=2, patience=2, seed=0),
        )
        path = model.save(tmp_path / "f.ckpt")
        loaded = Forecaster.load(path)
        x, _ = make_windows(eps[0], "accel")
        assert np.array_equal(loaded.predict_batch(x), model.predict_batch(x))
        assert loaded.kind == "linear" and loaded.target == "accel"

    def test_forecaster_checkpoint_bytes_are_golden(self, tmp_path):
        # sha256 of a trained linear forecaster's checkpoint, recorded while
        # `Forecaster.save` spelled out its standardizer extras itself
        # (numpy 2.4 with 2-thread OpenBLAS, x86-64)
        eps = [synthgen.generate_episode(5100 + k, fault=None, episode_id=f"fc{k}")
               for k in range(3)]
        model, _ = train_forecaster(
            eps, "linear",
            config=TrainConfig(optimizer="adamw", lr0=1e-3, batch_size=256,
                               max_epochs=2, patience=2, seed=0),
        )
        path = model.save(tmp_path / "f.ckpt")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "3d08f705c7fca996f48503018dc87cba9e908439527503fc16de147ec8625c99")

    @pytest.mark.parametrize("drop", ["forecaster_kind", "x_mean", "y_stdev", "target"])
    def test_load_rejects_checkpoint_without_forecaster_extras(self, tmp_path, drop):
        extra = {"forecaster_kind": "linear", "target": "accel",
                 "x_mean": [0.0] * 36, "x_stdev": [1.0] * 36,
                 "y_mean": [0.0] * 6, "y_stdev": [1.0] * 6}
        del extra[drop]
        path = save_model(tmp_path / "f.ckpt", _NETS["linear"](6, seed=0), extra=extra)
        with pytest.raises(SchemaViolation,
                           match=f"{re.escape(str(path))}: not a forecaster checkpoint"):
            Forecaster.load(path)

    @pytest.mark.parametrize("key,value", [
        ("x_mean", [0.0] * 35),
        ("x_stdev", [1.0] * 360),
        ("y_mean", [0.0] * 5),
        ("y_stdev", [1.0] * 7),
        ("x_mean", ["a"] * 36),
        ("y_mean", None),
        ("forecaster_kind", "kinematic_zero"),
        ("forecaster_kind", "lstm"),
        ("forecaster_kind", ["linear"]),
        ("target", "torque"),
        ("target", None),
    ])
    def test_load_rejects_standardizer_that_does_not_fit(self, tmp_path, key, value):
        extra = {"forecaster_kind": "linear", "target": "accel",
                 "x_mean": [0.0] * 36, "x_stdev": [1.0] * 36,
                 "y_mean": [0.0] * 6, "y_stdev": [1.0] * 6}
        extra[key] = value
        path = save_model(tmp_path / "f.ckpt", _NETS["linear"](6, seed=0), extra=extra)
        with pytest.raises(SchemaViolation, match=f"{re.escape(str(path))}: {key} "):
            Forecaster.load(path)

    def test_ci_halfwidth_formula(self):
        ep1 = recurrence_episode(seed=1, n_steps=60, episode_id="a")
        ep2 = recurrence_episode(seed=2, n_steps=60, episode_id="b")
        zero = Forecaster(kind="kinematic_zero", target="accel")
        report = transfer_eval(zero, [ep1, ep2], "accel")
        per = np.asarray(report.per_episode)
        expected = 1.96 * per.std(ddof=1) / np.sqrt(2)
        assert report.ci_halfwidth == pytest.approx(expected)
