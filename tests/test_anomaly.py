import hashlib
import re
import shutil

import numpy as np
import pytest

from conftest import make_episode, reference_checkpoint
from sefc import anomaly, synthgen
from sefc.cli import main
from sefc.anomaly import (
    ANOMALY_INPUT_CHANNELS,
    ANOMALY_OUTPUT_CHANNELS,
    AnomalyModel,
    ScoredEpisode,
    Standardizer,
    auroc,
    bootstrap_ci,
    build_regression_set,
    per_category_report,
    score_episode,
    train_anomaly_model,
)
from sefc.errors import DegenerateLabels, MissingChannel, SchemaViolation
from sefc.forecast import Forecaster, _NETS
from sefc.nnkit import DenseNet, TrainConfig, load_model, save_model
from sefc.schema import SignalRole


def auroc_pairwise_oracle(scored):
    """Exhaustive O(n^2) pair count: wins + half ties over all pairs."""
    pos = [s for s, a in scored if a]
    neg = [s for s, a in scored if not a]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def _regression_episode(seed, n_steps=100, weights=None, fault=None):
    """Episode whose efforts are an exact linear map of the setpoints."""
    rng = np.random.default_rng(seed)
    weights = weights if weights is not None else np.arange(18 * 6).reshape(18, 6) / 100.0
    x = rng.normal(size=(n_steps, 18))
    y = x @ weights
    channels = {}
    descs = {}
    for j, name in enumerate(ANOMALY_INPUT_CHANNELS):
        channels[name] = x[:, j]
        descs[name] = (SignalRole.SETPOINT, "rad", j % 6)
    for j, name in enumerate(ANOMALY_OUTPUT_CHANNELS):
        channels[name] = y[:, j]
        descs[name] = (SignalRole.EFFORT, "Nm", j)
    return make_episode(channels, descs, episode_id=f"reg{seed}", fault=fault)


class TestBuildRegressionSet:
    def test_pooling_shapes(self):
        eps = [_regression_episode(1), _regression_episode(2)]
        x, y = build_regression_set(eps)
        assert x.shape == (200, 18) and y.shape == (200, 6)

    def test_channel_set_is_24_signals(self):
        assert len(ANOMALY_INPUT_CHANNELS) == 18
        assert len(ANOMALY_OUTPUT_CHANNELS) == 6
        assert len(set(ANOMALY_INPUT_CHANNELS + ANOMALY_OUTPUT_CHANNELS)) == 24

    def test_missing_channel(self):
        ep = _regression_episode(1)
        kept = [d for d in ep.descriptors if d.canonical_name != "effort_motor_torque_3"]
        ep = ep.replace(channels=ep.columns([d.canonical_name for d in kept]), descriptors=kept)
        with pytest.raises(MissingChannel, match="effort_motor_torque_3"):
            build_regression_set([ep])


class TestScoring:
    def _perfect_model(self, ep, weights):
        x, y = build_regression_set([ep])
        x_std = Standardizer.fit(x)
        y_std = Standardizer.fit(y)
        # express the raw-unit linear map in standardized coordinates
        net = DenseNet([18, 6], seed=0)
        w = (x_std.std[:, None] * weights) / y_std.std[None, :]
        b = (x_std.mean @ weights - y_std.mean) / y_std.std
        net.set_params(np.concatenate([w.ravel(), b]))
        return AnomalyModel(net, x_std, y_std)

    def test_perfect_prediction_scores_zero(self):
        weights = np.arange(18 * 6).reshape(18, 6) / 100.0
        ep = _regression_episode(5, weights=weights)
        model = self._perfect_model(ep, weights)
        assert score_episode(model, ep).score < 1e-9

    def test_zero_predictor_scores_mean_abs_gaussian(self):
        # standardized Gaussian efforts: E|y| = sqrt(2/pi) ~ 0.798
        rng = np.random.default_rng(0)
        n = 100_000
        channels, descs = {}, {}
        for j, name in enumerate(ANOMALY_INPUT_CHANNELS):
            channels[name] = rng.normal(size=n)
            descs[name] = (SignalRole.SETPOINT, "rad", j % 6)
        for name in ANOMALY_OUTPUT_CHANNELS:
            channels[name] = rng.normal(size=n)
            descs[name] = (SignalRole.EFFORT, "Nm", 0)
        ep = make_episode(channels, descs, episode_id="gauss")
        x, y = build_regression_set([ep])
        net = DenseNet([18, 6], seed=0)
        net.set_params(np.zeros(net.n_params))
        model = AnomalyModel(net, Standardizer.fit(x), Standardizer.fit(y))
        score = score_episode(model, ep).score
        assert abs(score - np.sqrt(2 / np.pi)) < 0.01

    def test_faulty_twin_scores_higher(self, small_anomaly_model, twin_pairs):
        for faulty, twin in twin_pairs:
            s_fault = score_episode(small_anomaly_model, faulty).score
            s_twin = score_episode(small_anomaly_model, twin).score
            assert s_fault > s_twin

    def test_scoring_does_not_mutate_standardizer(self, small_anomaly_model):
        before = (small_anomaly_model.x_std.mean.copy(),
                  small_anomaly_model.x_std.std.copy(),
                  small_anomaly_model.y_std.mean.copy(),
                  small_anomaly_model.y_std.std.copy())
        ep = synthgen.generate_episode(8123, episode_id="probe", fault=None)
        score_episode(small_anomaly_model, ep)
        after = (small_anomaly_model.x_std.mean, small_anomaly_model.x_std.std,
                 small_anomaly_model.y_std.mean, small_anomaly_model.y_std.std)
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_healthy_only_enforcement(self):
        eps = [_regression_episode(1), _regression_episode(2, fault="unstable_platform")]
        with pytest.raises(SchemaViolation, match="healthy-only"):
            train_anomaly_model(eps, TrainConfig(optimizer="adam", lr0=5e-4, batch_size=64,
                                                max_epochs=1, patience=0, seed=0))

    def test_load_rejects_plain_model_checkpoint(self, tmp_path):
        path = save_model(tmp_path / "plain.ckpt", DenseNet([18, 4, 6], seed=0), extra={})
        with pytest.raises(SchemaViolation, match=f"{re.escape(str(path))}: not an anomaly"):
            AnomalyModel.load(path)

    def test_load_rejects_forecaster_checkpoint(self, tmp_path):
        stats = Standardizer(np.zeros(36), np.ones(36))
        forecaster = Forecaster(kind="flat_mlp", target="accel", net=_NETS["flat_mlp"](6, seed=0),
                                x_std=stats, y_std=Standardizer(np.zeros(6), np.ones(6)))
        path = forecaster.save(tmp_path / "f.ckpt")
        with pytest.raises(SchemaViolation, match=f"{re.escape(str(path))}: not an anomaly"):
            AnomalyModel.load(path)

    def test_checkpoint_round_trip(self, small_anomaly_model, tmp_path):
        path = small_anomaly_model.save(tmp_path / "anom.ckpt")
        loaded = AnomalyModel.load(path)
        ep = synthgen.generate_episode(8124, episode_id="probe", fault=None)
        assert score_episode(loaded, ep).score == pytest.approx(
            score_episode(small_anomaly_model, ep).score, rel=1e-12
        )


class TestAuroc:
    def test_perfect_separation(self):
        scored = [(0.1, False), (0.2, False), (0.9, True), (1.1, True)]
        assert auroc(scored) == 1.0

    def test_all_ties(self):
        scored = [(0.5, False)] * 4 + [(0.5, True)] * 3
        assert auroc(scored) == 0.5

    def test_worked_example(self):
        # healthy {1, 2}, anomalous {1.5, 3}: 3 wins of 4 pairs
        scored = [(1.0, False), (2.0, False), (1.5, True), (3.0, True)]
        assert auroc(scored) == 0.75

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            auroc([(1.0, True), (2.0, True)])

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 6, size=n) / 2.0
            labels = rng.integers(0, 2, size=n).astype(bool)
            if labels.all() or not labels.any():
                labels[0] = not labels[0]
            scored = list(zip(scores.tolist(), labels.tolist()))
            assert auroc(scored) == auroc_pairwise_oracle(scored)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40).astype(bool)
        labels[0], labels[1] = True, False
        base = auroc(list(zip(scores, labels)))
        transformed = auroc(list(zip(np.exp(scores), labels)))
        assert base == transformed


class TestBootstrap:
    def _scored(self, n_h=30, n_a=20, gap=1.0, seed=0):
        rng = np.random.default_rng(seed)
        out = [ScoredEpisode(f"h{i}", "healthy", float(rng.normal(0, 1)))
               for i in range(n_h)]
        out += [ScoredEpisode(f"a{i}", "faultx", float(rng.normal(gap, 1)))
                for i in range(n_a)]
        return out

    def test_deterministic(self):
        scored = self._scored()
        assert bootstrap_ci(scored, seed=5) == bootstrap_ci(scored, seed=5)

    def test_perfect_separation_collapses(self):
        scored = [ScoredEpisode(f"h{i}", "healthy", 0.1) for i in range(50)]
        scored += [ScoredEpisode(f"a{i}", "f", 0.9) for i in range(50)]
        assert bootstrap_ci(scored, seed=1) == (1.0, 1.0)

    def test_brackets_point_estimate(self):
        scored = self._scored(gap=1.5, seed=2)
        lo, hi = bootstrap_ci(scored, seed=3)
        point = auroc([(s.score, s.is_anomalous) for s in scored])
        assert lo <= point <= hi

    def test_degenerate(self):
        with pytest.raises(DegenerateLabels):
            bootstrap_ci([ScoredEpisode("a", "healthy", 1.0)], seed=0)

    @staticmethod
    def _ref_bootstrap_ci(scored, seed):
        """The per-resample loop: one rng.choice pair and one auroc call each."""
        healthy = np.asarray([s.score for s in scored if not s.is_anomalous])
        anom = np.asarray([s.score for s in scored if s.is_anomalous])
        rng = np.random.default_rng(seed)
        stats = np.empty(anomaly._N_RESAMPLES)
        for b in range(anomaly._N_RESAMPLES):
            h = rng.choice(healthy, size=healthy.size, replace=True)
            a = rng.choice(anom, size=anom.size, replace=True)
            stats[b] = auroc([(float(s), False) for s in h] + [(float(s), True) for s in a])
        alpha = (1.0 - anomaly._CI_LEVEL) / 2.0
        lo, hi = np.percentile(stats, [100.0 * alpha, 100.0 * (1.0 - alpha)])
        return float(lo), float(hi)

    @pytest.mark.parametrize("case", range(40))
    def test_matches_per_resample_loop_bitwise(self, case):
        rng = np.random.default_rng(1000 + case)
        n_h, n_a = (int(v) for v in rng.integers(1, 25, size=2))
        if case % 2:   # few distinct values: heavy ties within and across classes
            values = rng.integers(0, 4, size=n_h + n_a).astype(float)
        else:
            values = rng.normal(size=n_h + n_a)
        scored = [ScoredEpisode(f"e{i}", "f" if i >= n_h else "healthy", float(v))
                  for i, v in enumerate(values)]
        rng.shuffle(scored)
        got = bootstrap_ci(scored, seed=case)
        want = self._ref_bootstrap_ci(scored, case)
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestReport:
    def _scored_multi(self, categories, n_per=8, seed=0):
        rng = np.random.default_rng(seed)
        scored = [ScoredEpisode(f"h{i}", "healthy", float(rng.normal()))
                  for i in range(30)]
        for c, cat in enumerate(categories):
            scored += [
                ScoredEpisode(f"{cat}{i}", cat, float(rng.normal(1 + 0.1 * c)))
                for i in range(n_per)
            ]
        return scored

    def test_twelve_categories_plus_mean(self):
        cats = [f"fault_{i:02d}" for i in range(12)]
        report = per_category_report(self._scored_multi(cats), seed=0)
        assert len(report.rows) == 12
        present = [r.auroc for r in report.rows]
        assert report.mean_auroc == pytest.approx(np.mean(present))
        assert report.ci[0] <= report.ci[1]

    def test_rows_are_the_present_categories_sorted(self):
        scored = self._scored_multi(["fault_b", "fault_a"])
        report = per_category_report(scored, seed=0)
        assert [(r.category, r.n) for r in report.rows] == [("fault_a", 8), ("fault_b", 8)]

    def test_identical_categories_identical_rows(self):
        rng = np.random.default_rng(1)
        scored = [ScoredEpisode(f"h{i}", "healthy", float(rng.normal()))
                  for i in range(20)]
        vals = rng.normal(1.0, 1.0, size=6)
        scored += [ScoredEpisode(f"x{i}", "cat_x", float(v)) for i, v in enumerate(vals)]
        scored += [ScoredEpisode(f"y{i}", "cat_y", float(v)) for i, v in enumerate(vals)]
        report = per_category_report(scored, seed=0)
        a, b = report.rows
        assert a.auroc == b.auroc


# sha256 of the anomaly outputs of a small seeded run, recorded before the
# anomaly protocol read its channels through `Episode.columns` (numpy 2.4,
# x86-64).  A column-major copy of the inputs changes the standardizer's
# sums in the last digits, and with them every byte below.  The checkpoint
# was then a version-1 text file: GOLDEN_CHECKPOINT_V1 is the digest of its
# `reference_checkpoint` rendering (spec, extras and trained bits), which is
# no longer read; the version-2 file `save_model` writes has its digest in GOLDEN.
GOLDEN_CHECKPOINT_V1 = "22080999d8fc94f86a3f71a5c7b83dc2d233ad6d98f0efc24d1785b14416f0d6"
GOLDEN = {
    "model/anomaly_model.ckpt": "d7de437bbffccef7a2a3bef867714a2c63a33c631ab75e4b8b39fd4e6243d47b",
    "model/train_history.csv": "56cf4fed1052aca76a315af51b3b5eeebd3ed5db6e7b69369217d78ace7f97aa",
    "score/scores.csv": "8c15e08a975dcde91a7c95f0587a5152209cd9969140fd045dffa391a8ae575a",
    "score/anomaly_report.csv": "ae5dc9650be66ac9d030ad0134447c11b120453e68a16a7275a095faf87e2baa",
}


def test_train_and_score_output_digests(tmp_path):
    assert main(["generate", "--out", str(tmp_path / "g"), "--seed", "3", "--n-healthy", "4",
                 "--fault-mix", "additional_axis_payload=2,collision_foam_spike=2"]) == 0
    episodes = tmp_path / "g" / "episodes"
    healthy = tmp_path / "healthy"
    healthy.mkdir()
    for k in range(4):
        for p in episodes.glob(f"ep_{k:05d}.*"):
            shutil.copy(p, healthy)
    assert main(["train-anomaly", "--data", str(healthy), "--out", str(tmp_path / "model"),
                 "--epochs", "2"]) == 0
    assert main(["score", "--model", str(tmp_path / "model" / "anomaly_model.ckpt"),
                 "--data", str(episodes), "--out", str(tmp_path / "score")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN
    text = tmp_path / "v1" / "anomaly_model.ckpt"
    text.parent.mkdir()
    net, extra = load_model(tmp_path / "model" / "anomaly_model.ckpt")
    text.write_bytes(reference_checkpoint(net, extra).encode("utf-8"))
    assert hashlib.sha256(text.read_bytes()).hexdigest() == GOLDEN_CHECKPOINT_V1
    with pytest.raises(SchemaViolation, match=f"^{re.escape(str(text))}: no checkpoint format: "
                                              "version-1 checkpoints are no longer read"):
        load_model(text)
    assert main(["score", "--model", str(text), "--data", str(episodes),
                 "--out", str(tmp_path / "score_v1")]) == 2
    assert not (tmp_path / "score_v1" / "scores.csv").exists()
