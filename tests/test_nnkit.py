import hashlib
import logging
import math
import re

import numpy as np
import pytest
import yaml

from conftest import traced_peak_mb
from gradcheck import forward_seq, gradient_check
from sefc.errors import EmptyDataset, SchemaViolation, ShapeMismatch
from sefc.forecast import _NETS
from sefc.nnkit import (
    DenseNet,
    SeqNet,
    TCNNet,
    TrainConfig,
    adam_step,
    cosine_lr,
    init_adam,
    load_model,
    save_model,
    train,
)

RNG = np.random.default_rng(2024)


class TestForward:
    def test_zero_params_zero_output(self):
        net = DenseNet([18, 512, 256, 128, 6], seed=0)
        net.set_params(np.zeros(net.n_params))
        x = RNG.normal(size=(5, 18))
        assert np.all(net.predict(x) == 0.0)

    def test_seqnet_output_shape_and_causality(self):
        net = SeqNet(seed=4)
        x = RNG.normal(size=(2, 10, 36))
        out = forward_seq(net, x)
        assert out.shape == (2, 10, 6)
        x2 = np.array(x)
        x2[:, 9, :] += 1.0
        out2 = forward_seq(net, x2)
        assert np.array_equal(out[:, :9, :], out2[:, :9, :])
        assert not np.allclose(out[:, 9, :], out2[:, 9, :])

    def test_tcn_causality(self):
        net = TCNNet(in_features=5, hidden=8, dilations=(1, 2), out_dim=3, seed=1)
        x = RNG.normal(size=(2, 12, 5))
        out = forward_seq(net, x)
        x2 = np.array(x)
        x2[:, 7, :] += 2.0
        out2 = forward_seq(net, x2)
        assert np.array_equal(out[:, :7, :], out2[:, :7, :])

    def test_shape_mismatch(self):
        net = DenseNet([4, 2], seed=0)
        with pytest.raises(ShapeMismatch):
            net.predict(RNG.normal(size=(3, 5)))
        with pytest.raises(ShapeMismatch):
            SeqNet(seed=0).predict(RNG.normal(size=(2, 10, 35)))

    def test_densenet_whole_batch_matches_row_by_row(self):
        rng = np.random.default_rng(11)   # the module RNG feeds later tests' data
        net = DenseNet([18, 512, 256, 128, 6], seed=3)
        net.set_params(net.get_params() + rng.normal(0.0, 0.05, size=net.n_params))
        x = rng.normal(size=(519, 18))
        got = net.predict(x)
        want = np.concatenate([net.predict(x[i:i + 1]) for i in range(len(x))])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_finite_outputs(self):
        net = SeqNet(seed=9)
        out = net.predict(RNG.normal(size=(3, 10, 36)))
        assert np.all(np.isfinite(out))


class TestParamCounts:
    def test_densenet_anomaly_dims(self):
        widths = [18, 512, 256, 128, 6]
        expected = sum(
            i * o + o for i, o in zip(widths[:-1], widths[1:])
        )
        assert DenseNet(widths, seed=0).n_params == expected == 174_726

    def test_flat_mlp_dims(self):
        widths = [360, 128, 64, 6]
        expected = sum(i * o + o for i, o in zip(widths[:-1], widths[1:]))
        assert DenseNet(widths, seed=0).n_params == expected

    def test_seqnet_count_matches_breakdown(self):
        net = SeqNet(seed=0)
        assert net.get_params().size == net.n_params
        # documented composition: 3 conv layers + 2 encoder blocks + final LN + head
        conv = 3 * 36 * 64 + 64 + 2 * (3 * 64 * 64 + 64)
        block = 4 * (64 * 64 + 64) + 2 * 128 + (64 * 128 + 128) + (128 * 64 + 64)
        head = 64 * 6 + 6
        assert net.n_params == conv + 2 * block + 128 + head == 99_142

    def test_tcn_baseline_count(self):
        net = TCNNet(36, hidden=64, kernel=3, dilations=(1, 2), out_dim=6, seed=0)
        expected = (3 * 36 * 64 + 64) + (3 * 64 * 64 + 64) + (64 * 6 + 6)
        assert net.n_params == expected


class TestBackward:
    def test_zero_residual_zero_gradient(self):
        net = DenseNet([3, 2], seed=0)
        x = RNG.normal(size=(4, 3))
        y = net.predict(x)
        loss, grad = net.loss_and_grad(x, y)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_linear_regression_closed_form(self):
        # single sample, pure linear layer: dL/dW = 2 x^T (x W + b - y) / n_out
        net = DenseNet([3, 2], seed=5)
        x = RNG.normal(size=(1, 3))
        y = RNG.normal(size=(1, 2))
        w = net._params["W0"].copy()
        b = net._params["b0"].copy()
        resid = x @ w + b - y
        expected_dw = 2.0 * x.T @ resid / y.size
        expected_db = 2.0 * resid[0] / y.size
        _, grad = net.loss_and_grad(x, y)
        dw = grad[:w.size].reshape(w.shape)
        db = grad[w.size:]
        assert np.abs(dw - expected_dw).max() <= 1e-12
        assert np.abs(db - expected_db).max() <= 1e-12

    def test_finite_difference_small_net(self):
        net = DenseNet([6, 16, 8, 3], seed=7)
        x = RNG.normal(size=(8, 6))
        y = RNG.normal(size=(8, 3))
        assert gradient_check(net, x, y, n_probes=200, eps=1e-6, seed=1) < 1e-4

    def test_linear_model_gradient_near_exact(self):
        net = DenseNet([5, 3], seed=2)
        x = RNG.normal(size=(6, 5))
        y = RNG.normal(size=(6, 3))
        assert gradient_check(net, x, y, n_probes=18, eps=1e-6, seed=3) < 1e-8


class TestOptim:
    def test_zero_gradient_fixed_point(self):
        params = RNG.normal(size=10)
        state = init_adam(10)
        out = adam_step(state, params, np.zeros(10), lr=0.1, weight_decay=0.0, decoupled=False)
        assert np.array_equal(out, params)

    def test_cosine_endpoints(self):
        assert cosine_lr(5e-4, 0, 500) == 5e-4
        assert abs(cosine_lr(5e-4, 500, 500)) <= 1e-15

    def test_cosine_monotone_nonincreasing(self):
        lrs = [cosine_lr(1.0, e, 100) for e in range(101)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_first_adam_step_closed_form(self):
        # constant gradient 1.0: m_hat = 1, v_hat = 1 -> delta = lr/(1 + eps)
        params = np.array([1.0])
        state = init_adam(1)
        out = adam_step(state, params, np.array([1.0]), lr=0.1, weight_decay=0.0, decoupled=False)
        expected = 1.0 - 0.1 * (1.0 / (math.sqrt(1.0) + 1e-8))
        assert abs(out[0] - expected) <= 1e-15

    def test_adamw_decoupled_decay(self):
        params = np.array([2.0])
        state = init_adam(1)
        out = adam_step(state, params, np.zeros(1), lr=0.1,
                        weight_decay=0.01, decoupled=True)
        assert abs(out[0] - (2.0 - 0.1 * 0.01 * 2.0)) <= 1e-15

    def test_adam_l2_in_gradient(self):
        params = np.array([2.0])
        state = init_adam(1)
        out = adam_step(state, params, np.zeros(1), lr=0.1, weight_decay=0.01, decoupled=False)
        # g = 0.02 -> m_hat = 0.02, v_hat = 0.02^2 -> step ~ lr
        expected = 2.0 - 0.1 * (0.02 / (0.02 + 1e-8))
        assert abs(out[0] - expected) <= 1e-12

    @pytest.mark.parametrize("weight_decay,decoupled", [
        (0.0, False), (0.01, False), (0.0, True), (0.01, True)])
    def test_step_bits_match_formula(self, weight_decay, decoupled):
        rng = np.random.default_rng(5)
        params = ref_params = rng.normal(size=500)
        state, ref_state = init_adam(500), init_adam(500)
        for k in range(5):
            grads = rng.normal(size=500) * 10.0 ** rng.integers(-8, 3, size=500)
            grads[::7] = -0.0
            lr = 1e-3 * (k + 1)
            params = adam_step(state, params, grads, lr, weight_decay, decoupled)
            ref_params = _adam_formula(ref_state, ref_params, grads, lr, weight_decay,
                                       decoupled)
            for got, want in [(params, ref_params), (state.m, ref_state.m),
                              (state.v, ref_state.v)]:
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("weight_decay,decoupled", [(0.01, False), (0.01, True)])
    def test_step_memory(self, weight_decay, decoupled):
        # the moments update in place: the new parameters, one temporary and,
        # for an L2 penalty, the penalized gradient
        n = 1 << 17
        vector_mb = 8 * n / 2**20
        params = RNG.normal(size=n)
        grads = RNG.normal(size=n)
        state = init_adam(n)
        adam_step(state, params, grads, 1e-3, weight_decay, decoupled)
        peak = traced_peak_mb(adam_step, state, params, grads, 1e-3, weight_decay, decoupled)
        assert peak <= (2 + (not decoupled)) * vector_mb + 0.25


def _adam_formula(state, params, grads, lr, weight_decay, decoupled):
    """One Adam step as whole-array expressions, updating *state*'s moments."""
    g = grads if (decoupled or weight_decay == 0.0) else grads + weight_decay * params
    state.t += 1
    state.m = 0.9 * state.m + (1.0 - 0.9) * g
    state.v = 0.999 * state.v + (1.0 - 0.999) * g * g
    m_hat = state.m / (1.0 - 0.9 ** state.t)
    v_hat = state.v / (1.0 - 0.999 ** state.t)
    new = params - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    if decoupled and weight_decay != 0.0:
        new = new - lr * weight_decay * params
    return new


def _linear_problem(n=1000, m=300):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(12, 4)) * 0.5
    x = rng.normal(size=(n, 12))
    xv = rng.normal(size=(m, 12))
    return (x, x @ a), (xv, xv @ a)


#: A valid config, for the validation tests to break one value of.
_VALID = dict(optimizer="adam", lr0=1e-3, batch_size=64, max_epochs=4, patience=2, seed=0)


class TestTrain:
    def test_learnable_linear_target(self):
        train_set, val_set = _linear_problem()
        net = DenseNet([12, 64, 4], seed=1)
        config = TrainConfig(optimizer="adam", lr0=3e-2, batch_size=256,
                             max_epochs=200, patience=200, seed=3)
        history = train(net, train_set, val_set, config)
        assert min(history.val_loss) < 1e-3

    def test_patience_zero_single_epoch(self):
        train_set, val_set = _linear_problem(100, 50)
        net = DenseNet([12, 4], seed=0)
        history = train(net, train_set, val_set,
                        TrainConfig(optimizer="adam", lr0=1e-3, patience=0, max_epochs=50,
                                    batch_size=32, seed=0))
        assert history.n_epochs == 1

    def test_no_early_stop_when_val_improves(self):
        train_set, val_set = _linear_problem(200, 80)
        net = DenseNet([12, 4], seed=0)
        history = train(net, train_set, val_set,
                        TrainConfig(optimizer="adam", lr0=1e-3, patience=10,
                                    max_epochs=15, batch_size=64, seed=0))
        assert all(b < a for a, b in zip(history.val_loss, history.val_loss[1:]))
        assert history.n_epochs == 15 and not history.stopped_early

    def test_deterministic_history(self):
        train_set, val_set = _linear_problem(200, 80)
        hists = []
        for _ in range(2):
            net = DenseNet([12, 16, 4], seed=2)
            hists.append(train(net, train_set, val_set,
                               TrainConfig(optimizer="adam", lr0=1e-3, patience=5, max_epochs=8,
                                           batch_size=64, seed=11)))
        assert hists[0].train_loss == hists[1].train_loss
        assert hists[0].val_loss == hists[1].val_loss

    def test_restores_best_epoch_params(self):
        train_set, val_set = _linear_problem(200, 80)
        net = DenseNet([12, 4], seed=0)
        history = train(net, train_set, val_set,
                        TrainConfig(optimizer="adam", lr0=5e-2, patience=30, max_epochs=30,
                                    batch_size=64, seed=1))
        best = min(history.val_loss)
        assert net.loss(*val_set) == pytest.approx(best, rel=1e-12)

    def test_logs_one_info_line_per_epoch(self, caplog):
        train_set, val_set = _linear_problem(200, 80)
        config = TrainConfig(optimizer="adam", lr0=1e-3, patience=4, max_epochs=4, batch_size=64,
                             seed=0)
        with caplog.at_level(logging.INFO, logger="sefc.nnkit.training"):
            history = train(DenseNet([12, 4], seed=0), train_set, val_set, config)
        lines = [r.getMessage() for r in caplog.records if r.name == "sefc.nnkit.training"]
        assert len(lines) == history.n_epochs == 4
        for epoch, line in enumerate(lines):
            fields = dict(zip(line.split()[::2], line.split()[1::2]))
            assert set(fields) == {"epoch", "train_loss", "val_loss", "lr", "epoch_s"}
            assert int(fields["epoch"]) == epoch
            assert float(fields["val_loss"]) == pytest.approx(history.val_loss[epoch], rel=1e-5)
            assert float(fields["lr"]) == pytest.approx(history.lr[epoch], rel=1e-5)
            assert float(fields["epoch_s"]) >= 0.0

    def test_epoch_log_silent_at_warning(self, caplog):
        train_set, val_set = _linear_problem(100, 50)
        with caplog.at_level(logging.WARNING, logger="sefc"):
            train(DenseNet([12, 4], seed=0), train_set, val_set,
                  TrainConfig(optimizer="adam", lr0=1e-3, patience=2, max_epochs=3, batch_size=64,
                              seed=0))
        assert not [r for r in caplog.records if r.name.startswith("sefc")]

    def test_empty_dataset(self):
        net = DenseNet([12, 4], seed=0)
        with pytest.raises(EmptyDataset):
            train(net, (np.empty((0, 12)), np.empty((0, 4))),
                  (np.empty((0, 12)), np.empty((0, 4))), TrainConfig(**_VALID))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(**{**_VALID, "lr0": 0.0})
        with pytest.raises(ValueError):
            TrainConfig(**{**_VALID, "patience": 50, "max_epochs": 10})

    @pytest.mark.parametrize("field,value", [
        ("lr0", np.nan), ("lr0", np.inf),
    ])
    def test_config_refuses_non_finite_or_negative_rates(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrainConfig(**{**_VALID, field: value})

    @pytest.mark.parametrize("field,value", [
        ("batch_size", np.nan), ("max_epochs", np.inf), ("patience", np.nan), ("patience", 2.5),
        ("seed", 2.5),
    ])
    def test_config_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            TrainConfig(**{**_VALID, field: value})

    def test_config_refuses_a_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            TrainConfig(**{**_VALID, "seed": -1})

    @pytest.mark.parametrize("field", ["max_epochs", "batch_size"])
    def test_config_needs_at_least_one(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
            TrainConfig(**{**_VALID, field: 0, "patience": 0})


class TestCheckpoint:
    @pytest.mark.parametrize("factory", [
        lambda: DenseNet([7, 11, 3], seed=3),
        lambda: TCNNet(5, hidden=8, dilations=(1, 2), out_dim=2, seed=3),
        lambda: SeqNet(in_features=6, hidden=8, tcn_dilations=(1, 2), n_blocks=1,
                       heads=2, ff_dim=12, out_dim=2, seed=3),
    ])
    def test_round_trip(self, factory, tmp_path):
        model = factory()
        extra = {"note": "x", "text": "a\n---\nb"}
        path = save_model(tmp_path / "m.ckpt", model, extra=extra)
        loaded, loaded_extra = load_model(path)
        assert loaded_extra == extra
        assert loaded.spec() == model.spec()
        assert np.array_equal(loaded.get_params(), model.get_params())

    @staticmethod
    def _file(tmp_path):
        """A 13-parameter model as a version-2 file from `save_model`."""
        return save_model(tmp_path / "m.ckpt", DenseNet([2, 3, 1], seed=0), extra={})

    @staticmethod
    def _rewrite(path, header_edit=None, payload_edit=None):
        """Re-write a version-2 file with its header and payload edited."""
        head, _, payload = path.read_bytes().partition(b"\n---\n")
        header = yaml.safe_load(head)
        if header_edit:
            header_edit(header)
        if payload_edit:
            payload = payload_edit(payload)
        path.write_bytes(yaml.safe_dump(header, sort_keys=False).encode() + b"---\n" + payload)

    def test_malformed_header_yaml(self, tmp_path):
        path = self._file(tmp_path)
        params = path.read_bytes().split(b"\n---\n", 1)[1]
        path.write_bytes(b"model: {kind: dense, sizes: [2, 3\n---\n" + params)
        with pytest.raises(SchemaViolation, match=re.escape(str(path))):
            load_model(path)

    @pytest.mark.parametrize("header_edit, payload_edit, reason", [
        (None, lambda p: p[:-3], "truncated payload: 101 bytes, 13 params need 104"),
        (None, lambda p: p + b"\n", "1 trailing bytes after 13 params"),
        (lambda h: h.update(n_params=12), None, "8 trailing bytes after 12 params"),
        (lambda h: h.update(n_params=14), None, "truncated payload: 104 bytes, 14 params"),
        (lambda h: h.update(n_params=17), lambda p: p + bytes(32),
         "the model spec has 13 params, file has 17"),
        (lambda h: h.pop("n_params"), None,
         "header needs a non-negative integer n_params, got None"),
        (lambda h: h.update(n_params="13"), None,
         "header needs a non-negative integer n_params, got '13'"),
        (lambda h: h.update(format=3), None, "unknown checkpoint format 3"),
        (lambda h: h.update(format="2"), None, "unknown checkpoint format '2'"),
        # the version-1 layout: no format key, then one %.17g value per line
        (lambda h: h.pop("format"),
         lambda p: "".join("{:.17g}\n".format(v) for v in np.frombuffer(p, "<f8")).encode(),
         "no checkpoint format: version-1 checkpoints are no longer read; retrain the model"),
    ], ids=["truncated", "trailing_newline", "n_params_below_payload", "n_params_above_payload",
            "n_params_and_payload_above_spec", "no_n_params", "n_params_string",
            "format_3", "format_string", "version1_text"])
    def test_version2_defect_names_file(self, tmp_path, header_edit, payload_edit, reason):
        path = self._file(tmp_path)
        self._rewrite(path, header_edit, payload_edit)
        with pytest.raises(SchemaViolation, match=f"^{re.escape(str(path))}: {re.escape(reason)}"):
            load_model(path)

    @pytest.mark.parametrize("spec", [
        {"kind": "dense", "sizes": [2, 3, 1]},
        {"kind": "dense", "widths": [2]},
        {"kind": "dense", "widths": 5},
        {"kind": "seqnet"},
        {"kind": ["dense"], "widths": [2, 3, 1]},
    ], ids=["missing_key", "too_few_widths", "widths_not_a_list", "seqnet_without_keys",
            "unhashable_kind"])
    def test_bad_spec_names_file(self, tmp_path, spec):
        path = self._file(tmp_path)
        self._rewrite(path, lambda header: header.update(model=spec))
        with pytest.raises(SchemaViolation, match=f"^{re.escape(str(path))}: "):
            load_model(path)


class TestStepMemory:
    """A training step's memory follows the row block, not the batch."""

    @pytest.mark.parametrize("make", [
        lambda: SeqNet(36, hidden=64, kernel=3, tcn_dilations=(1, 2, 4), n_blocks=2,
                       heads=4, ff_dim=128, out_dim=6, seed=0),
        lambda: TCNNet(36, hidden=64, kernel=3, dilations=(1, 2), out_dim=6, seed=0),
    ], ids=["seqnet", "tcn"])
    def test_sequence_step_peak_flat_in_batch(self, make):
        net = make()
        rng = np.random.default_rng(0)
        rows = net._block_rows(np.empty((1, 10, 36)))
        x = rng.normal(size=(4 * rows, 10, 36))
        y = rng.normal(size=(4 * rows, 6))
        one_block = traced_peak_mb(net.loss_and_grad, x[:rows], y[:rows])
        assert traced_peak_mb(net.loss_and_grad, x, y) <= 1.25 * one_block

    def test_dense_step_keeps_one_array_per_layer(self):
        # the anomaly regressor at a training batch of 2044 rows
        net = DenseNet([18, 512, 256, 128, 6], seed=0)
        rng = np.random.default_rng(0)
        B = 2044
        x, y = rng.normal(size=(B, 18)), rng.normal(size=(B, 6))
        layer_inputs = B * sum(net.widths[:-1]) * 8 / 2**20
        assert traced_peak_mb(net.loss_and_grad, x, y) < 1.75 * layer_inputs

    def test_dense_step_frees_each_input_before_the_next_delta(self):
        # Forward holds every hidden layer's output.  Backward, at its widest,
        # holds the 512-wide ReLU mask and the deltas on both sides of it;
        # the 512-wide layer input, freed by then, is what the bound leaves out.
        net = DenseNet([18, 512, 256, 128, 6], seed=0)
        rng = np.random.default_rng(0)
        B = 2048
        x, y = rng.normal(size=(B, 18)), rng.normal(size=(B, 6))
        hidden = B * sum(net.widths[1:-1]) * 8 / 2**20                  # 14 MiB
        backward = (B * 512 + B * (512 + 256) * 8) / 2**20             # 13 MiB
        assert traced_peak_mb(net.loss_and_grad, x, y) <= max(hidden, backward) + 2.0

    def test_seqnet_step_keeps_one_array_per_relu(self):
        # The forecast SeqNet over 500 windows (8 row blocks).  Bound: what
        # one block's backward reads (the padded conv inputs and ReLU
        # outputs; per full encoder block 8 (R, T, H) arrays -- the output
        # and normalized input of LN1 and of LN2, q, k, v and the attention
        # context -- plus the scores and the feedforward ReLU output; the
        # last block, narrowed to one row, keeps LN1's two arrays, keys and
        # values over every step), the running and block gradients, and
        # 2 MiB.  No pre-activation or block input is cached, and a block's
        # cache is freed once its backward has run.
        net = _NETS["tcn_transformer"](6, seed=0)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(500, 10, 36)), rng.normal(size=(500, 6))
        R, T, H = net._block_rows(x), 10, net.hidden
        assert len(x) > 7 * R
        act = R * T * H
        conv = R * sum(((net.kernel - 1) * d + T) * c
                       for d, c in zip(net.tcn_dilations, (36, H, H)))
        conv += len(net.tcn_dilations) * act
        full_block = 8 * act + R * net.heads * T * T + R * T * net.ff_dim
        cache = (conv + full_block + 4 * act) * 8 / 2**20               # 7.1 MiB
        gradients = 2 * net.n_params * 8 / 2**20                        # 1.5 MiB
        assert traced_peak_mb(net.loss_and_grad, x, y) <= cache + gradients + 2.0


# sha256 of the loss bits and then the flat-gradient bits of one
# `loss_and_grad` call, recorded before the step caches kept one array per
# ReLU (numpy 2.4 with 2-thread OpenBLAS, x86-64; the BLAS thread count moves
# the sequence models' bits).  Freeing an array earlier must move no bit.
GOLDEN_GRADIENTS = {
    "dense": "6536c949e4f0d87f9a77d79f12af39904f173ae3b0e2a7275e63b622e35932ee",
    "tcn": "16aee2028269d66dad0fff1c9145b7b1d3c793db7b18667eafa096e6ca6170e9",
    "tcn_transformer": "d3500fed58f4baf68ad4c65a78223e11db11bc9d7034a5339c1ae69dd003931d",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_GRADIENTS))
def test_step_bits_are_golden(kind):
    # the anomaly regressor at B=2048; the forecast sequence nets at B=500,
    # which spans several row blocks
    if kind == "dense":
        net, shape = DenseNet([18, 512, 256, 128, 6], seed=0), (2048, 18)
    else:
        net, shape = _NETS[kind](6, seed=0), (500, 10, 36)
    rng = np.random.default_rng(7)
    net.set_params(net.get_params() + rng.normal(0.0, 0.05, size=net.n_params))
    x, y = rng.normal(size=shape), rng.normal(size=(shape[0], 6))
    loss, grad = net.loss_and_grad(x, y)
    digest = hashlib.sha256(np.float64(loss).tobytes() + grad.tobytes()).hexdigest()
    assert digest == GOLDEN_GRADIENTS[kind]


# sha256 of one `loss_and_grad` (loss bits, then flat-gradient bits) and of
# one `predict` (output bits) for batches that fit in one row block (up to 68
# windows for both forecast sequence nets), recorded while such a batch still
# ran whole beside the row-block loop (same OpenBLAS note as above).  Running
# it as the loop's one block must move no bit.
GOLDEN_ONE_BLOCK = {
    ("tcn", 1): ("c94d676153ca6c9f2b3838d1e338d71259feed4b07aba34bf5cdaef2fbcdbfe1",
                 "e1154675e00b17aec95eda69dba0a675637709ef7aab3c5b7310b7a75d4b495a"),
    ("tcn", 40): ("ed6511d7a20de6c57749375b8ebfec13cab862b6b948e6a081dd341ed138cde2",
                  "d19179cd75e282253af69741274913bb75d3f3dd2bf5052dce4e97e036300568"),
    ("tcn_transformer", 1): (
        "b83c3c329425828f2a8fdb4e9e69460cde5b398d3d78a2b898c304a486cd67c4",
        "0e336f88992876ca7c56846135862ba591b8c0abb6ff841760e60e03bb02b4bf"),
    ("tcn_transformer", 40): (
        "d435c601dd44b3dbd8a377fb2dc3f1047ebccc1cf8fab93ad1ca51b679c8d7f1",
        "664068ff7202a161f496617ba501f5ff4562776d649b4b71fee0e93f5f8f1322"),
}


@pytest.mark.parametrize("kind,batch", sorted(GOLDEN_ONE_BLOCK))
def test_one_block_bits_are_golden(kind, batch):
    net = _NETS[kind](6, seed=0)
    rng = np.random.default_rng(7)
    net.set_params(net.get_params() + rng.normal(0.0, 0.05, size=net.n_params))
    x, y = rng.normal(size=(batch, 10, 36)), rng.normal(size=(batch, 6))
    assert batch <= net._block_rows(x)
    loss, grad = net.loss_and_grad(x, y)
    step = hashlib.sha256(np.float64(loss).tobytes() + grad.tobytes()).hexdigest()
    predict = hashlib.sha256(net.predict(x).tobytes()).hexdigest()
    assert (step, predict) == GOLDEN_ONE_BLOCK[kind, batch]


@pytest.mark.parametrize("kind", ["tcn", "tcn_transformer"])
def test_empty_batch_predicts_no_rows(kind):
    assert _NETS[kind](6, seed=0).predict(np.empty((0, 10, 36))).shape == (0, 6)
