"""Forward-dynamics forecasting, Euler rollouts, and transfer metrics.

Models consume a 10-step context window of 36 features (feedback pos/vel/
acc then setpoint pos/vel/acc, six joints each, ``FEATURE_BLOCKS``) and
predict the next step's six target values: the feedback accelerations
(``accel``) or the six motor torques of ``anomaly.ANOMALY_OUTPUT_CHANNELS``
(``effort``).  Each model kind of ``MODEL_KINDS`` has one fixed
architecture.  Rollouts are closed loop: predicted feedback states replace
the recorded feedback features while setpoint features keep replaying the
recording, and position/velocity come from first-order Euler integration
of the predicted accelerations.  A rollout keeps only its predicted and
recorded positions and its survival.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codec import write_csv
from .errors import EmptyDataset, HorizonOverrun, SchemaViolation, ShapeMismatch
from .anomaly import ANOMALY_OUTPUT_CHANNELS, Standardizer
from .nnkit import DenseNet, Model, SeqNet, TCNNet, TrainConfig, TrainHistory, train
from .nnkit.checkpoint import load_model, require_extras, save_model
from .schema import Episode

WINDOW_STEPS = 10
N_JOINTS = 6
#: What a forecaster predicts (see the module docstring).
_TARGETS = ("accel", "effort")

#: 36-feature layout: six joints per block, feedback first.
FEATURE_BLOCKS = (
    "feedback_pos",
    "feedback_vel",
    "feedback_acc",
    "setpoint_pos",
    "setpoint_vel",
    "setpoint_acc",
)
N_FEATURES = len(FEATURE_BLOCKS) * N_JOINTS

_FB_POS, _FB_VEL, _FB_ACC = (
    slice(i * N_JOINTS, (i + 1) * N_JOINTS)
    for i in map(FEATURE_BLOCKS.index, ("feedback_pos", "feedback_vel", "feedback_acc"))
)


def episode_features(ep: Episode) -> np.ndarray:
    """Per-step 36-feature matrix in ``FEATURE_BLOCKS`` order.

    A joint whose recording carries no feedback_acc channel gets the
    backward difference of its feedback velocity (first step copies the
    second).  Raises MissingChannel naming the first absent channel it needs.
    """
    names = [f"{block}_{i}" for block in FEATURE_BLOCKS for i in range(N_JOINTS)]
    derived = [i for i in range(N_JOINTS) if not ep.has_channel(f"feedback_acc_{i}")]
    for i in derived:   # gathered as velocity, then differenced in place
        names[_FB_ACC.start + i] = f"feedback_vel_{i}"
    feats = ep.columns(names)
    for i in derived:
        acc = feats[:, _FB_ACC.start + i]
        acc[1:] = (acc[1:] - acc[:-1]) * ep.rate_hz
        acc[0] = acc[1]
    return feats


def make_windows(ep: Episode, target: str) -> tuple[np.ndarray, np.ndarray]:
    """All (10, 36) -> next-step-target training pairs of one episode.

    Accel targets are the features' feedback_acc block, so a joint without a
    recorded acceleration gets the derived one there too.
    """
    feats = episode_features(ep)
    if target == "accel":
        targets = feats[:, _FB_ACC].copy()
    elif target == "effort":
        targets = ep.columns(ANOMALY_OUTPUT_CHANNELS)
    else:
        raise SchemaViolation(f"unknown target {target!r}")
    if ep.n_steps <= WINDOW_STEPS:
        raise EmptyDataset(f"{ep.episode_id}: too short for a {WINDOW_STEPS}-step window")
    # window k is feats[k:k + 10]; the last full window has no target row
    x = np.array(sliding_window_view(feats[:-1], WINDOW_STEPS, axis=0).transpose(0, 2, 1),
                 dtype=np.float64, order="C")
    return x, targets[WINDOW_STEPS:]


# ---------------------------------------------------------------------------
# forecaster wrapper
# ---------------------------------------------------------------------------

@dataclass
class Forecaster:
    """A trained predictor (or the zero baseline) operating in raw units."""

    kind: str
    target: str
    net: Optional[Model] = None
    x_std: Optional[Standardizer] = None    # per-feature, over the 36 features
    y_std: Optional[Standardizer] = None

    def predict_batch(self, windows: np.ndarray) -> np.ndarray:
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 3 or windows.shape[1:] != (WINDOW_STEPS, N_FEATURES):
            raise ShapeMismatch(
                f"expected (N, {WINDOW_STEPS}, {N_FEATURES}), got {windows.shape}"
            )
        if self.kind == "kinematic_zero":
            return np.zeros((windows.shape[0], N_JOINTS))
        pred = self.net.predict(_net_input(self.net, self.x_std.transform(windows)))
        return self.y_std.inverse(pred)

    def save(self, path: Union[str, Path]) -> Path:
        if self.kind == "kinematic_zero":
            raise SchemaViolation("the zero baseline has nothing to checkpoint")
        extra = {
            "forecaster_kind": self.kind,
            "target": self.target,
            **self.x_std.to_extra("x"),
            **self.y_std.to_extra("y"),
        }
        return save_model(path, self.net, extra=extra)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Forecaster":
        net, extra = load_model(path)
        require_extras(extra, ("forecaster_kind", "target", *Standardizer.extra_keys("x"),
                               *Standardizer.extra_keys("y")), path, "a forecaster")
        for key, known in (("forecaster_kind", tuple(_NETS)), ("target", _TARGETS)):
            if extra[key] not in known:
                raise SchemaViolation(f"{path}: {key} must be one of {', '.join(known)}, "
                                      f"got {extra[key]!r}")
        return cls(
            kind=extra["forecaster_kind"],
            net=net,
            x_std=Standardizer.from_extra(extra, "x", N_FEATURES, path),
            y_std=Standardizer.from_extra(extra, "y", net.out_dim, path),
            target=extra["target"],
        )


def _net_input(net: Model, z: np.ndarray) -> np.ndarray:
    """Standardized windows laid out for *net*: a DenseNet takes them flattened."""
    return z.reshape(len(z), -1) if isinstance(net, DenseNet) else z


_FLAT_IN = WINDOW_STEPS * N_FEATURES
#: The trainable model kinds: kind -> constructor of (out_dim, seed).
_NETS = {
    "linear": lambda out_dim, seed: DenseNet([_FLAT_IN, out_dim], seed=seed),
    "flat_mlp": lambda out_dim, seed: DenseNet([_FLAT_IN, 128, 64, out_dim], seed=seed),
    "tcn": lambda out_dim, seed: TCNNet(N_FEATURES, hidden=64, kernel=3, dilations=(1, 2),
                                        out_dim=out_dim, seed=seed),
    "tcn_transformer": lambda out_dim, seed: SeqNet(
        N_FEATURES, hidden=64, kernel=3, tcn_dilations=(1, 2, 4), n_blocks=2, heads=4,
        ff_dim=128, out_dim=out_dim, seed=seed),
}
MODEL_KINDS = (*_NETS, "kinematic_zero")


def train_forecaster(
    episodes: Sequence[Episode], kind: str, target: str = "accel", *, config: TrainConfig
) -> tuple[Forecaster, Optional[TrainHistory]]:
    """Train one of the named predictors; the last 12% of episodes (at least one) validate."""
    if kind not in MODEL_KINDS:
        raise SchemaViolation(f"unknown model kind {kind!r}")
    if kind == "kinematic_zero":
        return Forecaster(kind="kinematic_zero", target=target), None
    if not episodes:
        raise EmptyDataset("no training episodes")

    n_val = max(1, int(round(0.12 * len(episodes))))
    if len(episodes) <= n_val:
        raise EmptyDataset("not enough episodes for a train/val split")
    windows = [make_windows(ep, target) for ep in episodes]
    x_train = np.concatenate([x for x, _ in windows[:-n_val]])
    y_train = np.concatenate([y for _, y in windows[:-n_val]])
    x_val = np.concatenate([x for x, _ in windows[-n_val:]])
    y_val = np.concatenate([y for _, y in windows[-n_val:]])
    del windows

    x_std = Standardizer.fit(x_train.reshape(-1, N_FEATURES))
    y_std = Standardizer.fit(y_train)
    net = _NETS[kind](y_train.shape[1], config.seed)

    # each raw window set is dropped once standardized, before training starts
    train_set = (_net_input(net, x_std.transform(x_train)), y_std.transform(y_train))
    del x_train
    val_set = (_net_input(net, x_std.transform(x_val)), y_std.transform(y_val))
    del x_val
    history = train(net, train_set, val_set, config)
    return Forecaster(kind, target, net, x_std, y_std), history


# ---------------------------------------------------------------------------
# Euler rollout and survival
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RolloutResult:
    pred_pos: np.ndarray     # H x 6
    truth_pos: np.ndarray
    first_violation: np.ndarray  # per joint, 1-based step; -1 when none
    survival_steps: float

    @property
    def horizon(self) -> int:
        return self.pred_pos.shape[0]


def _survival(err: np.ndarray, threshold: float) -> tuple[np.ndarray, float]:
    over = err > threshold
    hit = over.any(axis=0)
    # steps survived before the first violation, the whole horizon when none
    survived = np.where(hit, over.argmax(axis=0), err.shape[0])
    return np.where(hit, survived + 1, -1), float(survived.astype(float).mean())


def euler_rollout(
    model,
    ep: Episode,
    start: int,
    horizon: int,
    threshold_rad: float = 0.01,
) -> RolloutResult:
    """Closed-loop rollout of *horizon* steps from the recorded state at *start*.

    At each step t the model sees the window of rows [t-10, t) --
    recorded history before the start, its own predictions after -- and
    returns the acceleration at t; then v_{t+1} = v_t + a_t dt and
    q_{t+1} = q_t + v_t dt.  *model* needs only a ``predict_batch`` method.
    Raises ValueError unless *threshold_rad* is finite and positive.
    """
    if not 0 < threshold_rad < np.inf:
        raise ValueError(f"threshold_rad must be finite and positive, got {threshold_rad!r}")
    if start < WINDOW_STEPS:
        raise HorizonOverrun(f"start={start} leaves no {WINDOW_STEPS}-step history")
    if start + horizon >= ep.n_steps:
        raise HorizonOverrun(
            f"start={start} + H={horizon} overruns episode of {ep.n_steps} steps"
        )
    dt = 1.0 / ep.rate_hz
    work = episode_features(ep)
    sl = slice(start + 1, start + 1 + horizon)
    truth_pos = work[sl, _FB_POS].copy()
    q = work[start, _FB_POS].copy()
    v = work[start, _FB_VEL].copy()
    pred_pos = np.empty((horizon, N_JOINTS))
    for k in range(horizon):
        t = start + k
        work[t, _FB_POS] = q
        work[t, _FB_VEL] = v
        a = np.asarray(model.predict_batch(work[t - WINDOW_STEPS:t][None]))[0]
        work[t, _FB_ACC] = a
        q, v = q + v * dt, v + a * dt
        pred_pos[k] = q

    first, survival = _survival(np.abs(pred_pos - truth_pos), threshold_rad)
    return RolloutResult(
        pred_pos=pred_pos,
        truth_pos=truth_pos,
        first_violation=first,
        survival_steps=survival,
    )


@dataclass(frozen=True)
class HorizonRow:
    horizon: int
    mse_scaled: float        # x 1e-4 rad^2
    mse_std: float
    mae_scaled: float        # x 1e-2 rad
    mae_std: float


def horizon_metrics(
    results: Sequence[RolloutResult], horizons: Sequence[int]
) -> list[HorizonRow]:
    """Position MSE/MAE at each horizon, mean +/- std over rollouts.

    Each horizon is evaluated on the prefix of the same rollout, so a
    shorter horizon recomputed from a longer rollout gives identical rows.
    """
    if not results:
        raise EmptyDataset("no rollouts")
    rows = []
    for h in horizons:
        if any(r.horizon < h for r in results):
            raise HorizonOverrun(f"a rollout is shorter than H={h}")
        mses, maes = [], []
        for r in results:
            err = r.pred_pos[:h] - r.truth_pos[:h]
            mses.append(float(np.mean(err ** 2)))
            maes.append(float(np.mean(np.abs(err))))
        mses, maes = np.asarray(mses), np.asarray(maes)
        rows.append(HorizonRow(
            horizon=int(h),
            mse_scaled=float(mses.mean() * 1e4),
            mse_std=float(mses.std() * 1e4),
            mae_scaled=float(maes.mean() * 1e2),
            mae_std=float(maes.std() * 1e2),
        ))
    return rows


def survival_curve(results: Sequence[RolloutResult], horizon: int) -> np.ndarray:
    """Fraction of (rollout, joint) trajectories surviving each step 1..H."""
    if not results:
        raise EmptyDataset("no rollouts")
    steps = np.concatenate([np.where(r.first_violation < 0, r.horizon, r.first_violation - 1)
                            for r in results])
    return (steps[:, None] > np.arange(horizon)).sum(axis=0) / max(steps.size, 1)


# ---------------------------------------------------------------------------
# mean-centered transfer metrics
# ---------------------------------------------------------------------------

def mc_mae(pred: np.ndarray, truth: np.ndarray) -> float:
    """MAE after removing each channel's per-episode mean from both sides.

    Exactly invariant to adding per-channel constants to either argument,
    which is what isolates dynamic shape from static bias.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeMismatch(f"{pred.shape} vs {truth.shape}")
    if pred.ndim == 1:
        pred = pred[:, None]
        truth = truth[:, None]
    centered = (pred - pred.mean(axis=0)) - (truth - truth.mean(axis=0))
    return float(np.mean(np.abs(centered)))


@dataclass(frozen=True)
class TransferReport:
    model_kind: str
    target: str
    mc_mae_mean: float
    ci_halfwidth: float      # normal-approximation 95% CI over episodes
    raw_mae_mean: float
    n_episodes: int
    per_episode: tuple[float, ...]


def transfer_eval(
    model: Forecaster,
    target_episodes: Sequence[Episode],
    target: str,
) -> TransferReport:
    """Zero-shot one-step-ahead evaluation on an unseen embodiment.

    No target-side fitting happens; per-episode MC-MAE is aggregated as
    mean +/- 1.96 std / sqrt(n).
    """
    if not target_episodes:
        raise EmptyDataset("no target episodes")
    mcs, raws = [], []
    for ep in target_episodes:
        x, y = make_windows(ep, target)
        pred = model.predict_batch(x)
        mcs.append(mc_mae(pred, y))
        raws.append(float(np.mean(np.abs(pred - y))))
    mcs_arr = np.asarray(mcs)
    half = 1.96 * mcs_arr.std(ddof=1) / np.sqrt(len(mcs)) if len(mcs) > 1 else 0.0
    return TransferReport(
        model_kind=model.kind,
        target=target,
        mc_mae_mean=float(mcs_arr.mean()),
        ci_halfwidth=float(half),
        raw_mae_mean=float(np.mean(raws)),
        n_episodes=len(mcs),
        per_episode=tuple(mcs),
    )


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------

def write_forecast_csv(
    rows_by_model: dict[str, list[HorizonRow]],
    survival_by_model: dict[str, float],
    path: Union[str, Path],
) -> Path:
    return write_csv(
        path,
        ["model", "horizon", "mse_scaled", "mse_std", "mae_scaled", "mae_std", "survival_steps"],
        ([kind, row.horizon, f"{row.mse_scaled:.6f}", f"{row.mse_std:.6f}",
          f"{row.mae_scaled:.6f}", f"{row.mae_std:.6f}", f"{survival_by_model[kind]:.3f}"]
         for kind in sorted(rows_by_model) for row in rows_by_model[kind]),
    )


def write_transfer_csv(reports: Sequence[TransferReport], path: Union[str, Path]) -> Path:
    return write_csv(
        path, ["model", "target", "mc_mae", "ci_halfwidth", "raw_mae", "n_episodes"],
        ([r.model_kind, r.target, f"{r.mc_mae_mean:.6f}", f"{r.ci_halfwidth:.6f}",
          f"{r.raw_mae_mean:.6f}", r.n_episodes] for r in reports),
    )
