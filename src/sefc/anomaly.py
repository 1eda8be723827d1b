"""Setpoint->effort anomaly detection protocol.

A dense regressor is trained on healthy episodes only to predict the six
motor-torque channels (``ANOMALY_OUTPUT_CHANNELS``) from the 18 setpoint
position, velocity and acceleration channels (``ANOMALY_INPUT_CHANNELS``);
these channel sets are fixed.  The anomaly score of an episode is its mean
absolute prediction error in standardized units.  Per-channel
standardization is fitted on the training split only and travels with the
model checkpoint (stored data stays in raw units).  The AUROC and its
bootstrap rank scores with one numpy midrank helper, ``_midranks``, so the
protocol needs numpy alone.  The report's confidence interval is always the
95% percentile interval of 1000 stratified bootstrap resamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .codec import dump_yaml, write_csv
from .errors import DegenerateLabels, EmptyDataset, SchemaViolation
from .nnkit import DenseNet, TrainConfig, TrainHistory, train
from .nnkit.checkpoint import extra_list, load_model, require_extras, save_model
from .schema import Episode

ANOMALY_INPUT_CHANNELS = tuple(
    f"setpoint_{kind}_{i}" for kind in ("pos", "vel", "acc") for i in range(6)
)
ANOMALY_OUTPUT_CHANNELS = tuple(f"effort_motor_torque_{i}" for i in range(6))

HEALTHY_LABEL = "healthy"

#: The AUROC bootstrap: resample count and confidence level of its interval.
_N_RESAMPLES = 1000
_CI_LEVEL = 0.95


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        std = x.std(axis=0)
        return cls(mean=x.mean(axis=0), std=np.maximum(std, 1e-12))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean

    @staticmethod
    def extra_keys(prefix: str) -> tuple[str, str]:
        """The checkpoint extras' names of the mean and the stdev under *prefix*."""
        return f"{prefix}_mean", f"{prefix}_stdev"

    def to_extra(self, prefix: str) -> dict:
        """The ``extra_keys(prefix)`` checkpoint extras ``from_extra`` reads."""
        return dict(zip(self.extra_keys(prefix), (self.mean.tolist(), self.std.tolist())))

    @classmethod
    def from_extra(cls, extra: dict, prefix: str, length: int, path) -> "Standardizer":
        """The ``extra_keys(prefix)`` checkpoint extras, each *length* numbers."""
        mean, std = (extra_list(extra, key, length, (int, float), path)
                     for key in cls.extra_keys(prefix))
        return cls(np.asarray(mean, np.float64), np.asarray(std, np.float64))


@dataclass(frozen=True)
class ScoredEpisode:
    episode_id: str
    label: str                 # HEALTHY_LABEL or the fault type
    score: float

    @property
    def is_anomalous(self) -> bool:
        return self.label != HEALTHY_LABEL


def build_regression_set(episodes: Sequence[Episode]) -> tuple[np.ndarray, np.ndarray]:
    """Pool per-timestep rows across episodes into the ``ANOMALY_INPUT_CHANNELS``
    and ``ANOMALY_OUTPUT_CHANNELS`` matrices (X, Y)."""
    if not episodes:
        raise EmptyDataset("no episodes")
    return (np.vstack([ep.columns(ANOMALY_INPUT_CHANNELS) for ep in episodes]),
            np.vstack([ep.columns(ANOMALY_OUTPUT_CHANNELS) for ep in episodes]))


@dataclass
class AnomalyModel:
    net: DenseNet
    x_std: Standardizer
    y_std: Standardizer
    input_channels: tuple[str, ...] = ANOMALY_INPUT_CHANNELS
    output_channels: tuple[str, ...] = ANOMALY_OUTPUT_CHANNELS

    def save(self, path: Union[str, Path]) -> Path:
        extra = {
            "input_channels": list(self.input_channels),
            "output_channels": list(self.output_channels),
            **self.x_std.to_extra("x"),
            **self.y_std.to_extra("y"),
        }
        return save_model(path, self.net, extra=extra)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "AnomalyModel":
        net, extra = load_model(path)
        require_extras(extra, ("input_channels", "output_channels", *Standardizer.extra_keys("x"),
                               *Standardizer.extra_keys("y")), path, "an anomaly")
        if not isinstance(net, DenseNet):
            raise SchemaViolation(f"{path}: not an anomaly checkpoint")
        n_in, n_out = net.widths[0], net.out_dim
        return cls(
            net=net,
            x_std=Standardizer.from_extra(extra, "x", n_in, path),
            y_std=Standardizer.from_extra(extra, "y", n_out, path),
            input_channels=tuple(extra_list(extra, "input_channels", n_in, (str,), path)),
            output_channels=tuple(extra_list(extra, "output_channels", n_out, (str,), path)),
        )


def train_anomaly_model(
    episodes: Sequence[Episode], config: TrainConfig
) -> tuple[AnomalyModel, TrainHistory]:
    """Fit the regressor on healthy episodes only.

    Any labeled-faulty episode in the input is a protocol violation and
    raises SchemaViolation.  The last 15% of episodes (at least one) form
    the validation split; the standardizers are fitted on the training split.
    """
    faulty = [ep.episode_id for ep in episodes if not ep.healthy]
    if faulty:
        raise SchemaViolation(
            "anomaly training is healthy-only; faulty episodes in input: "
            + ", ".join(faulty[:5])
        )
    if len(episodes) < 2:
        raise EmptyDataset("need at least 2 healthy episodes (train + val)")

    n_val = max(1, int(round(0.15 * len(episodes))))
    x_train, y_train = build_regression_set(episodes[:-n_val])
    x_val, y_val = build_regression_set(episodes[-n_val:])

    x_std = Standardizer.fit(x_train)
    y_std = Standardizer.fit(y_train)

    net = DenseNet([len(ANOMALY_INPUT_CHANNELS), 512, 256, 128, len(ANOMALY_OUTPUT_CHANNELS)],
                   seed=config.seed)
    history = train(
        net,
        (x_std.transform(x_train), y_std.transform(y_train)),
        (x_std.transform(x_val), y_std.transform(y_val)),
        config,
    )
    return AnomalyModel(net, x_std, y_std), history


def score_episode(model: AnomalyModel, ep: Episode) -> ScoredEpisode:
    """Per-episode MAE between predicted and true efforts (standardized)."""
    x = model.x_std.transform(ep.columns(model.input_channels))
    y = model.y_std.transform(ep.columns(model.output_channels))
    pred = model.net.predict(x)
    score = float(np.mean(np.abs(pred - y)))
    return ScoredEpisode(ep.episode_id, ep.fault or HEALTHY_LABEL, score)


def score_episodes(model: AnomalyModel, episodes: Sequence[Episode]) -> list[ScoredEpisode]:
    return [score_episode(model, ep) for ep in episodes]


# ---------------------------------------------------------------------------
# AUROC and confidence intervals
# ---------------------------------------------------------------------------

def auroc(scored: Sequence[tuple[float, bool]]) -> float:
    """Probability an anomalous score outranks a healthy one (ties half).

    Computed with the midrank formula; equal to the exhaustive pairwise
    count exactly, including ties.
    """
    scores = np.asarray([s for s, _ in scored], dtype=np.float64)
    labels = np.asarray([bool(a) for _, a in scored])
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("need at least one anomalous and one healthy score")
    ranks = _midranks(scores)
    return float(_auroc_from_rank_sum(ranks[labels].sum(), n_pos, n_neg))


def _midranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis, tied values sharing the mean of their ranks.

    A stable sort puts equal values next to each other; a run at sorted
    positions ``first..last`` gets ``(first + last) / 2 + 1``, an exact
    half-integer.  A row holding a NaN comes out all NaN.
    """
    order = np.argsort(a, axis=-1, kind="stable")
    s = np.take_along_axis(a, order, axis=-1)
    pos = np.broadcast_to(np.arange(a.shape[-1]), a.shape)
    starts = np.ones(a.shape, dtype=bool)
    starts[..., 1:] = s[..., 1:] != s[..., :-1]
    ends = np.ones(a.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, a.shape[-1])[..., ::-1], axis=-1)[..., ::-1]
    # NaN sorts last, so a row's last sorted value tells whether it holds one
    sorted_ranks = np.where(np.isnan(s[..., -1:]), np.nan, (first + last) / 2.0 + 1.0)
    ranks = np.empty(a.shape)
    np.put_along_axis(ranks, order, sorted_ranks, axis=-1)
    return ranks


def _auroc_from_rank_sum(rank_sum, n_pos: int, n_neg: int):
    """Midrank (Mann-Whitney) AUROC from the anomalous scores' rank sum."""
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _auroc_of(scored: Sequence[ScoredEpisode]) -> float:
    return auroc([(s.score, s.is_anomalous) for s in scored])


def bootstrap_ci(scored: Sequence[ScoredEpisode], seed: int) -> tuple[float, float]:
    """Percentile ``_CI_LEVEL`` bootstrap CI of the AUROC over ``_N_RESAMPLES``
    resamples of the episode-level scores.

    Resampling is stratified by label (healthy/anomalous sizes preserved),
    so no resample can lose a class; deterministic given the seed.
    """
    healthy = np.asarray([s.score for s in scored if not s.is_anomalous])
    anom = np.asarray([s.score for s in scored if s.is_anomalous])
    if healthy.size == 0 or anom.size == 0:
        raise DegenerateLabels("need both classes for a bootstrap CI")
    rng = np.random.default_rng(seed)
    n_h, n_a = healthy.size, anom.size
    # one draw of every resample's indices, in the order of the per-resample
    # ``rng.choice`` calls it replaces: each row n_h healthy, then n_a anomalous
    bounds = np.empty((_N_RESAMPLES, n_h + n_a), dtype=np.int64)
    bounds[:, :n_h], bounds[:, n_h:] = n_h, n_a
    idx = rng.integers(0, bounds)
    draws = np.concatenate((healthy[idx[:, :n_h]], anom[idx[:, n_h:]]), axis=1)
    rank_sums = _midranks(draws)[:, n_h:].sum(axis=1)
    stats = _auroc_from_rank_sum(rank_sums, n_a, n_h)
    alpha = (1.0 - _CI_LEVEL) / 2.0
    lo, hi = np.percentile(stats, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(lo), float(hi)


@dataclass(frozen=True)
class CategoryRow:
    category: str
    n: int
    auroc: float


@dataclass(frozen=True)
class AnomalyReport:
    rows: tuple[CategoryRow, ...]
    mean_auroc: float          # unweighted mean over the categories
    pooled_auroc: float        # all anomalies vs the shared healthy pool
    ci: tuple[float, float]
    ci_level: float
    n_healthy: int


def per_category_report(scored: Sequence[ScoredEpisode], seed: int) -> AnomalyReport:
    """One AUROC per fault category present in *scored*, in sorted order,
    against the shared healthy pool."""
    healthy = [s for s in scored if not s.is_anomalous]
    anomalous = [s for s in scored if s.is_anomalous]
    if not healthy or not anomalous:
        raise DegenerateLabels("need healthy and anomalous episodes for a report")

    rows: list[CategoryRow] = []
    for cat in sorted({s.label for s in anomalous}):
        cat_eps = [s for s in anomalous if s.label == cat]
        rows.append(CategoryRow(cat, len(cat_eps), _auroc_of(healthy + cat_eps)))

    pooled = _auroc_of(scored)
    ci = bootstrap_ci(scored, seed=seed)
    return AnomalyReport(
        rows=tuple(rows),
        mean_auroc=float(np.mean([r.auroc for r in rows])),
        pooled_auroc=pooled,
        ci=ci,
        ci_level=_CI_LEVEL,
        n_healthy=len(healthy),
    )


def write_report_csv(report: AnomalyReport, path: Union[str, Path]) -> Path:
    n_anomalous = sum(r.n for r in report.rows)
    return write_csv(path, ["category", "n", "auroc"], [
        *([r.category, r.n, f"{r.auroc:.6f}"] for r in report.rows),
        ["mean", n_anomalous, f"{report.mean_auroc:.6f}"],
        ["pooled", n_anomalous, f"{report.pooled_auroc:.6f}"],
        [f"ci{int(report.ci_level * 100)}", report.n_healthy,
         f"[{report.ci[0]:.6f}, {report.ci[1]:.6f}]"],
    ])


def write_report_summary(report: AnomalyReport, path: Union[str, Path]) -> Path:
    """Structured-text companion to the per-category CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "mean_auroc": round(report.mean_auroc, 6),
        "pooled_auroc": round(report.pooled_auroc, 6),
        "ci": [round(report.ci[0], 6), round(report.ci[1], 6)],
        "ci_level": report.ci_level,
        "n_healthy": report.n_healthy,
        "n_anomalous": sum(r.n for r in report.rows),
        "categories": {
            r.category: {"n": r.n, "auroc": round(r.auroc, 6)} for r in report.rows
        },
    }
    path.write_text(dump_yaml(payload), encoding="utf-8")
    return path


def write_scores_csv(scored: Sequence[ScoredEpisode], path: Union[str, Path]) -> Path:
    return write_csv(path, ["episode_id", "label", "score"],
                     ([s.episode_id, s.label, "{:.17g}".format(s.score)] for s in scored))
