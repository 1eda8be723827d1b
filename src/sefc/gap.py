"""Phase-aware sim-to-real gap metrics over paired episodes.

Each phase run present on both sides (a label's k-th run on each) is
mapped to normalized time u in [0, 1] and the simulated signals are
linearly interpolated onto the real side's u-grid, which removes duration
mismatch before comparing.
The metric suite covers joint-space RMSE, TCP position RMSE, the RMS of
the 3-D TCP Euclidean distance, rotation-vector RMSE, and the exact 1-D
Wasserstein-1 distance between pooled effort samples.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .codec import write_csv
from .errors import EmptyInput, NoCommonPhases, SchemaViolation
from .ingest import EpisodePair
from .schema import ChannelDescriptor, SignalRole, phase_runs


def wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Exact W1 between two empirical distributions (any sizes).

    Integrates |Fa^-1 - Fb^-1| over the union of quantile breakpoints,
    which is exact for empirical CDFs; for equal sizes this reduces to the
    mean absolute difference of the sorted samples.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise EmptyInput("W1 needs non-empty samples")
    n, m = a.size, b.size
    edges = np.union1d(np.arange(1, n + 1) / n, np.arange(1, m + 1) / m)
    edges = np.concatenate([[0.0], edges])
    mids = (edges[:-1] + edges[1:]) / 2.0
    ia = np.minimum((mids * n).astype(int), n - 1)
    ib = np.minimum((mids * m).astype(int), m - 1)
    return float(np.sum(np.diff(edges) * np.abs(a[ia] - b[ib])))


# ---------------------------------------------------------------------------
# phase alignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlignedPair:
    pair_key: str
    descriptors: tuple[ChannelDescriptor, ...]   # real-side descriptors
    sim_units: tuple[str, ...]                   # sim-side unit of each channel
    real: np.ndarray                             # n_aligned x C
    sim: np.ndarray                              # sim interpolated, same shape
    phases_used: tuple[str, ...]
    phases_skipped: tuple[str, ...]


def phase_align(pair: EpisodePair) -> AlignedPair:
    """Align the pair's common channels phase run by phase run on normalized time.

    A label's k-th run (``schema.phase_runs``) on one side pairs with its
    k-th run on the other, in the real side's run order.  Runs on only one
    side are skipped and reported, the real side's first.  A run is named
    ``<label>`` if it is its label's first and ``<label>#<k>`` if its k-th.
    Raises NoCommonPhases when no run pairs, and SchemaViolation when the
    two sides record different tasks or two runs would get the same name
    (a label spelled like another label's k-th run, such as ``a#2`` beside
    a second ``a`` run).
    """
    real, sim = pair.real, pair.sim
    if real.task != sim.task:
        raise SchemaViolation(
            f"pair {pair.pair_key!r}: task mismatch ({real.task} vs {sim.task})")
    descriptors = tuple(d for d in real.descriptors if sim.has_channel(d.canonical_name))
    common = [d.canonical_name for d in descriptors]
    real_x, sim_x = real.columns(common), sim.columns(common)

    real_runs, sim_runs = _numbered_runs(real.phase), _numbered_runs(sim.phase)
    used = [run for run in real_runs if run in sim_runs]
    skipped = [run for run in real_runs if run not in sim_runs]
    skipped += [run for run in sim_runs if run not in real_runs]
    if not used:
        raise NoCommonPhases(f"pair {pair.pair_key!r}: no shared phases between real and sim")

    real_blocks, sim_blocks = [], []
    for run in used:
        (r0, r1), (s0, s1) = real_runs[run], sim_runs[run]
        u_real, u_sim = (np.arange(n) / max(n - 1, 1) for n in (r1 - r0, s1 - s0))
        real_blocks.append(real_x[r0:r1])
        sim_block = np.empty((r1 - r0, len(common)))
        for c in range(len(common)):
            sim_block[:, c] = np.interp(u_real, u_sim, sim_x[s0:s1, c])
        sim_blocks.append(sim_block)

    names = [label if k == 1 else f"{label}#{k}" for label, k in used + skipped]
    if len(set(names)) < len(names):
        name = next(n for n in names if names.count(n) > 1)
        raise SchemaViolation(
            f"pair {pair.pair_key!r}: two phase runs would both be named {name!r}; "
            f"a phase label must not read as another label's numbered run"
        )
    return AlignedPair(
        pair_key=pair.pair_key,
        descriptors=descriptors,
        sim_units=tuple(sim.descriptors[sim.channel_index(n)].unit for n in common),
        real=np.vstack(real_blocks),
        sim=np.vstack(sim_blocks),
        phases_used=tuple(names[:len(used)]),
        phases_skipped=tuple(names[len(used):]),
    )


def _numbered_runs(phase) -> dict[tuple[str, int], tuple[int, int]]:
    """``(label, k) -> (start, stop)`` of each label's k-th run, in run order."""
    counters: defaultdict = defaultdict(lambda: count(1))
    return {(label, next(counters[label])): (start, stop)
            for label, start, stop in phase_runs(phase)}


# ---------------------------------------------------------------------------
# pair metrics
# ---------------------------------------------------------------------------

JOINT_CHANNELS = tuple(f"feedback_pos_{i}" for i in range(6))
TCP_POS_CHANNELS = tuple(f"feedback_pos_cartesian_{i}" for i in range(3))
TCP_ROT_CHANNELS = tuple(f"feedback_pos_cartesian_{i}" for i in range(3, 6))


@dataclass(frozen=True)
class GapMetrics:
    pair_key: str
    joint_rmse_deg: Optional[float] = None
    tcp_pos_rmse_mm: Optional[float] = None
    ee_l2_rms_mm: Optional[float] = None
    tcp_rotvec_rmse_mrad: Optional[float] = None
    w1_effort_mean: Optional[float] = None
    rotvec_wrapped: bool = False     # any rotvec component spans more than pi


METRIC_NAMES = (
    "joint_rmse_deg",
    "tcp_pos_rmse_mm",
    "ee_l2_rms_mm",
    "tcp_rotvec_rmse_mrad",
    "w1_effort_mean",
)

_RAD_TO_DEG = 180.0 / np.pi

#: Scale factor to each metric unit from every channel unit it accepts
#: (matched lower-cased).  A channel in any other unit fails the metric.
_UNIT_FACTORS = {
    "deg": {"deg": 1.0, "rad": _RAD_TO_DEG},
    "mm": {"m": 1000.0, "mm": 1.0, "m/rad": 1000.0},
    "mrad": {"rad": 1000.0, "deg": np.pi / 180.0 * 1000.0, "m/rad": 1000.0},
}


def _scaled_diff(aligned: AlignedPair, names: Sequence[str], metric: str):
    """``(idx, [f_real, f_sim], (real - sim * (f_sim / f_real)) * f_real)``.

    Over the *names* columns, the rows *f_real* and *f_sim* convert each
    side's unit of a channel to the unit that ends the *metric* name; with
    equal units the ratio is exactly 1.0.  None when any name is absent
    from the pair; raises SchemaViolation for a unit, on either side, that
    is not in ``_UNIT_FACTORS``.
    """
    where = {d.canonical_name: i for i, d in enumerate(aligned.descriptors)}
    if not all(n in where for n in names):
        return None
    idx = np.asarray([where[n] for n in names], dtype=int)
    to = _UNIT_FACTORS[metric.rsplit("_", 1)[1]]
    factors = np.empty((2, idx.size))
    for side, units in enumerate(([d.unit for d in aligned.descriptors], aligned.sim_units)):
        for k, i in enumerate(idx):
            factor = to.get(units[i].lower())
            if factor is None:
                raise SchemaViolation(
                    f"pair {aligned.pair_key!r}: {('real', 'sim')[side]} channel "
                    f"{names[k]} has unit {units[i]!r}, which {metric} cannot convert "
                    f"(accepted: {', '.join(to)})"
                )
            factors[side, k] = factor
    f_real, f_sim = factors
    diff = (aligned.real[:, idx] - aligned.sim[:, idx] * (f_sim / f_real)) * f_real
    return idx, factors, diff


def pair_metrics(aligned: AlignedPair) -> GapMetrics:
    """Table-style metric suite for one aligned pair.

    Joint, TCP-position and rotation-vector metrics need their full channel
    group and convert each side's channels from that side's own unit to
    the metric's unit first; a unit the metric does not accept, on either
    side, raises SchemaViolation.  Effort W1 averages over every Effort
    channel in real-side descriptor order, in the channels' own unit, and
    raises SchemaViolation when the two sides' units of an Effort channel
    differ (compared lower-cased).  A metric whose channels are absent is
    reported as None rather than failing the pair; a pair with no metric at
    all raises EmptyInput.
    """
    values: dict[str, Optional[float]] = {}

    joint = _scaled_diff(aligned, JOINT_CHANNELS, "joint_rmse_deg")
    if joint is not None:
        values["joint_rmse_deg"] = float(np.sqrt(np.mean(joint[2] ** 2)))

    tcp = _scaled_diff(aligned, TCP_POS_CHANNELS, "tcp_pos_rmse_mm")
    if tcp is not None:
        diff = tcp[2]
        values["tcp_pos_rmse_mm"] = float(np.sqrt(np.mean(diff ** 2)))
        # RMS of the 3-D Euclidean distance (pools axes before the mean)
        values["ee_l2_rms_mm"] = float(np.sqrt(np.mean(np.sum(diff ** 2, axis=1))))

    wrapped = False
    rot = _scaled_diff(aligned, TCP_ROT_CHANNELS, "tcp_rotvec_rmse_mrad")
    if rot is not None:
        idx, side_factors, diff = rot
        values["tcp_rotvec_rmse_mrad"] = float(np.sqrt(np.mean(diff ** 2)))
        # no angular unwrapping is applied; flag suspicious component spans
        for side, factors in zip((aligned.real, aligned.sim), side_factors):
            span = side[:, idx].max(axis=0) - side[:, idx].min(axis=0)
            if np.any(span * (factors / 1000.0) > np.pi):
                wrapped = True

    effort_idx = [
        i for i, d in enumerate(aligned.descriptors) if d.role == SignalRole.EFFORT
    ]
    for i in effort_idx:
        real_unit, sim_unit = aligned.descriptors[i].unit, aligned.sim_units[i]
        if real_unit.lower() != sim_unit.lower():
            raise SchemaViolation(
                f"pair {aligned.pair_key!r}: effort channel "
                f"{aligned.descriptors[i].canonical_name} has unit {real_unit!r} on the "
                f"real side and {sim_unit!r} on the sim side; w1_effort_mean needs one unit"
            )
    if effort_idx:
        w1s = [
            wasserstein_1d(aligned.real[:, i], aligned.sim[:, i]) for i in effort_idx
        ]
        values["w1_effort_mean"] = float(np.mean(w1s))

    if not values:
        raise EmptyInput(
            f"pair {aligned.pair_key!r}: no gap metric can be computed; the channels "
            f"both sides share hold none of the groups looked for: joints "
            f"({', '.join(JOINT_CHANNELS)}), TCP position ({', '.join(TCP_POS_CHANNELS)}), "
            f"TCP rotation ({', '.join(TCP_ROT_CHANNELS)}) and Effort-role channels"
        )
    return GapMetrics(pair_key=aligned.pair_key, rotvec_wrapped=wrapped, **values)


# ---------------------------------------------------------------------------
# batch summary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSummary:
    metric: str
    mean: float
    median: float
    p10: float
    p90: float
    n: int


@dataclass(frozen=True)
class GapSummary:
    rows: tuple[MetricSummary, ...]
    n_pairs: int


def batch_summary(per_pair: Sequence[GapMetrics]) -> GapSummary:
    """Mean/median/p10/p90 of each metric over pairs (linear percentiles)."""
    if not per_pair:
        raise EmptyInput("no pairs to summarize")
    rows = []
    for metric in METRIC_NAMES:
        vals = np.asarray([
            getattr(m, metric) for m in per_pair if getattr(m, metric) is not None
        ])
        if vals.size == 0:
            continue
        p10, median, p90 = np.percentile(vals, [10.0, 50.0, 90.0])
        rows.append(MetricSummary(
            metric=metric,
            mean=float(vals.mean()),
            median=float(median),
            p10=float(p10),
            p90=float(p90),
            n=int(vals.size),
        ))
    return GapSummary(rows=tuple(rows), n_pairs=len(per_pair))


def write_pair_metrics_csv(per_pair: Sequence[GapMetrics], path: Union[str, Path]) -> Path:
    rows = []
    for m in per_pair:
        for metric in METRIC_NAMES:
            v = getattr(m, metric)
            rows.append([m.pair_key, metric, "" if v is None else f"{v:.9g}",
                         int(m.rotvec_wrapped)])
    return write_csv(path, ["pair_key", "metric", "value", "rotvec_wrapped"], rows)


def write_summary_csv(summary: GapSummary, path: Union[str, Path]) -> Path:
    return write_csv(
        path, ["metric", "mean", "median", "p10", "p90", "n"],
        ([r.metric, f"{r.mean:.9g}", f"{r.median:.9g}", f"{r.p10:.9g}", f"{r.p90:.9g}", r.n]
         for r in summary.rows),
    )
