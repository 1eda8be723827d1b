"""Signal and fault taxonomies, adapter specifications, and canonical episodes.

Every raw telemetry column is assigned one of four modeling roles --
Setpoint (commanded intent), Effort (actuation energy), Feedback (measured
outcome), Context (environmental/static state) -- or one of three carrier
roles (Metadata, Auxiliary, RawLabel) that are stored but never fed to
models by default.  Adapters are declarative: each source ships a config
file mapping its raw column names onto canonical names, and the mapping is
applied mechanically.  Each spec type checks its own invariants when it is
built and raises SchemaViolation, so an invalid adapter fails once, where it
is loaded, and ``apply_adapter`` never checks it again.

``FAULT_TYPES`` is the one fault taxonomy: the description and tasks of each
of the 27 annotated fault types.  ``synthgen`` injects eight of them, and a
canonical sidecar's ``fault`` is null or a type of its episode's task.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .codec import load_yaml
from .errors import (DegenerateEpisode, MissingChannel, MissingRawColumn, NonNumericColumn,
                     SchemaViolation)

TASKS = ("pick_and_place", "screwdriving", "peg_in_hole", "machining")

_ALL_ARM_TASKS = ("pick_and_place", "screwdriving", "peg_in_hole")

#: The fault taxonomy: each of the 27 types maps to its (description, tasks).
FAULT_TYPES: dict[str, tuple[str, tuple[str, ...]]] = {
    "damaged_screw_thread": ("screw thread damaged, no engagement", ("screwdriving",)),
    "missing_screw": ("tightening attempted with no screw", ("screwdriving",)),
    "damaged_plate_thread": ("threaded plate hole damaged", ("screwdriving",)),
    "loosening_phase": ("counterclockwise loosening replaces tightening", ("screwdriving",)),
    "gripper_activation_failure": ("gripper never activates, payload never picked",
                                   ("pick_and_place",)),
    "gripper_release_mid_motion": ("payload released mid-trajectory", ("pick_and_place",)),
    "additional_axis_payload": ("dead weight bolted to one link",
                                ("pick_and_place", "screwdriving")),
    "collision_foam_spike": ("soft foam block in the TCP path", _ALL_ARM_TASKS),
    "unexpected_payload_weight": ("transported box heavier/lighter than nominal",
                                  ("pick_and_place",)),
    "invalid_gripping_position": ("gripper closure lags the lift motion", ("pick_and_place",)),
    "unstable_platform": ("base instability adds low-frequency vibration", ("pick_and_place",)),
    "joint_position_limit_violation": ("waypoint beyond soft joint limit", ("pick_and_place",)),
    "tcp_frame_misconfiguration": ("TCP frame or mounting angle misconfigured", _ALL_ARM_TASKS),
    "payload_weight_misconfiguration": ("configured payload mass wrong while tool attached",
                                        ("pick_and_place", "screwdriving")),
    "external_arm_disturbance": ("continuous external force on the TCP", _ALL_ARM_TASKS),
    "payload_cog_misconfiguration": ("payload CoG offset wrong in controller", _ALL_ARM_TASKS),
    "collision_hanging_cable": ("loose cable drags along a link", _ALL_ARM_TASKS),
    "collision_cardboard": ("cardboard carton in the trajectory", _ALL_ARM_TASKS),
    "collision_rigid_object": ("rigid block triggers protective stop", _ALL_ARM_TASKS),
    "peg_insertion_misalignment": ("peg approaches hole at an offset", ("peg_in_hole",)),
    "hole_obstruction": ("debris in the hole blocks insertion", ("peg_in_hole",)),
    "incorrect_insertion_depth": ("insertion ends at wrong Z depth", ("peg_in_hole",)),
    "peg_surface_contamination": ("contaminated peg raises insertion friction", ("peg_in_hole",)),
    "fixture_displacement": ("hole fixture shifted without reprogramming", ("peg_in_hole",)),
    "self_collision": ("arm contacts its own body or mount", ("pick_and_place",)),
    "missing_box": ("box absent from the pick position", ("pick_and_place",)),
    "missing_peg": ("peg absent during insertion", ("peg_in_hole",)),
}


def check_fault(fault, task: str) -> None:
    """Raise SchemaViolation unless *fault* is None or a ``FAULT_TYPES`` type of *task*."""
    if fault is not None and not (isinstance(fault, str) and fault in FAULT_TYPES
                                  and task in FAULT_TYPES[fault][1]):
        raise SchemaViolation(
            f"fault must be null or a fault type of task {task!r}, got {fault!r}")


_SNAKE_RE = re.compile(r"^[a-z][a-z0-9_]*$")


class SignalRole(Enum):
    SETPOINT = "setpoint"
    EFFORT = "effort"
    FEEDBACK = "feedback"
    CONTEXT = "context"
    METADATA = "metadata"
    AUXILIARY = "auxiliary"
    RAW_LABEL = "raw_label"


#: Roles that are eligible as model inputs/outputs.
MODELING_ROLES = frozenset(
    {SignalRole.SETPOINT, SignalRole.EFFORT, SignalRole.FEEDBACK, SignalRole.CONTEXT}
)

#: Roles where every cell must parse as a number.
NUMERIC_ROLES = frozenset(
    {SignalRole.SETPOINT, SignalRole.EFFORT, SignalRole.FEEDBACK}
)


@dataclass(frozen=True)
class SignalSpec:
    """One raw-column -> canonical-channel mapping row."""

    raw_name: str
    canonical_name: str
    role: Optional[SignalRole]
    unit: str
    axis: Optional[int]
    notes: str


@dataclass(frozen=True)
class AdapterSpec:
    """Declarative mapping for one data source.

    Checked at construction: a spec with problems raises SchemaViolation
    reading ``adapter '<source_id>' invalid:`` followed by one
    ``[code] message`` line per problem -- a raw or canonical name mapped
    twice (``duplicate-raw``, ``duplicate-canonical``), a canonical name that
    is not lowercase snake case (``bad-canonical-name``), a negative axis
    (``bad-axis``) or a name not ending in ``_<axis>``
    (``malformed-axis-suffix``), a signal without a role or unit
    (``missing-role``, ``missing-unit``), a ``native_rate_hz`` that is not
    finite and positive (``bad-rate``), an absent channel that is also
    mapped (``absent-overlap``), and a mapped ``phase_column``
    (``phase-mapped``): that raw column holds the phase labels, never a channel.
    """

    source_id: str
    native_rate_hz: float
    signals: tuple[SignalSpec, ...]
    absent_channels: tuple[str, ...]
    notes: str
    phase_column: Optional[str]

    def __post_init__(self):
        problems: list[str] = []
        seen_raw: set[str] = set()
        seen_canon: set[str] = set()
        for sig in self.signals:
            name = sig.canonical_name
            if sig.raw_name in seen_raw:
                problems.append(f"[duplicate-raw] raw name {sig.raw_name!r} mapped twice")
            seen_raw.add(sig.raw_name)
            if name in seen_canon:
                problems.append(f"[duplicate-canonical] canonical name {name!r} assigned twice")
            seen_canon.add(name)
            if not _SNAKE_RE.match(name):
                problems.append(f"[bad-canonical-name] {name!r} is not lowercase snake case")
            if sig.axis is not None and sig.axis < 0:
                problems.append(f"[bad-axis] {name!r}: axis must be >= 0")
            elif sig.axis is not None and not name.endswith(f"_{sig.axis}"):
                problems.append(f"[malformed-axis-suffix] {name!r} does not end in _{sig.axis}")
            if sig.role is None:
                problems.append(f"[missing-role] {sig.raw_name!r} has no role")
            if not sig.unit:
                problems.append(f"[missing-unit] {sig.raw_name!r} has no unit")
        if not 0 < self.native_rate_hz < np.inf:
            problems.append("[bad-rate] native_rate_hz must be finite and positive")
        for name in sorted(set(self.absent_channels) & seen_canon):
            problems.append(f"[absent-overlap] {name!r} both mapped and declared absent")
        if self.phase_column in seen_raw:
            problems.append(f"[phase-mapped] phase column {self.phase_column!r} is also mapped")
        if problems:
            raise SchemaViolation("\n".join([f"adapter {self.source_id!r} invalid:", *problems]))


@dataclass(frozen=True)
class ChannelDescriptor:
    """Per-channel header carried inside an Episode."""

    canonical_name: str
    role: SignalRole
    unit: str
    axis: Optional[int] = None

    @classmethod
    def from_signal(cls, sig: SignalSpec) -> "ChannelDescriptor":
        return cls(sig.canonical_name, sig.role, sig.unit, sig.axis)


@dataclass(frozen=True, eq=False)
class Episode:
    """A uniformly sampled multichannel recording of one task execution.

    Invariants are checked at construction: a finite positive ``rate_hz``,
    at least two finite timestamps, matching channel/descriptor counts,
    unique channel names, uniform time base within 1e-9 s of ``1/rate_hz``,
    and a ``fault`` that ``check_fault`` accepts for the task.  ``fault`` is
    the one label of health: ``healthy`` reads ``fault is None``.  Arrays
    are made read-only; episodes are safe to share across threads.
    """

    episode_id: str
    source_id: str
    embodiment: str
    task: str
    rate_hz: float
    t: np.ndarray
    channels: np.ndarray
    descriptors: tuple[ChannelDescriptor, ...]
    phase: np.ndarray
    fault: Optional[str] = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        channels = np.asarray(self.channels, dtype=np.float64)
        phase = np.asarray(self.phase)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "descriptors", tuple(self.descriptors))

        if self.task not in TASKS:
            raise SchemaViolation(f"unknown task {self.task!r}")
        check_fault(self.fault, self.task)
        if not 0 < self.rate_hz < np.inf:
            raise SchemaViolation(f"rate_hz must be finite and positive, got {self.rate_hz!r}")
        if t.ndim != 1 or t.shape[0] < 2:
            raise SchemaViolation("episode needs at least 2 timestamps")
        if not np.isfinite(t).all():
            raise SchemaViolation("timestamps must be finite")
        if channels.ndim != 2 or channels.shape[0] != t.shape[0]:
            raise SchemaViolation(
                f"channels shape {channels.shape} does not match T={t.shape[0]}"
            )
        if channels.shape[1] < 1:
            raise SchemaViolation("episode needs at least one channel")
        if len(self.descriptors) != channels.shape[1]:
            raise SchemaViolation(
                f"{len(self.descriptors)} descriptors for {channels.shape[1]} channels"
            )
        index: dict[str, int] = {}
        for i, d in enumerate(self.descriptors):
            if index.setdefault(d.canonical_name, i) != i:
                raise SchemaViolation(f"channel name {d.canonical_name!r} appears twice")
        object.__setattr__(self, "_index", index)
        if phase.shape != t.shape:
            raise SchemaViolation("phase vector length must equal T")
        dt = np.diff(t)
        if dt.min() <= 0:
            raise SchemaViolation("timestamps must be strictly increasing")
        if np.abs(dt - 1.0 / self.rate_hz).max() > 1e-9:
            raise SchemaViolation("time base is not uniform at 1/rate_hz within 1e-9 s")

        for arr in (t, channels):
            arr.setflags(write=False)

    # -- convenience accessors ------------------------------------------

    @property
    def healthy(self) -> bool:
        return self.fault is None

    @property
    def n_steps(self) -> int:
        return self.t.shape[0]

    @property
    def n_channels(self) -> int:
        return self.channels.shape[1]

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(d.canonical_name for d in self.descriptors)

    def channel_index(self, canonical_name: str) -> int:
        return self._index[canonical_name]

    def has_channel(self, canonical_name: str) -> bool:
        return canonical_name in self._index

    def channel(self, canonical_name: str) -> np.ndarray:
        return self.channels[:, self.channel_index(canonical_name)]

    def columns(self, names: Sequence[str]) -> np.ndarray:
        """The named channels as a new C-ordered ``(T, len(names))`` array.

        Raises MissingChannel naming the first absent name, and
        DegenerateEpisode naming the episode, the channel and the first row
        of a non-finite value in a channel of a ``MODELING_ROLES`` role.  A
        carrier-role channel keeps its NaN.
        """
        try:
            idx = [self._index[n] for n in names]
        except KeyError as exc:
            raise MissingChannel(exc.args[0]) from None
        out = np.take(self.channels, idx, axis=1)
        modeling = [k for k, i in enumerate(idx) if self.descriptors[i].role in MODELING_ROLES]
        bad = np.argwhere(~np.isfinite(out)[:, modeling])
        if bad.size:
            row, col = bad[0][0], modeling[bad[0][1]]
            raise DegenerateEpisode(f"episode {self.episode_id!r}: channel {names[col]!r} "
                                    f"holds {out[row, col]} at row {row}")
        return out

    def replace(self, **kwargs) -> "Episode":
        """Copy with some fields replaced (re-validates invariants)."""
        return replace(self, **kwargs)


def phase_runs(phase: Iterable) -> list[tuple[str, int, int]]:
    """Maximal runs of equal labels as ``(label, start, stop)``, in order.

    Labels are compared as ``str``; ``stop`` is one past the run's last
    step.  A label that recurs later starts a new run.
    """
    labels = np.array([str(label) for label in phase], dtype=object)
    if labels.size == 0:
        return []
    bounds = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), labels.size]
    return [(labels[a], a, b) for a, b in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True)
class EpisodeMeta:
    """Caller-supplied names for an adapted table; its phase labels are the adapter's."""

    episode_id: str
    embodiment: str
    task: str


# ---------------------------------------------------------------------------
# applying adapters to raw tables
# ---------------------------------------------------------------------------

_BOOL_WORDS = {"true": 1.0, "false": 0.0, "yes": 1.0, "no": 0.0}


def _coerce_cell(value) -> float:
    """Best-effort numeric coercion for non-modeling-role cells."""
    if value is None:
        return np.nan
    if isinstance(value, (int, float, np.floating, np.integer)):
        return float(value)
    s = str(value).strip()
    if not s:
        return np.nan
    low = s.lower()
    if low in _BOOL_WORDS:
        return _BOOL_WORDS[low]
    try:
        return float(s)
    except ValueError:
        return np.nan


def _column_as_floats(name: str, col: np.ndarray, role: SignalRole) -> np.ndarray:
    if col.dtype.kind == "f":
        return col.astype(np.float64)
    out = np.empty(len(col), dtype=np.float64)
    if role in NUMERIC_ROLES:
        for i, v in enumerate(col):
            if v is None:
                out[i] = np.nan
                continue
            try:
                out[i] = float(v)
            except (TypeError, ValueError):
                raise NonNumericColumn(name, f"row {i}: {v!r}") from None
    else:
        # label columns repeat a few values over every row: coerce each
        # distinct string once
        memo: dict[str, float] = {}
        for i, v in enumerate(col):
            if isinstance(v, str):
                x = memo.get(v)
                if x is None:
                    x = memo[v] = _coerce_cell(v)
                out[i] = x
            else:
                out[i] = _coerce_cell(v)
    return out


def apply_adapter(
    raw_table: Mapping[str, np.ndarray],
    spec: AdapterSpec,
    meta: EpisodeMeta,
    allow_missing: Iterable[str] = (),
) -> Episode:
    """Map a raw named-column table into a canonical episode.

    Output channels are exactly the mapped columns in spec order, renamed
    to canonical names; unmapped raw columns are dropped.  The phase labels
    are the cells of ``spec.phase_column`` as text, or ``unknown`` when the
    spec declares none; the episode has no fault.  Raw columns in
    *allow_missing* may be absent (they are then omitted from the output).
    Deterministic: identical inputs yield bit-identical episodes.

    Raises:
        MissingRawColumn: a mapped column is absent and not allow-missing,
            or ``spec.phase_column`` names an absent column.
        NonNumericColumn: a Setpoint/Effort/Feedback column fails to parse.
    """
    allow = set(allow_missing)
    cols: list[np.ndarray] = []
    descs: list[ChannelDescriptor] = []
    n_rows = None
    for sig in spec.signals:
        if sig.raw_name not in raw_table:
            if sig.raw_name in allow:
                continue
            raise MissingRawColumn(sig.raw_name)
        raw = np.asarray(raw_table[sig.raw_name])
        if n_rows is None:
            n_rows = len(raw)
        cols.append(_column_as_floats(sig.raw_name, raw, sig.role))
        descs.append(ChannelDescriptor.from_signal(sig))

    if n_rows is None:
        raise SchemaViolation("adapter maps no columns present in the table")

    if spec.phase_column is None:
        phase = np.full(n_rows, "unknown")
    elif spec.phase_column in raw_table:
        phase = np.asarray(["unknown" if v is None else str(v) for v in raw_table[spec.phase_column]])
    else:
        raise MissingRawColumn(spec.phase_column)

    t = np.arange(n_rows, dtype=np.float64) / spec.native_rate_hz
    return Episode(
        episode_id=meta.episode_id,
        source_id=spec.source_id,
        embodiment=meta.embodiment,
        task=meta.task,
        rate_hz=spec.native_rate_hz,
        t=t,
        channels=np.column_stack(cols),
        descriptors=tuple(descs),
        phase=phase,
    )


# ---------------------------------------------------------------------------
# adapter config files
# ---------------------------------------------------------------------------

def _parse_expand_values(value) -> list:
    if isinstance(value, str) and ".." in value:
        lo_s, hi_s = value.split("..", 1)
        return list(range(int(lo_s), int(hi_s) + 1))
    if isinstance(value, list):
        return value
    raise SchemaViolation(f"expand values must be 'lo..hi' or a list, got {value!r}")


def expand_signal_rows(record: Mapping) -> list[dict]:
    """Expand one config record into concrete signal rows.

    A record may carry ``expand: {var: lo..hi | [values], ...}``; all
    variables are zipped in parallel and substituted into ``raw``,
    ``canonical``, ``axis``, and ``notes`` via ``str.format``.  Records
    without ``expand`` pass through unchanged.
    """
    spec = dict(record)
    expand = spec.pop("expand", None)
    if expand is None:
        return [spec]
    names = list(expand.keys())
    columns = [_parse_expand_values(expand[k]) for k in names]
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise SchemaViolation(
            f"expand variables must have equal lengths, got {dict(zip(names, map(len, columns)))}"
        )
    rows = []
    for values in zip(*columns):
        binding = dict(zip(names, values))
        row = dict(spec)
        for key in ("raw", "canonical", "notes"):
            if key in row and isinstance(row[key], str):
                row[key] = row[key].format(**binding)
        if "axis" in row and isinstance(row["axis"], str):
            row["axis"] = int(row["axis"].format(**binding))
        rows.append(row)
    return rows


def _signal_from_row(row: Mapping) -> SignalSpec:
    role_name = row.get("role")
    role = None
    if role_name is not None:
        try:
            role = SignalRole(str(role_name))
        except ValueError:
            raise SchemaViolation(f"unknown role {role_name!r}") from None
    axis = row.get("axis")
    return SignalSpec(
        raw_name=str(row["raw"]),
        canonical_name=str(row["canonical"]),
        role=role,
        unit=str(row.get("unit", "")),
        axis=int(axis) if axis is not None else None,
        notes=str(row.get("notes", "")),
    )


@contextlib.contextmanager
def _reading(key: str):
    """Turn a malformed value met under *key* into SchemaViolation naming it."""
    try:
        yield
    except SchemaViolation as exc:
        raise SchemaViolation(f"{key}: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"{key}: {type(exc).__name__}: {exc}") from None


def adapter_from_dict(doc: Mapping) -> AdapterSpec:
    """The spec a parsed adapter document describes; a missing or malformed
    value raises SchemaViolation naming its key (a signal row by its index)."""
    if "signals" not in doc:
        raise SchemaViolation("adapter config has no 'signals' section")
    signals = []
    with _reading("signals"):
        records = list(doc["signals"])
    for i, record in enumerate(records):
        with _reading(f"signals[{i}]"):
            signals.extend(_signal_from_row(row) for row in expand_signal_rows(record))
    with _reading("source_id"):
        source_id = str(doc["source_id"])
    with _reading("native_rate_hz"):
        native_rate_hz = float(doc["native_rate_hz"])
    with _reading("absent_channels"):
        absent_channels = tuple(str(c) for c in doc.get("absent_channels", []) or ())
    with _reading("phase_column"):
        phase_column = doc.get("phase_column")
        if not (phase_column is None or isinstance(phase_column, str)):
            raise TypeError(f"expected a raw column name, got {phase_column!r}")
    return AdapterSpec(
        source_id=source_id,
        native_rate_hz=native_rate_hz,
        signals=tuple(signals),
        absent_channels=absent_channels,
        notes=str(doc.get("notes", "")),
        phase_column=phase_column,
    )


def load_adapter(path: Union[str, Path]) -> AdapterSpec:
    """Load an adapter spec from a YAML config file; a malformed spec raises
    SchemaViolation naming the file."""
    doc = load_yaml(Path(path).read_text(encoding="utf-8"), path)
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{path}: not a mapping")
    try:
        return adapter_from_dict(doc)
    except SchemaViolation as exc:
        raise SchemaViolation(f"{path}: {exc}") from None


BUILTIN_ADAPTER_IDS = (
    "ur3_lab",
    "kuka_kr10",
    "umich_cnc",
    "aursad",
    "voraus_ad",
    "isaac_ur5",
)


def builtin_adapter(source_id: str) -> AdapterSpec:
    """Load one of the six shipped adapters by source id."""
    if source_id not in BUILTIN_ADAPTER_IDS:
        raise SchemaViolation(
            f"unknown adapter {source_id!r}; built-ins: {', '.join(BUILTIN_ADAPTER_IDS)}"
        )
    ref = resources.files("sefc.adapters").joinpath(f"{source_id}.yaml")
    doc = load_yaml(ref.read_text(encoding="utf-8"), ref)
    return adapter_from_dict(doc)
