"""Domain-randomized synthetic pick-and-place episodes with fault injection.

The plant is a declared simplified model, not a physics engine: each joint
follows its setpoint through a critically damped second-order tracking law

    q_fb'' = wn^2 (q_sp - q_fb) - 2 wn q_fb'

propagated exactly per 1/60 s step (zero-order hold on the setpoint), and
the logged effort is a tracking term plus a payload gravity term

    effort_i = k_track (q_sp_i - q_fb_i) + g arm_i m_carried cos(q_fb_i)

with the payload attached between the grasp and release phases.  Critical
damping avoids overshoot artifacts that would confound fault separability.
TCP channels come from a fixed two-link planar forward-kinematics surrogate
over joints 0-1 (x, y from the linkage, constant z, yaw = q0 + q1); the
object's tracked position is perception telemetry (Feedback role) so it
receives spatial noise, while the domain-randomization draws themselves are
logged as noiseless Context constants.

Friction and cube-dimension draws are logged as Context channels but do not
enter the declared plant (no contact model is invented for them).

The fault types are those of ``schema.FAULT_TYPES``.  This module keeps only
the magnitude table of the eight it can inject (``INJECTABLE_FAULTS``).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional, Union

import numpy as np

from .codec import check_keys, load_yaml
from .errors import (
    InfeasibleProfile,
    MissingChannel,
    NumericalInstability,
    SchemaViolation,
    UnsupportedFault,
)
from .schema import FAULT_TYPES, ChannelDescriptor, Episode, SignalRole, phase_runs

N_JOINTS = 6
GRAVITY = 9.81
#: Effective per-joint moment arms (m) for the payload gravity term.
GRAVITY_ARM_M = (0.0, 0.45, 0.25, 0.10, 0.05, 0.02)
#: Per-joint tracking stiffness; natural frequency wn = sqrt(stiffness).
JOINT_STIFFNESS = (100.0,) * N_JOINTS
#: Tracking-torque gain (Nm per rad of setpoint error).
K_TRACK = 40.0
#: Gripper stiffness is the randomized proportional gain scaled down.
GRIPPER_STIFFNESS_SCALE = 1.0 / 100.0

VEL_CAP_RADPS = 3.0
ACC_CAP_RADPS2 = 12.0

#: Two-link planar surrogate for TCP channels (joints 0-1).
LINK_LENGTHS_M = (0.40, 0.40)
TCP_Z_M = 0.25

GRIPPER_OPEN_RAD = 0.0
GRIPPER_CLOSED_RAD = 0.7

PHASE_NAMES = (
    "approach",
    "above_pick",
    "descend_pick",
    "grasp",
    "lift",
    "transfer",
    "above_place",
    "descend_place",
    "release",
    "return",
)
PHASE_DURATIONS_S = (1.0, 0.8, 0.7, 0.5, 0.7, 1.5, 0.8, 0.7, 0.5, 1.3)

HOME_Q = (0.0, 0.7, 1.2, -0.4, 0.5, 0.0)
PICK_XY_M = (0.55, 0.15)
PLACE_XY_M = (0.35, -0.40)

# rng sub-streams, so twin generation shares base draws regardless of fault
_STREAM_DRAWS = 0
_STREAM_NOISE = 1
_STREAM_FAULT = 2


# ---------------------------------------------------------------------------
# configuration and per-episode draws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomizationConfig:
    """Domain-randomization ranges and the sensor-noise table.

    Checked at construction: every value must be finite, every ``*_range``
    needs lo <= hi, every ``sigma_*`` and both ``spawn_box_m`` sides must be
    >= 0 and ``sim_dt_s`` must be positive.  The first field that breaks its
    rule raises SchemaViolation reading ``<field> <rule>``.
    """

    mass_kg_range: tuple[float, float] = (0.10, 0.30)
    friction_range: tuple[float, float] = (0.30, 0.50)
    kp_grip_range: tuple[float, float] = (5000.0, 12000.0)
    sigma_pos_rad: float = 0.002
    sigma_vel_radps: float = 0.02
    sigma_effort: float = 0.1
    sigma_obj_xy_m: float = 0.002
    sigma_obj_z_m: float = 0.001
    spawn_box_m: tuple[float, float] = (0.08, 0.08)
    sim_dt_s: float = 1.0 / 60.0
    cube_width_m_range: tuple[float, float] = (0.03, 0.07)
    cube_depth_m_range: tuple[float, float] = (0.03, 0.07)
    cube_height_m_range: tuple[float, float] = (0.03, 0.07)

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value).all():
                raise SchemaViolation(f"{name} must be finite, got {value!r}")
            if name.endswith("_range") and value[0] > value[1]:
                raise SchemaViolation(f"{name} needs lo <= hi, got lo {value[0]} > hi {value[1]}")
            elif name.startswith("sigma_") and value < 0:
                raise SchemaViolation(f"{name} must be >= 0, got {value!r}")
        if self.sim_dt_s <= 0:
            raise SchemaViolation(f"sim_dt_s must be positive, got {self.sim_dt_s!r}")
        if min(self.spawn_box_m) < 0:
            raise SchemaViolation(f"spawn_box_m must be >= 0, got {self.spawn_box_m!r}")


#: The magnitudes of each injectable fault type, in draw order: each
#: ``draw(rng, runs)`` reads the fault substream and the episode's phase
#: runs, ``runs[phase] = (start, stop)``.
_FAULT_MAGNITUDES: dict[str, dict[str, Callable]] = {
    "gripper_activation_failure": {},
    "gripper_release_mid_motion": {
        "onset_step": lambda rng, runs: int(rng.integers(*runs["transfer"]))},
    "additional_axis_payload": {
        "joint": lambda rng, runs: int(rng.integers(1, 4)),   # joint 0: no moment arm
        "weight_kg": lambda rng, runs: float(rng.uniform(0.4, 1.2))},
    "collision_foam_spike": {
        "onset_step": lambda rng, runs: int(rng.integers(runs["transfer"][0],
                                                         runs["transfer"][1] - 15)),
        "duration_s": lambda *_: 0.2,
        "peak_nm": lambda *_: 0.3,
        "n_joints": lambda *_: 3},
    "unexpected_payload_weight": {"scale": lambda rng, runs: float(rng.uniform(1.5, 3.0))},
    "invalid_gripping_position": {"delay_steps": lambda rng, runs: int(rng.integers(10, 41))},
    "unstable_platform": {"freq_hz": lambda *_: 3.0, "amplitude_rad": lambda *_: 0.005},
    "payload_weight_misconfiguration": {
        "configured_scale": lambda rng, runs: float(rng.uniform(2.0, 4.0))},
}

#: Fault types with a signal-level injection under the declared plant.
INJECTABLE_FAULTS = frozenset(_FAULT_MAGNITUDES)


@dataclass(frozen=True)
class EpisodeParams:
    """Concrete per-episode draw, reproducible from the seed."""

    seed: int
    episode_id: str
    mass_kg: float
    friction: float
    kp_grip: float
    cube_dims_m: tuple[float, float, float]
    spawn_offset_m: tuple[float, float]
    fault: Optional[str]
    config: RandomizationConfig


def sample_params(
    seed: int, config: RandomizationConfig, fault: Optional[str], episode_id: str
) -> EpisodeParams:
    """Draw one episode's randomization values; deterministic in the seed.

    Base draws use a substream untouched by the fault, so the healthy twin
    (same seed, fault=None) gets identical values.  The fault's magnitudes
    are drawn by ``simulate_plant`` on a separate substream.
    """
    rng = np.random.default_rng([seed, _STREAM_DRAWS])
    mass = float(rng.uniform(*config.mass_kg_range))
    friction = float(rng.uniform(*config.friction_range))
    kp_grip = float(rng.uniform(*config.kp_grip_range))
    dims = tuple(
        float(rng.uniform(*r))
        for r in (config.cube_width_m_range, config.cube_depth_m_range,
                  config.cube_height_m_range)
    )
    half_x, half_y = config.spawn_box_m[0] / 2.0, config.spawn_box_m[1] / 2.0
    offset = (float(rng.uniform(-half_x, half_x)), float(rng.uniform(-half_y, half_y)))

    return EpisodeParams(
        seed=seed,
        episode_id=episode_id,
        mass_kg=mass,
        friction=friction,
        kp_grip=kp_grip,
        cube_dims_m=dims,
        spawn_offset_m=offset,
        fault=fault,
        config=config,
    )


def _fault_magnitudes(fault: str, traj: TrajectoryPlan, seed: int) -> dict:
    """*fault*'s magnitudes, each drawn in table order from the seed's fault
    substream over *traj*'s phase runs; a type without an injection raises.

    A draw that *traj* cannot hold raises SchemaViolation naming the fault
    and the key, so a coarse ``sim_dt_s`` never writes a mislabelled episode:
    the phase a draw reads must be long enough for its range, an integer
    magnitude (a step, a step count or a joint) lies in [1, n_steps) and a
    frequency (``*_hz``) stays below half the rate, where sampling aliases it.
    """
    if fault not in _FAULT_MAGNITUDES:
        raise UnsupportedFault(fault)
    rng, runs = np.random.default_rng([seed, _STREAM_FAULT]), traj.phase_runs()
    drawn = {}
    for key, draw in _FAULT_MAGNITUDES[fault].items():
        try:
            value = draw(rng, runs)
        except (KeyError, ValueError):   # the phase is missing or shorter than the range
            value = None
        if (value is None or isinstance(value, int) and not 0 < value < traj.n_steps
                or key.endswith("_hz") and not value < traj.rate_hz / 2):
            raise SchemaViolation(f"{fault}: {key} has no valid draw over "
                                  f"{traj.n_steps} steps at {traj.rate_hz:g} Hz")
        drawn[key] = value
    return drawn


# ---------------------------------------------------------------------------
# trajectory planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasePlan:
    """Exactly 10 (name, duration, per-joint waypoint) stages."""

    phases: tuple[tuple[str, float, tuple[float, ...]], ...]
    start_q: tuple[float, ...]

    def __post_init__(self):
        if len(self.phases) != 10:
            raise SchemaViolation(f"phase plan needs exactly 10 phases, got {len(self.phases)}")
        for name, duration, wp in self.phases:
            if duration <= 0:
                raise SchemaViolation(f"phase {name!r}: duration must be positive")
            if len(wp) != N_JOINTS:
                raise SchemaViolation(f"phase {name!r}: waypoint needs {N_JOINTS} joints")


@dataclass(frozen=True)
class TrajectoryPlan:
    """A phase plan sampled onto the simulation grid."""

    t: np.ndarray
    phase: np.ndarray
    setpoint_pos: np.ndarray   # T x 6
    setpoint_vel: np.ndarray
    setpoint_acc: np.ndarray
    gripper_pos: np.ndarray    # T
    rate_hz: float

    @property
    def n_steps(self) -> int:
        return self.t.shape[0]

    def phase_runs(self) -> dict[str, tuple[int, int]]:
        """First/one-past-last step index per phase label."""
        return {label: (start, stop) for label, start, stop in phase_runs(self.phase)}


def two_link_ik(x: float, y: float) -> tuple[float, float]:
    """Closed-form elbow-up IK of the planar surrogate linkage."""
    l1, l2 = LINK_LENGTHS_M
    r2 = x * x + y * y
    c1 = (r2 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    if not -1.0 <= c1 <= 1.0:
        raise InfeasibleProfile(f"target ({x:.3f}, {y:.3f}) outside linkage reach")
    q1 = math.acos(c1)
    q0 = math.atan2(y, x) - math.atan2(l2 * math.sin(q1), l1 + l2 * math.cos(q1))
    return q0, q1


def two_link_fk(q0: np.ndarray, q1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    l1, l2 = LINK_LENGTHS_M
    x = l1 * np.cos(q0) + l2 * np.cos(q0 + q1)
    y = l1 * np.sin(q0) + l2 * np.sin(q0 + q1)
    return x, y


def build_phase_plan(spawn_offset_m: tuple[float, float]) -> PhasePlan:
    """Nominal 10-phase plan; the pick waypoints follow the spawn offset."""
    pick_x = PICK_XY_M[0] + spawn_offset_m[0]
    pick_y = PICK_XY_M[1] + spawn_offset_m[1]
    q0p, q1p = two_link_ik(pick_x, pick_y)
    q0l, q1l = two_link_ik(*PLACE_XY_M)

    high = (1.0, -0.4, 0.5, 0.0)      # joints 2..5, carry height
    low = (0.55, -0.2, 0.5, 0.0)      # joints 2..5, at the object
    high_pl = (1.0, -0.4, 0.5, 0.3)
    low_pl = (0.55, -0.2, 0.5, 0.3)

    waypoints = (   # one per phase of PHASE_NAMES
        (q0p, q1p) + high,
        (q0p, q1p, 0.9) + high[1:],
        (q0p, q1p) + low,
        (q0p, q1p) + low,
        (q0p, q1p) + high,
        (q0l, q1l) + high_pl,
        (q0l, q1l, 0.9) + high_pl[1:],
        (q0l, q1l) + low_pl,
        (q0l, q1l) + low_pl,
        HOME_Q,
    )
    phases = tuple(zip(PHASE_NAMES, PHASE_DURATIONS_S, waypoints, strict=True))
    return PhasePlan(phases=phases, start_q=HOME_Q)


def _trapezoid_pos(tau: np.ndarray, duration: float, p0: float, p1: float) -> np.ndarray:
    """Closed-form rest-to-rest trapezoid (1/4 accel, 1/2 cruise, 1/4 decel)."""
    d = p1 - p0
    if d == 0.0:
        return np.full_like(tau, p0)
    ta = duration / 4.0
    vp = d / (duration - ta)
    a = vp / ta
    out = np.empty_like(tau)
    rise = tau < ta
    cruise = (tau >= ta) & (tau < duration - ta)
    fall = ~rise & ~cruise
    out[rise] = p0 + 0.5 * a * tau[rise] ** 2
    out[cruise] = p0 + 0.5 * a * ta * ta + vp * (tau[cruise] - ta)
    tr = duration - tau[fall]
    out[fall] = p1 - 0.5 * a * tr * tr
    return out


def _check_feasible(name: str, duration: float, displacement: float) -> None:
    if displacement == 0.0:
        return
    vp = abs(displacement) / (duration - duration / 4.0)
    a = vp / (duration / 4.0)
    if vp > VEL_CAP_RADPS:
        raise InfeasibleProfile(
            f"phase {name!r}: peak velocity {vp:.3f} exceeds cap {VEL_CAP_RADPS}"
        )
    if a > ACC_CAP_RADPS2:
        raise InfeasibleProfile(
            f"phase {name!r}: acceleration {a:.3f} exceeds cap {ACC_CAP_RADPS2}"
        )


def profiles_from_plan(plan: PhasePlan, rate_hz: float) -> TrajectoryPlan:
    """Sample per-joint setpoint profiles from a phase plan.

    Positions are the closed-form trapezoids sampled on the grid;
    setpoint_vel is defined as the exact forward difference of
    setpoint_pos (and setpoint_acc of setpoint_vel), so discrete
    consistency is exact by construction.  A phase too short to hold a step
    at this rate raises SchemaViolation naming the phase and ``sim_dt_s``.
    """
    dt = 1.0 / rate_hz
    total = sum(d for _, d, _ in plan.phases)
    n_steps = int(round(total * rate_hz)) + 1
    t = np.arange(n_steps) * dt

    pos = np.empty((n_steps, N_JOINTS))
    phase = np.empty(n_steps, dtype=object)
    grip = np.empty(n_steps)

    phase_start = 0.0
    prev_wp = np.asarray(plan.start_q, dtype=np.float64)
    grip_state = GRIPPER_OPEN_RAD
    for phase_idx, (name, duration, wp) in enumerate(plan.phases):
        wp = np.asarray(wp, dtype=np.float64)
        lo = phase_start - 1e-9
        hi = phase_start + duration - 1e-9
        is_last = phase_idx == len(plan.phases) - 1
        mask = (t >= lo) if is_last else (t >= lo) & (t < hi)
        if not mask.any():
            raise SchemaViolation(f"phase {name!r} gets no step at sim_dt_s {dt:g}")
        tau = t[mask] - phase_start
        for j in range(N_JOINTS):
            _check_feasible(name, duration, float(wp[j] - prev_wp[j]))
            pos[mask, j] = _trapezoid_pos(tau, duration, float(prev_wp[j]), float(wp[j]))
        if name == "grasp":
            grip[mask] = _trapezoid_pos(tau, duration, grip_state, GRIPPER_CLOSED_RAD)
            grip_state = GRIPPER_CLOSED_RAD
        elif name == "release":
            grip[mask] = _trapezoid_pos(tau, duration, grip_state, GRIPPER_OPEN_RAD)
            grip_state = GRIPPER_OPEN_RAD
        else:
            grip[mask] = grip_state
        phase[mask] = name
        phase_start += duration
        prev_wp = wp

    vel = np.empty_like(pos)
    vel[:-1] = (pos[1:] - pos[:-1]) * rate_hz
    vel[-1] = vel[-2]
    acc = np.empty_like(pos)
    acc[:-1] = (vel[1:] - vel[:-1]) * rate_hz
    acc[-1] = acc[-2]

    return TrajectoryPlan(
        t=t,
        phase=np.asarray(phase, dtype=str),
        setpoint_pos=pos,
        setpoint_vel=vel,
        setpoint_acc=acc,
        gripper_pos=grip,
        rate_hz=rate_hz,
    )


def plan_trajectory(params: EpisodeParams) -> TrajectoryPlan:
    """Build the standard 10-phase plan for one episode's draw."""
    plan = build_phase_plan(params.spawn_offset_m)
    return profiles_from_plan(plan, 1.0 / params.config.sim_dt_s)


# ---------------------------------------------------------------------------
# plant simulation
# ---------------------------------------------------------------------------

#: Largest joint position the plant may reach, checked per step by the
#: tracking law and once more after the additive faults.
_Q_BOUND_RAD = 8.0 * math.pi
#: Largest motor torque the plant may report, checked after the additive
#: faults: healthy efforts stay under 15 N·m and a UR5 joint is rated 150.
_EFFORT_BOUND_NM = 1000.0


def _track_second_order(
    setpoint: np.ndarray,
    wn: float,
    dt: float,
    disturbance: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate the critically damped tracking law exactly per step.

    With the setpoint (and optional disturbance) held constant over a step,
    the error dynamics e'' = -wn^2 e - 2 wn e' + d have the closed-form
    solution (C1 + C2 tau) exp(-wn tau) about the shifted equilibrium
    d/wn^2, which is evaluated directly; the integration is exact, not an
    Euler scheme.

    The per-step formulas run on Python floats, and their float evaluation
    order is the contract: each operation rounds as the same float64
    operation does in numpy, so reordering any of them changes the bits of
    every synthetic episode.
    """
    n = setpoint.shape[0]
    sp = setpoint.tolist()
    dist = [0.0] * n if disturbance is None else disturbance.tolist()
    q = [0.0] * n
    v = [0.0] * n
    a = [0.0] * n
    q[0] = sp[0]
    decay = math.exp(-wn * dt)
    for k in range(n - 1):
        d = dist[k]
        a[k] = wn * wn * (sp[k] - q[k]) - 2.0 * wn * v[k] + d
        e = q[k] - sp[k] - d / (wn * wn)
        edot = v[k]
        c2 = edot + wn * e
        e_next = (e + c2 * dt) * decay
        edot_next = (edot - wn * c2 * dt) * decay
        q[k + 1] = sp[k] + d / (wn * wn) + e_next
        v[k + 1] = edot_next
        if abs(q[k + 1]) > _Q_BOUND_RAD or abs(v[k + 1]) > 100.0:
            raise NumericalInstability(
                f"state out of bounds at step {k + 1}: q={q[k + 1]:.3f}, v={v[k + 1]:.3f}"
            )
    a[n - 1] = wn * wn * (sp[n - 1] - q[n - 1]) - 2.0 * wn * v[n - 1] + dist[n - 1]
    return np.array(q), np.array(v), np.array(a)


class _Block(NamedTuple):
    name: str
    role: SignalRole
    units: tuple[str, ...]         # one per column
    sigmas: tuple[str, ...] = ()   # RandomizationConfig sigma field per column; () is noiseless

    def axes(self) -> list[tuple[str, Optional[int]]]:
        """(channel name, axis) per column; a one-column block has no axis."""
        if len(self.units) == 1:
            return [(self.name, None)]
        return [(f"{self.name}_{i}", i) for i in range(len(self.units))]


_J = N_JOINTS
#: The synthetic channel layout, in column order: `simulate_plant` fills one
#: array per block, and the noisy columns draw in this order.
_SYNTH_LAYOUT = (
    _Block("setpoint_pos", SignalRole.SETPOINT, ("rad",) * _J),
    _Block("setpoint_vel", SignalRole.SETPOINT, ("rad/s",) * _J),
    _Block("setpoint_acc", SignalRole.SETPOINT, ("rad/s^2",) * _J),
    _Block("setpoint_gripper_pos", SignalRole.SETPOINT, ("rad",)),
    _Block("feedback_pos", SignalRole.FEEDBACK, ("rad",) * _J, ("sigma_pos_rad",) * _J),
    _Block("feedback_vel", SignalRole.FEEDBACK, ("rad/s",) * _J, ("sigma_vel_radps",) * _J),
    _Block("feedback_acc", SignalRole.FEEDBACK, ("rad/s^2",) * _J),
    _Block("feedback_gripper_pos", SignalRole.FEEDBACK, ("rad",)),
    _Block("effort_motor_torque", SignalRole.EFFORT, ("Nm",) * _J, ("sigma_effort",) * _J),
    _Block("feedback_pos_cartesian", SignalRole.FEEDBACK, ("m", "m", "m", "rad", "rad", "rad")),
    _Block("feedback_obj_pos", SignalRole.FEEDBACK, ("m", "m", "m"),
           ("sigma_obj_xy_m", "sigma_obj_xy_m", "sigma_obj_z_m")),
    _Block("ctx_gripper_attached", SignalRole.CONTEXT, ("bool",)),
    _Block("ctx_cube_mass", SignalRole.CONTEXT, ("kg",)),
    _Block("ctx_cube_friction", SignalRole.CONTEXT, ("-",)),
    _Block("ctx_cube_width", SignalRole.CONTEXT, ("m",)),
    _Block("ctx_cube_depth", SignalRole.CONTEXT, ("m",)),
    _Block("ctx_cube_height", SignalRole.CONTEXT, ("m",)),
)

SYNTH_DESCRIPTORS = tuple(
    ChannelDescriptor(name, b.role, unit, axis)
    for b in _SYNTH_LAYOUT for (name, axis), unit in zip(b.axes(), b.units)
)
#: (channel name, sigma field) of every noisy channel, in column order.
_NOISY_CHANNELS = tuple(
    (name, sigma) for b in _SYNTH_LAYOUT for (name, _), sigma in zip(b.axes(), b.sigmas)
)
SYNTH_SOURCE_ID = "synth_ur5"


def _add_fault_term(ftype: str, block: np.ndarray, term: np.ndarray) -> None:
    """Add an additive fault's *term* to *block* in place; a term too small to
    change any value of it would label a healthy episode faulty, so it raises."""
    total = block + term
    if np.array_equal(total, block):
        raise SchemaViolation(f"{ftype}: its magnitudes are too small to change the episode")
    block[...] = total


def simulate_plant(params: EpisodeParams) -> Episode:
    """Simulate a noiseless episode with the fault in *params* applied.

    The fault's magnitudes are ``_fault_magnitudes`` over
    ``plan_trajectory(params)``.  Most faults change plant or
    controller terms; the platform sinusoid and the foam pulse are added to
    the joint feedback and effort after the TCP and object channels are
    computed, so those stay unperturbed.  The joint-position and effort
    bounds are checked after them, and an additive fault that changes
    nothing is refused.
    """
    traj = plan_trajectory(params)
    dt = params.config.sim_dt_s
    n = traj.n_steps
    runs = traj.phase_runs()
    ftype = params.fault
    fp = {} if ftype is None else _fault_magnitudes(ftype, traj, params.seed)

    # the gripper carries the payload over [attach, detach), from the lift to
    # the release, and its feedback tracks a command that faults may alter
    attach, detach = runs["lift"][0], runs["release"][0]
    grip_cmd = traj.gripper_pos
    true_mass = params.mass_kg
    if ftype == "gripper_activation_failure":
        attach = detach   # never attached
        grip_cmd = np.full(n, GRIPPER_OPEN_RAD)
    elif ftype == "invalid_gripping_position":
        delay = fp["delay_steps"]
        attach = min(attach + delay, detach)
        grip_cmd = np.concatenate([np.full(delay, grip_cmd[0]), grip_cmd[:-delay]])
    elif ftype == "gripper_release_mid_motion":
        detach = fp["onset_step"]   # drawn in the transfer phase, so in [attach, release)
        grip_cmd = np.concatenate([grip_cmd[:detach], np.full(n - detach, GRIPPER_OPEN_RAD)])
    elif ftype == "unexpected_payload_weight":
        true_mass = params.mass_kg * fp["scale"]
    carry = np.zeros(n, dtype=bool)
    carry[attach:detach] = True
    carried_mass = np.where(carry, true_mass, 0.0)
    wn_grip = math.sqrt(params.kp_grip * GRIPPER_STIFFNESS_SCALE)
    grip_fb, _, _ = _track_second_order(grip_cmd, wn_grip, dt)

    # controller's configured payload mass (feedforward side of the effort)
    configured_mass = carried_mass
    disturbance_scale = None
    if ftype == "payload_weight_misconfiguration":
        configured_mass = carried_mass * fp["configured_scale"]
        disturbance_scale = carried_mass - configured_mass  # uncompensated kg

    arms = np.asarray(GRAVITY_ARM_M)
    q_fb = np.empty((n, N_JOINTS))
    v_fb = np.empty((n, N_JOINTS))
    a_fb = np.empty((n, N_JOINTS))
    for j in range(N_JOINTS):
        wn = math.sqrt(JOINT_STIFFNESS[j])
        dist = None
        if disturbance_scale is not None and arms[j] > 0:
            # uncompensated gravity enters the tracking dynamics; the cos
            # term is evaluated on the setpoint path (declared simplification
            # that keeps the per-step ZOH propagation exact)
            dist = GRAVITY * arms[j] * disturbance_scale * np.cos(traj.setpoint_pos[:, j])
        q_fb[:, j], v_fb[:, j], a_fb[:, j] = _track_second_order(
            traj.setpoint_pos[:, j], wn, dt, disturbance=dist
        )

    effort = K_TRACK * (traj.setpoint_pos - q_fb) + (
        GRAVITY * arms[None, :] * configured_mass[:, None] * np.cos(q_fb)
    )
    if ftype == "additional_axis_payload":
        j = fp["joint"]
        moment = fp["weight_kg"] * GRAVITY * arms[j] * np.cos(q_fb[:, j])
        _add_fault_term(ftype, effort[:, j], moment)

    # TCP surrogate and object perception channels: the object rides at the
    # TCP while carried, then rests on its base where it was let go
    tcp_x, tcp_y = two_link_fk(q_fb[:, 0], q_fb[:, 1])
    tcp = np.column_stack([
        tcp_x, tcp_y, np.full(n, TCP_Z_M),
        np.zeros(n), np.zeros(n), q_fb[:, 0] + q_fb[:, 1],
    ])
    obj = np.tile([PICK_XY_M[0] + params.spawn_offset_m[0],
                   PICK_XY_M[1] + params.spawn_offset_m[1],
                   params.cube_dims_m[2] / 2.0], (n, 1))
    if attach < detach:
        obj[attach:detach] = tcp[attach:detach, :3]
        obj[detach:, :2] = tcp[detach - 1, :2]

    # purely additive faults, applied on top of the simulated signals
    if ftype == "unstable_platform":
        sway = fp["amplitude_rad"] * np.sin(2.0 * math.pi * fp["freq_hz"] * traj.t)
        _add_fault_term(ftype, q_fb, sway[:, None])
    if ftype == "collision_foam_spike":
        onset = fp["onset_step"]
        n_pulse = round(fp["duration_s"] / dt)
        if n_pulse < 3:   # a half-sine over fewer steps samples only its zero ends
            raise SchemaViolation(f"{ftype}: duration_s spans {n_pulse} steps, fewer than 3")
        end = min(onset + n_pulse, n)
        pulse = fp["peak_nm"] * np.sin(math.pi * np.arange(end - onset) / (n_pulse - 1))
        _add_fault_term(ftype, effort[onset:end, :fp["n_joints"]], pulse[:, None])
    episode = f"{params.episode_id} ({ftype or 'healthy'})"
    if not np.abs(q_fb).max() <= _Q_BOUND_RAD:
        raise NumericalInstability(
            f"{episode}: joint feedback beyond |q| <= {_Q_BOUND_RAD:.4g} rad")
    if not np.abs(effort).max() <= _EFFORT_BOUND_NM:
        raise NumericalInstability(f"{episode}: effort beyond |tau| <= {_EFFORT_BOUND_NM:g} Nm")

    blocks = {
        "setpoint_pos": traj.setpoint_pos, "setpoint_vel": traj.setpoint_vel,
        "setpoint_acc": traj.setpoint_acc, "setpoint_gripper_pos": traj.gripper_pos,
        "feedback_pos": q_fb, "feedback_vel": v_fb, "feedback_acc": a_fb,
        "feedback_gripper_pos": grip_fb, "effort_motor_torque": effort,
        "feedback_pos_cartesian": tcp, "feedback_obj_pos": obj, "ctx_gripper_attached": carry,
        "ctx_cube_mass": np.full(n, params.mass_kg),
        "ctx_cube_friction": np.full(n, params.friction),
        "ctx_cube_width": np.full(n, params.cube_dims_m[0]),
        "ctx_cube_depth": np.full(n, params.cube_dims_m[1]),
        "ctx_cube_height": np.full(n, params.cube_dims_m[2]),
    }
    channels = np.column_stack([blocks[b.name] for b in _SYNTH_LAYOUT])

    return Episode(
        episode_id=params.episode_id,
        source_id=SYNTH_SOURCE_ID,
        embodiment="ur5",
        task="pick_and_place",
        rate_hz=traj.rate_hz,
        t=traj.t,
        channels=channels,
        descriptors=SYNTH_DESCRIPTORS,
        phase=traj.phase,
        fault=ftype,
    )


def add_sensor_noise(ep: Episode, params: EpisodeParams) -> Episode:
    """Add the per-channel Gaussian sensor noise of the synthetic layout;
    deterministic in the seed.

    Setpoint and Context channels stay noiseless (commands and scene
    constants, not telemetry).  Standard-normal draws are consumed in the
    layout's column order regardless of the sigma values, so twins share
    identical noise on every channel.  An episode without one of the noisy
    channels raises MissingChannel.
    """
    rng = np.random.default_rng([params.seed, _STREAM_NOISE])
    channels = np.array(ep.channels)
    for name, sigma_field in _NOISY_CHANNELS:
        if not ep.has_channel(name):
            raise MissingChannel(name)
        draw = rng.standard_normal(ep.n_steps)
        sigma = getattr(params.config, sigma_field)
        if sigma > 0:
            channels[:, ep.channel_index(name)] += sigma * draw
    return ep.replace(channels=channels)


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------

def generate_episode(
    seed: int,
    config: RandomizationConfig = RandomizationConfig(),
    *,
    fault: Optional[str],
    episode_id: str,
    noise: bool = True,
) -> Episode:
    params = sample_params(seed, config, fault, episode_id)
    ep = simulate_plant(params)
    if noise:
        ep = add_sensor_noise(ep, params)
    return ep


def corpus_plan(
    n_healthy: int, fault_mix: Mapping[str, int], seed0: int
) -> list[tuple[int, Optional[str], str]]:
    """``(seed, fault, episode_id)`` of each episode of a corpus, in corpus order.

    Healthy episodes come first, then each fault type of *fault_mix* in
    sorted order.  Each faulty episode is followed by its healthy twin, which
    shares its seed (hence all randomization draws and noise) and carries the
    primary id plus a ``_twin`` suffix.  The first fault type in sorted order
    without a signal-level injection raises: SchemaViolation when it is not
    in ``schema.FAULT_TYPES``, UnsupportedFault when it is.
    """
    if n_healthy < 0 or any(c < 0 for c in fault_mix.values()):
        raise SchemaViolation("episode counts must be >= 0")
    for fault_type in sorted(fault_mix.keys() - INJECTABLE_FAULTS):
        if fault_type not in FAULT_TYPES:
            raise SchemaViolation(f"unknown fault type {fault_type!r}")
        raise UnsupportedFault(fault_type)
    plan = [(seed0 + idx, None, f"ep_{idx:05d}") for idx in range(n_healthy)]
    idx = n_healthy
    for fault_type in sorted(fault_mix):
        for _ in range(fault_mix[fault_type]):
            primary_id = f"ep_{idx:05d}"
            plan.append((seed0 + idx, fault_type, primary_id))
            plan.append((seed0 + idx, None, f"{primary_id}_twin"))
            idx += 1
    return plan


def generate_corpus(n_healthy: int, fault_mix: Mapping[str, int], seed0: int) -> list[Episode]:
    """Generate the noisy, default-randomization episodes of ``corpus_plan``:
    each faulty episode gets a healthy twin."""
    return [generate_episode(seed, fault=fault, episode_id=episode_id)
            for seed, fault, episode_id in corpus_plan(n_healthy, fault_mix, seed0)]


# ---------------------------------------------------------------------------
# generation config files
# ---------------------------------------------------------------------------

def load_generation_config(path: Optional[Union[str, Path]]) -> dict:
    """Load a generation config (ranges, counts, fault mix, seed) from YAML; None reads ``{}``.

    Any other top-level key raises SchemaViolation naming it."""
    doc = (load_yaml(Path(path).read_text(encoding="utf-8"), path) if path else None) or {}
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{path}: not a mapping")
    try:
        check_keys(doc, ("randomization", "n_healthy", "fault_mix", "seed"))
    except SchemaViolation as exc:
        raise SchemaViolation(f"{path}: {exc}") from None
    randomization = doc.get("randomization") or {}
    if not isinstance(randomization, dict):
        raise SchemaViolation(f"{path}: randomization must be a mapping of field to value")
    defaults = vars(RandomizationConfig())
    overrides = {}
    for key, value in randomization.items():
        if key not in defaults:
            raise SchemaViolation(f"{path}: unknown randomization field {key!r}")
        where, default = f"{path}: randomization.{key}", defaults[key]
        if not isinstance(default, tuple):
            overrides[key] = _float(value, where)
        elif isinstance(value, list) and len(value) == len(default):
            overrides[key] = tuple(_float(v, where) for v in value)
        else:
            raise SchemaViolation(f"{where} must be a list of {len(default)} numbers, got {value!r}")
    try:
        config = RandomizationConfig(**overrides)
    except SchemaViolation as exc:
        raise SchemaViolation(f"{path}: randomization.{exc}") from None
    fault_mix = doc.get("fault_mix") or {}
    if not isinstance(fault_mix, dict):
        raise SchemaViolation(f"{path}: fault_mix must be a mapping of fault type to count")
    return {
        "config": config,
        "n_healthy": _non_negative_int(doc.get("n_healthy", 10), path, "n_healthy"),
        "fault_mix": {
            str(k): _non_negative_int(v, path, f"fault_mix.{k}") for k, v in fault_mix.items()
        },
        "seed": _non_negative_int(doc.get("seed", 0), path, "seed"),
    }


def _non_negative_int(value, path: Union[str, Path], key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaViolation(f"{path}: {key} must be a non-negative integer, got {value!r}")
    return value


def _float(value, where: str) -> float:
    """*value* as a float; text counts, as YAML reads ``1e-3`` as a string."""
    with contextlib.suppress(TypeError, ValueError):
        if type(value) is not bool:
            return float(value)
    raise SchemaViolation(f"{where} must be a number, got {value!r}")
