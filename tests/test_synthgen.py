import dataclasses
import hashlib
import math

import numpy as np
import pytest

from sefc import synthgen
from sefc.errors import (
    InfeasibleProfile,
    MissingChannel,
    NumericalInstability,
    SchemaViolation,
    UnsupportedFault,
)
from sefc.ingest import encode_phase_rle
from sefc.schema import FAULT_TYPES, SignalRole
from sefc.synthgen import (
    GRAVITY,
    GRAVITY_ARM_M,
    INJECTABLE_FAULTS,
    K_TRACK,
    PHASE_NAMES,
    EpisodeParams,
    PhasePlan,
    RandomizationConfig,
    build_phase_plan,
    generate_corpus,
    generate_episode,
    load_generation_config,
    plan_trajectory,
    profiles_from_plan,
    sample_params,
    simulate_plant,
    two_link_ik,
)


def reference_track_second_order(setpoint, wn, dt, disturbance=None):
    """The tracking law on numpy scalars read from and written to float64
    arrays: the per-step formulas of `_track_second_order`, in its order."""
    n = setpoint.shape[0]
    q = np.empty(n)
    v = np.empty(n)
    a = np.empty(n)
    q[0] = setpoint[0]
    v[0] = 0.0
    decay = math.exp(-wn * dt)
    for k in range(n - 1):
        d = 0.0 if disturbance is None else disturbance[k]
        a[k] = wn * wn * (setpoint[k] - q[k]) - 2.0 * wn * v[k] + d
        e = q[k] - setpoint[k] - d / (wn * wn)
        edot = v[k]
        c2 = edot + wn * e
        e_next = (e + c2 * dt) * decay
        edot_next = (edot - wn * c2 * dt) * decay
        q[k + 1] = setpoint[k] + d / (wn * wn) + e_next
        v[k + 1] = edot_next
        if abs(q[k + 1]) > synthgen._Q_BOUND_RAD or abs(v[k + 1]) > 100.0:
            raise NumericalInstability(
                f"state out of bounds at step {k + 1}: q={q[k + 1]:.3f}, v={v[k + 1]:.3f}"
            )
    d_last = 0.0 if disturbance is None else disturbance[n - 1]
    a[n - 1] = wn * wn * (setpoint[n - 1] - q[n - 1]) - 2.0 * wn * v[n - 1] + d_last
    return q, v, a


def _draw(seed, fault=None):
    """``sample_params`` under the default randomization, as ``generate_corpus`` draws."""
    return sample_params(seed, RandomizationConfig(), fault, f"ep_{seed}")


def _tracking_cases():
    """(setpoint, wn, disturbance) cases the plant runs, and one it may."""
    params = _draw(3)
    traj = plan_trajectory(params)
    wn = math.sqrt(synthgen.JOINT_STIFFNESS[0])
    sp = traj.setpoint_pos
    # uncompensated gravity of a misconfigured payload, as simulate_plant
    # builds it: the carried mass times (1 - configured_scale)
    runs = traj.phase_runs()
    carried = np.zeros(traj.n_steps)
    carried[runs["lift"][0]:runs["release"][0]] = params.mass_kg
    uncompensated = carried - carried * 3.0
    cases = {f"joint_{j}": (sp[:, j], wn, None) for j in range(sp.shape[1])}
    for j in range(sp.shape[1]):
        if GRAVITY_ARM_M[j] > 0:
            dist = GRAVITY * GRAVITY_ARM_M[j] * uncompensated * np.cos(sp[:, j])
            cases[f"misconfigured_payload_{j}"] = (sp[:, j], wn, dist)
    cases["gripper"] = (
        traj.gripper_pos, math.sqrt(params.kp_grip * synthgen.GRIPPER_STIFFNESS_SCALE), None)
    cases["nan_setpoint"] = (np.where(np.arange(traj.n_steps) == 40, np.nan, sp[:, 0]),
                             wn, None)
    return cases


TRACKING_CASES = _tracking_cases()


class TestTrackingLaw:
    @pytest.mark.parametrize("case", sorted(TRACKING_CASES))
    def test_bit_identical_to_numpy_scalar_reference(self, case):
        setpoint, wn, dist = TRACKING_CASES[case]
        dt = RandomizationConfig().sim_dt_s
        got = synthgen._track_second_order(setpoint, wn, dt, disturbance=dist)
        want = reference_track_second_order(setpoint, wn, dt, disturbance=dist)
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and g.shape == w.shape
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))

    def test_instability_at_the_same_step_with_the_same_message(self):
        # a disturbance that drives the joint past its position bound
        n, wn, dt = 200, 10.0, RandomizationConfig().sim_dt_s
        setpoint = np.zeros(n)
        dist = np.full(n, 3000.0)
        with pytest.raises(NumericalInstability) as want:
            reference_track_second_order(setpoint, wn, dt, disturbance=dist)
        with pytest.raises(NumericalInstability) as got:
            synthgen._track_second_order(setpoint, wn, dt, disturbance=dist)
        assert str(got.value) == str(want.value)
        assert "at step" in str(got.value)


class TestSampleParams:
    def test_draws_within_ranges(self):
        cfg = RandomizationConfig()
        for seed in range(25):
            p = sample_params(seed, cfg, None, f"ep_{seed}")
            assert cfg.mass_kg_range[0] <= p.mass_kg <= cfg.mass_kg_range[1]
            assert cfg.friction_range[0] <= p.friction <= cfg.friction_range[1]
            assert cfg.kp_grip_range[0] <= p.kp_grip <= cfg.kp_grip_range[1]
            assert abs(p.spawn_offset_m[0]) <= cfg.spawn_box_m[0] / 2
            assert abs(p.spawn_offset_m[1]) <= cfg.spawn_box_m[1] / 2

    def test_same_seed_identical(self):
        a = _draw(42, "collision_foam_spike")
        b = _draw(42, "collision_foam_spike")
        assert a == b

    def test_friction_monte_carlo(self):
        # 10k uniform draws: bounds respected, mean near the midpoint
        draws = np.array([_draw(s).friction for s in range(10_000)])
        assert draws.min() >= 0.30 and draws.max() <= 0.50
        assert abs(draws.mean() - 0.40) < 0.01

    def test_twin_base_draws_unaffected_by_fault(self):
        faulty = _draw(7, "additional_axis_payload")
        twin = _draw(7)
        assert dataclasses.replace(faulty, fault=None) == twin
        assert faulty.mass_kg == twin.mass_kg

    def test_invalid_range_names_field(self):
        with pytest.raises(SchemaViolation, match="mass_kg_range"):
            RandomizationConfig(mass_kg_range=(0.5, 0.1))

    @pytest.mark.parametrize("field,value", [
        ("sim_dt_s", float("nan")), ("sigma_effort", float("inf")),
        ("mass_kg_range", (0.1, float("inf"))), ("spawn_box_m", (float("nan"), 0.1)),
    ])
    def test_non_finite_value_names_field(self, field, value):
        with pytest.raises(SchemaViolation, match=f"^{field} must be finite, got "):
            RandomizationConfig(**{field: value})

    def test_unsupported_fault(self):
        with pytest.raises(UnsupportedFault):
            generate_episode(0, fault="damaged_screw_thread", episode_id="ep_0")


class TestConfigFields:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RandomizationConfig)])
    def test_every_field_changes_a_noisy_episode(self, noisy_episode, name):
        default = getattr(RandomizationConfig(), name)
        scaled = (tuple(v * 1.25 for v in default) if isinstance(default, tuple)
                  else default * 1.25)
        cfg = dataclasses.replace(RandomizationConfig(), **{name: scaled})
        ep = generate_episode(1234, cfg, episode_id="noisy", fault=None)
        same = (ep.t.shape == noisy_episode.t.shape
                and np.array_equal(ep.t, noisy_episode.t)
                and np.array_equal(ep.channels, noisy_episode.channels))
        assert not same, f"{name} has no effect on generate_episode"


class TestTrajectory:
    def test_standard_plan_shape(self):
        traj = plan_trajectory(_draw(3))
        assert list(traj.phase_runs()) == list(PHASE_NAMES)
        assert traj.n_steps == 511
        runs = encode_phase_rle(traj.phase)
        assert len(runs) == 10

    def test_zero_displacement_phase_rests(self):
        traj = plan_trajectory(_draw(3))
        lo, hi = traj.phase_runs()["grasp"]
        # interior of the dwell phase: the last step's forward difference
        # already looks into the next (moving) phase
        assert np.all(traj.setpoint_vel[lo:hi - 1] == 0.0)
        assert np.all(traj.setpoint_acc[lo:hi - 2] == 0.0)

    def test_quarter_turn_integrates_back(self):
        # one phase moving joint 0 by pi/2; discrete integration telescopes
        wp0 = (0.0,) * 6
        wp1 = (math.pi / 2, 0.0, 0.0, 0.0, 0.0, 0.0)
        phases = [("approach", 1.0, wp1)] + [
            (name, 0.5, wp1) for name in PHASE_NAMES[1:]
        ]
        plan = PhasePlan(tuple(phases), start_q=wp0)
        traj = profiles_from_plan(plan, rate_hz=60.0)
        dt = 1.0 / 60.0
        integrated = traj.setpoint_pos[0, 0] + traj.setpoint_vel[:-1, 0].sum() * dt
        assert abs(integrated - traj.setpoint_pos[-1, 0]) <= 1e-9
        assert abs(traj.setpoint_pos[-1, 0] - math.pi / 2) <= 1e-9

    def test_discrete_consistency_everywhere(self):
        traj = plan_trajectory(_draw(11))
        dpos = (traj.setpoint_pos[1:] - traj.setpoint_pos[:-1]) * traj.rate_hz
        assert np.abs(dpos - traj.setpoint_vel[:-1]).max() <= 1e-9
        dvel = (traj.setpoint_vel[1:] - traj.setpoint_vel[:-1]) * traj.rate_hz
        assert np.abs(dvel - traj.setpoint_acc[:-1]).max() <= 1e-9

    def test_spawn_offset_shifts_pick_waypoint(self):
        nominal = build_phase_plan((0.0, 0.0))
        shifted = build_phase_plan((0.04, 0.04))
        q0, q1 = two_link_ik(
            synthgen.PICK_XY_M[0] + 0.04, synthgen.PICK_XY_M[1] + 0.04
        )
        pick_wp = dict((name, wp) for name, _, wp in shifted.phases)["descend_pick"]
        assert pick_wp[0] == pytest.approx(q0, abs=1e-12)
        assert pick_wp[1] == pytest.approx(q1, abs=1e-12)
        nominal_wp = dict((name, wp) for name, _, wp in nominal.phases)["descend_pick"]
        assert pick_wp[0] != nominal_wp[0]
        # place waypoints are independent of the spawn draw
        assert dict((n, w) for n, _, w in shifted.phases)["release"] == \
            dict((n, w) for n, _, w in nominal.phases)["release"]

    def test_infeasible_profile(self):
        phases = [("approach", 0.05, (math.pi, 0, 0, 0, 0, 0))] + [
            (name, 0.5, (math.pi, 0, 0, 0, 0, 0)) for name in PHASE_NAMES[1:]
        ]
        plan = PhasePlan(tuple(phases), start_q=(0.0,) * 6)
        with pytest.raises(InfeasibleProfile):
            profiles_from_plan(plan, 60.0)

    def test_phase_plan_needs_ten_phases(self):
        with pytest.raises(SchemaViolation):
            PhasePlan((("approach", 1.0, (0.0,) * 6),), start_q=(0.0,) * 6)


class TestPlant:
    def test_equilibrium_constant_setpoint(self, monkeypatch):
        # constant plan: feedback stays put, effort is the gravity term alone
        q = (0.1, 0.4, 0.8, -0.2, 0.3, 0.0)
        phases = tuple((name, 0.5, q) for name in PHASE_NAMES)
        traj = profiles_from_plan(PhasePlan(phases, start_q=q), 60.0)
        monkeypatch.setattr(synthgen, "plan_trajectory", lambda params: traj)
        params = _draw(5)
        ep = simulate_plant(params)
        for i in range(6):
            fb = ep.channel(f"feedback_pos_{i}")
            assert np.abs(fb - q[i]).max() <= 1e-12
        carry = ep.channel("ctx_gripper_attached").astype(bool)
        for i in range(6):
            effort = ep.channel(f"effort_motor_torque_{i}")
            gravity = GRAVITY * GRAVITY_ARM_M[i] * params.mass_kg * math.cos(q[i])
            assert np.abs(effort[carry] - gravity).max() <= 1e-9
            assert np.abs(effort[~carry]).max() <= 1e-9

    def test_zero_mass_effort_is_tracking_only(self):
        params = _draw(5)
        params = EpisodeParams(
            seed=params.seed, episode_id="m0", mass_kg=0.0,
            friction=params.friction, kp_grip=params.kp_grip,
            cube_dims_m=params.cube_dims_m, spawn_offset_m=params.spawn_offset_m,
            config=params.config, fault=None,
        )
        ep = simulate_plant(params)
        for i in range(6):
            effort = ep.channel(f"effort_motor_torque_{i}")
            tracking = K_TRACK * (
                ep.channel(f"setpoint_pos_{i}") - ep.channel(f"feedback_pos_{i}")
            )
            assert np.abs(effort - tracking).max() <= 1e-12

    def test_step_response_critically_damped(self):
        # closed form: q(t) = A(1 - (1 + wn t) exp(-wn t)); no overshoot
        from sefc.synthgen import _track_second_order

        # the law starts at its first setpoint, so the step comes one step in
        A, wn, dt, n = 0.1, 10.0, 1.0 / 60.0, 400
        setpoint = np.full(n + 1, A)
        setpoint[0] = 0.0
        q = _track_second_order(setpoint, wn, dt)[0][1:]
        t = np.arange(n) * dt
        closed = A * (1.0 - (1.0 + wn * t) * np.exp(-wn * t))
        assert np.abs(q - closed).max() <= 1e-9
        assert q.max() <= A + 1e-6          # no overshoot
        assert abs(q[-1] - A) <= 0.01 * A   # settled within 1 percent

    def test_numerical_instability_guard(self):
        # a config's mass range reaches the tracking law's per-step guard
        cfg = RandomizationConfig(mass_kg_range=(1e5, 1e5))
        with pytest.raises(NumericalInstability, match="at step 181"):
            generate_episode(8, cfg, fault="payload_weight_misconfiguration", episode_id="ep_8",
                             noise=False)

    def test_phase_partition_ten_contiguous_runs(self, noiseless_episode):
        runs = encode_phase_rle(noiseless_episode.phase)
        assert [r[0] for r in runs] == list(PHASE_NAMES)
        assert sum(r[1] for r in runs) == noiseless_episode.n_steps

    def test_effort_gravity_bound(self, noiseless_episode):
        exploratory_mass_cap_kg = 0.80
        sp = np.column_stack([
            noiseless_episode.channel(f"setpoint_pos_{i}") for i in range(6)
        ])
        fb = np.column_stack([
            noiseless_episode.channel(f"feedback_pos_{i}") for i in range(6)
        ])
        eff = np.column_stack([
            noiseless_episode.channel(f"effort_motor_torque_{i}") for i in range(6)
        ])
        bound = exploratory_mass_cap_kg * GRAVITY * max(GRAVITY_ARM_M)
        assert np.abs(eff - K_TRACK * (sp - fb)).max() <= bound


class TestFaults:
    def test_magnitude_table_covers_the_injectable_pick_and_place_types(self):
        assert synthgen._FAULT_MAGNITUDES.keys() == INJECTABLE_FAULTS
        assert len(INJECTABLE_FAULTS) == 8
        for fault in INJECTABLE_FAULTS:
            _, tasks = FAULT_TYPES[fault]
            assert "pick_and_place" in tasks, fault

    def test_additional_axis_payload_closed_form(self):
        seed = 77
        magnitudes = _drawn("additional_axis_payload", seed)
        healthy = generate_episode(seed, noise=False, episode_id="h", fault=None)
        faulty = generate_episode(seed, fault="additional_axis_payload",
                                  noise=False, episode_id="f")
        j = magnitudes["joint"]
        w = magnitudes["weight_kg"]
        expected = w * GRAVITY * GRAVITY_ARM_M[j] * np.cos(
            healthy.channel(f"feedback_pos_{j}")
        )
        diff = faulty.channel(f"effort_motor_torque_{j}") - \
            healthy.channel(f"effort_motor_torque_{j}")
        assert np.abs(diff - expected).max() <= 1e-9
        # other joints untouched
        for i in range(6):
            if i == j:
                continue
            assert np.array_equal(
                faulty.channel(f"effort_motor_torque_{i}"),
                healthy.channel(f"effort_motor_torque_{i}"),
            )

    def test_out_of_subset_fault(self):
        params = _draw(1234)
        params = EpisodeParams(
            **{**params.__dict__, "fault": "damaged_screw_thread"}
        )
        with pytest.raises(UnsupportedFault):
            simulate_plant(params)

    def test_unstable_platform_adds_exact_sinusoid(self):
        seed = 31
        healthy = generate_episode(seed, noise=False, episode_id="h", fault=None)
        faulty = generate_episode(seed, fault="unstable_platform", noise=False, episode_id="f")
        wobble = 0.005 * np.sin(2 * np.pi * 3.0 * healthy.t)
        for i in range(6):
            diff = faulty.channel(f"feedback_pos_{i}") - healthy.channel(f"feedback_pos_{i}")
            assert np.abs(diff - wobble).max() <= 1e-12
        assert np.array_equal(faulty.channel("setpoint_pos_0"),
                              healthy.channel("setpoint_pos_0"))

    def test_gripper_release_drops_payload(self):
        seed = 55
        params = _draw(seed, "gripper_release_mid_motion")
        onset = _drawn("gripper_release_mid_motion", seed)["onset_step"]
        healthy = generate_episode(seed, noise=False, episode_id="h", fault=None)
        faulty = generate_episode(seed, fault=params.fault, noise=False, episode_id="f")
        attached = faulty.channel("ctx_gripper_attached")
        assert np.all(attached[onset:] == 0.0)
        # gravity term vanishes after the drop
        j = 1
        diff = healthy.channel(f"effort_motor_torque_{j}") - \
            faulty.channel(f"effort_motor_torque_{j}")
        carry_h = healthy.channel("ctx_gripper_attached").astype(bool)
        after = np.zeros_like(carry_h)
        after[onset:] = True
        expected = GRAVITY * GRAVITY_ARM_M[j] * params.mass_kg * np.cos(
            healthy.channel(f"feedback_pos_{j}")
        )
        mask = carry_h & after
        assert np.abs(diff[mask] - expected[mask]).max() <= 1e-9

    def test_gripper_activation_failure_never_attaches(self):
        ep = generate_episode(
            66, fault="gripper_activation_failure",
            noise=False, episode_id="f",
        )
        assert np.all(ep.channel("ctx_gripper_attached") == 0.0)
        assert np.abs(ep.channel("feedback_gripper_pos")).max() <= 1e-12


def _drawn(fault, seed):
    """The magnitudes `simulate_plant` draws for *fault* in the episode of *seed*."""
    return synthgen._fault_magnitudes(fault, plan_trajectory(_draw(seed)), seed)


def _drawn_keys(integer: bool):
    """(fault, key) for every magnitude the episode of seed 19 draws as an int (or a float)."""
    return [pytest.param(fault, key, id=f"{fault}-{key}")
            for fault in synthgen._FAULT_MAGNITUDES
            for key, value in _drawn(fault, 19).items() if isinstance(value, int) == integer]


@pytest.fixture
def set_magnitudes(monkeypatch):
    """Replace drawn magnitudes by the given values, through the one seam that draws them."""
    draw = synthgen._fault_magnitudes

    def set_(changes):
        monkeypatch.setattr(synthgen, "_fault_magnitudes",
                            lambda fault, traj, seed: {**draw(fault, traj, seed), **changes})
    return set_


class TestFaultMagnitudes:
    def test_draw_reads_the_seed_and_phase_runs_only(self):
        # the spawn offset moves waypoints, never the phase runs the draws read
        nominal = profiles_from_plan(build_phase_plan((0.0, 0.0)), 60.0)
        for fault, magnitudes in synthgen._FAULT_MAGNITUDES.items():
            drawn = _drawn(fault, 7)
            assert list(drawn) == list(magnitudes)
            assert synthgen._fault_magnitudes(fault, nominal, 7) == drawn
        assert _drawn("additional_axis_payload", 7) == {"joint": 1, "weight_kg": 0.7561224991740392}

    @pytest.mark.parametrize("fault,key", _drawn_keys(integer=False))
    def test_every_float_magnitude_changes_episode(self, set_magnitudes, fault, key):
        default = generate_episode(19, fault=fault, episode_id="ep", noise=False)
        set_magnitudes({key: _drawn(fault, 19)[key] * 1.25})
        ep = generate_episode(19, fault=fault, episode_id="ep", noise=False)
        assert not np.array_equal(ep.channels, default.channels), f"{key} has no effect"

    @pytest.mark.parametrize("fault,key", _drawn_keys(integer=True))
    def test_int_magnitude_changes_episode(self, set_magnitudes, fault, key):
        default = generate_episode(19, fault=fault, episode_id="ep", noise=False)
        set_magnitudes({key: _drawn(fault, 19)[key] + 1})
        ep = generate_episode(19, fault=fault, episode_id="ep", noise=False)
        assert not np.array_equal(ep.channels, default.channels), f"{key} has no effect"

    @pytest.mark.parametrize("fault,params", [
        ("unstable_platform", {"amplitude_rad": 1e308}),
        ("unstable_platform", {"amplitude_rad": 100.0}),
        ("additional_axis_payload", {"weight_kg": 1e308}),
    ])
    def test_additive_fault_keeps_plant_bounds(self, set_magnitudes, fault, params):
        # the additive faults act after the tracking law, whose state guard never sees them
        set_magnitudes(params)
        with pytest.raises(NumericalInstability, match=rf"ep_19 \({fault}\)"):
            generate_episode(19, fault=fault, noise=False, episode_id="ep_19")

    @pytest.mark.parametrize("fault,params", [
        ("collision_foam_spike", {"peak_nm": 1.7e308}),
        ("additional_axis_payload", {"weight_kg": 1e300}),
    ])
    def test_huge_finite_effort_raises(self, set_magnitudes, fault, params):
        # finite but absurd efforts: only a declared effort bound catches them
        set_magnitudes(params)
        with pytest.raises(NumericalInstability, match=rf"\({fault}\): effort"):
            generate_episode(19, fault=fault, noise=False, episode_id="ep_19")

    def test_effort_up_to_its_bound_is_kept(self, set_magnitudes):
        set_magnitudes({"peak_nm": 900.0})
        ep = generate_episode(19, fault="collision_foam_spike", noise=False, episode_id="ep_19")
        effort = ep.columns([f"effort_motor_torque_{j}" for j in range(6)])
        assert 800.0 < np.abs(effort).max() <= synthgen._EFFORT_BOUND_NM

    def test_pulse_that_changes_no_effort_raises(self, set_magnitudes):
        # a subnormal peak adds nothing to efforts of order 1: the twin, labelled faulty
        set_magnitudes({"peak_nm": 1e-320})
        with pytest.raises(SchemaViolation, match="collision_foam_spike"):
            generate_episode(19, fault="collision_foam_spike", noise=False, episode_id="ep_19")


# sha256 over the channel names, the phase labels, t and the channels (as
# little-endian float64) of `generate_episode(19, fault=fault,
# episode_id="ep", noise=noise)` with the drawn fault magnitudes, recorded
# when each fault was still applied by a second simulate entry point.  Any
# change to the plant, a fault's injection or the sensor noise moves them.
GOLDEN_EPISODES = {
    (None, False): "5ac60cc7d6af76453e21c1edf88561d9c7f42d2c6779e9c78e141be65a7ac14a",
    (None, True): "b8502465e2665164469ecb21a1ed2d1abbb7f2074c311e969341bf083964cf07",
    ("additional_axis_payload", False): "19bf0538a8fd080ef9f7d23fd151dbf419dc2137c0b4ee01ca7ec02c1b6a117a",
    ("additional_axis_payload", True): "efadf940158f95c5e20ea13942cabc6610ff0b3297b7861873858faa94942470",
    ("collision_foam_spike", False): "ac67c881c89abe1fe59457c365d93e91f3246635cc0b8b81acedfa8e9b5ad651",
    ("collision_foam_spike", True): "42385987960859cf9d63eec3d3ba9668800b8f2f248246e551e8d9192c84edda",
    ("gripper_activation_failure", False): "cec5235d3c970cdc6e171d181e3bd4723596200395301239c48a8e55511e199a",
    ("gripper_activation_failure", True): "77ca4834ee09b11529f847058bcb5765e4dd651416bb090d28d6c628d2d85aaf",
    ("gripper_release_mid_motion", False): "841c95dd39a370be78ff489965ff50093e7dbde254c662f6f3369d9500b4fd49",
    ("gripper_release_mid_motion", True): "902edb99ce495cf9bec8c2c639c2c94ef1793f261f51685b75599cf631780e66",
    ("invalid_gripping_position", False): "380187d311336ec98593fbf0cddf7e7165775589d182c6da811fd6d9598e7bb2",
    ("invalid_gripping_position", True): "f7b819cb71b5e951f9693c944da2209a89ef970bd65a6601e930d9b487d19c59",
    ("payload_weight_misconfiguration", False): "d307c40e359c9338652688c069607527603ee7deb2909e804335ea71bd8206aa",
    ("payload_weight_misconfiguration", True): "5d74d04c93ffbf69cd3c64560f38555f6fc16be00426d376289f1c9da69370ee",
    ("unexpected_payload_weight", False): "ab00451e5df3d0ad301455ac423bfbfc02debed0ff264fce8f0eaf4e24dcc4be",
    ("unexpected_payload_weight", True): "9ad201e9829d697c693680cf3c1d502fb4b167faf4cb24d3f0b99cced453d76a",
    ("unstable_platform", False): "6455ca587400738ec29069ac485eaf68ddad81b2e2da48e7afb2bdb7c7ff25e4",
    ("unstable_platform", True): "d163bac3e8d053155ff12a73699485ef4b6be12fd7a09c18fbc1e9c2c843751e",
}


def _episode_digest(ep):
    h = hashlib.sha256()
    h.update(",".join(ep.channel_names).encode())
    h.update("\n".join(map(str, ep.phase)).encode())
    h.update(np.ascontiguousarray(ep.t, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(ep.channels, dtype="<f8").tobytes())
    return h.hexdigest()


def test_golden_digests_cover_every_injectable_fault():
    assert {f for f, _ in GOLDEN_EPISODES} == {None, *INJECTABLE_FAULTS}


@pytest.mark.parametrize("fault,noise", sorted(GOLDEN_EPISODES, key=str))
def test_generate_episode_digest(fault, noise):
    ep = generate_episode(19, fault=fault, episode_id="ep", noise=noise)
    assert _episode_digest(ep) == GOLDEN_EPISODES[fault, noise]


class TestNoise:
    def test_per_family_sigma_monte_carlo(self):
        # 1e5-step episode per family: sample std within 2 percent of sigma
        from conftest import make_episode

        T = 100_000
        names = (
            [f"feedback_pos_{i}" for i in range(6)]
            + [f"feedback_vel_{i}" for i in range(6)]
            + [f"effort_motor_torque_{i}" for i in range(6)]
            + ["feedback_obj_pos_0", "feedback_obj_pos_1", "feedback_obj_pos_2",
               "setpoint_pos_0"]
        )
        descs = {}
        for n in names:
            role = SignalRole.SETPOINT if n.startswith("setpoint") else (
                SignalRole.EFFORT if n.startswith("effort") else SignalRole.FEEDBACK
            )
            descs[n] = (role, "x", None)
        ep = make_episode({n: np.zeros(T) for n in names}, descs, rate_hz=100.0)
        params = _draw(99)
        noisy = synthgen.add_sensor_noise(ep, params)
        cfg = params.config
        checks = {
            "feedback_pos_0": cfg.sigma_pos_rad,
            "feedback_vel_0": cfg.sigma_vel_radps,
            "effort_motor_torque_0": cfg.sigma_effort,
            "feedback_obj_pos_0": cfg.sigma_obj_xy_m,
            "feedback_obj_pos_2": cfg.sigma_obj_z_m,
        }
        for name, sigma in checks.items():
            sd = noisy.channel(name).std()
            assert abs(sd - sigma) <= 0.02 * sigma, name

    def test_zero_sigma_identity(self, noiseless_episode):
        cfg = RandomizationConfig(
            sigma_pos_rad=0.0, sigma_vel_radps=0.0,
            sigma_effort=0.0, sigma_obj_xy_m=0.0, sigma_obj_z_m=0.0,
        )
        params = sample_params(1234, cfg, None, "ep_1234")
        out = synthgen.add_sensor_noise(noiseless_episode, params)
        assert np.array_equal(out.channels, noiseless_episode.channels)

    def test_missing_noisy_channel_raises(self, noiseless_episode):
        ep = noiseless_episode
        keep = [d for d in ep.descriptors if d.canonical_name != "feedback_obj_pos_2"]
        partial = ep.replace(channels=ep.columns([d.canonical_name for d in keep]),
                             descriptors=tuple(keep))
        with pytest.raises(MissingChannel, match="feedback_obj_pos_2"):
            synthgen.add_sensor_noise(partial, _draw(1234))

    def test_setpoints_stay_noiseless(self, noiseless_episode, noisy_episode):
        for i in range(6):
            for kind in ("pos", "vel", "acc"):
                name = f"setpoint_{kind}_{i}"
                assert np.array_equal(noisy_episode.channel(name),
                                      noiseless_episode.channel(name)), name
        assert np.array_equal(noisy_episode.channel("ctx_cube_mass"),
                              noiseless_episode.channel("ctx_cube_mass"))


class TestCorpus:
    def test_counts_and_healthy_fraction(self):
        eps = generate_corpus(4, {"additional_axis_payload": 3, "unstable_platform": 3},
                              seed0=100)
        primaries = [e for e in eps if not e.episode_id.endswith("_twin")]
        twins = [e for e in eps if e.episode_id.endswith("_twin")]
        assert len(primaries) == 10 and len(twins) == 6
        healthy_fraction = sum(e.healthy for e in primaries) / len(primaries)
        assert healthy_fraction == 0.4
        assert all(t.healthy for t in twins)

    def test_determinism(self):
        a = generate_corpus(2, {"collision_foam_spike": 1}, seed0=9)
        b = generate_corpus(2, {"collision_foam_spike": 1}, seed0=9)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.episode_id == y.episode_id
            assert np.array_equal(x.channels, y.channels)

    def test_empty_fault_mix(self):
        eps = generate_corpus(3, {}, seed0=0)
        assert len(eps) == 3 and all(e.healthy for e in eps)

    def test_non_injectable_fault_raises_before_any_episode(self, monkeypatch):
        def no_generation(*args, **kwargs):
            raise AssertionError("an episode was generated")

        monkeypatch.setattr(synthgen, "generate_episode", no_generation)
        with pytest.raises(UnsupportedFault) as err:
            generate_corpus(1, {"missing_screw": 1}, 0)
        assert err.value.fault_type == "missing_screw"

    def test_first_unsupported_fault_in_sorted_order_is_named(self):
        with pytest.raises(UnsupportedFault) as err:
            synthgen.corpus_plan(0, {"nonsense": 1, "unstable_platform": 1, "missing_screw": 0}, 0)
        assert err.value.fault_type == "missing_screw"

    def test_no_config_file_and_an_empty_one_read_the_same_defaults(self, tmp_path):
        empty = tmp_path / "gen.yaml"
        empty.write_text("")
        defaults = {"config": RandomizationConfig(), "n_healthy": 10, "fault_mix": {}, "seed": 0}
        assert load_generation_config(None) == load_generation_config(empty) == defaults

    def test_twin_property(self, twin_pairs):
        for faulty, twin in twin_pairs:
            for i in range(6):
                for kind in ("pos", "vel", "acc"):
                    assert np.array_equal(
                        faulty.channel(f"setpoint_{kind}_{i}"),
                        twin.channel(f"setpoint_{kind}_{i}"),
                    )
            # noise draws are identical on channels the fault does not touch
            seed = 9000 + int(faulty.episode_id[2:])
            j = _drawn("additional_axis_payload", seed)["joint"]
            for i in range(6):
                if i == j:
                    continue
                assert np.array_equal(
                    faulty.channel(f"effort_motor_torque_{i}"),
                    twin.channel(f"effort_motor_torque_{i}"),
                ), (twin.episode_id, i)
            for i in range(6):
                assert np.array_equal(
                    faulty.channel(f"feedback_pos_{i}"),
                    twin.channel(f"feedback_pos_{i}"),
                )
