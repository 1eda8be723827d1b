import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.stats import wasserstein_distance

from conftest import make_episode
from sefc import ingest, synthgen
from sefc.cli import main
from sefc.errors import EmptyInput, NoCommonPhases, SchemaViolation
from sefc.gap import (
    JOINT_CHANNELS,
    TCP_POS_CHANNELS,
    TCP_ROT_CHANNELS,
    GapMetrics,
    batch_summary,
    pair_metrics,
    phase_align,
    wasserstein_1d,
    write_summary_csv,
)
from sefc.ingest import EpisodePair
from sefc.schema import BUILTIN_ADAPTER_IDS, SignalRole, builtin_adapter, phase_runs


def w1_transport_oracle(a, b):
    """Exhaustive optimal transport between tiny empirical distributions,
    solved as the assignment LP (exact for <= 5-point instances)."""
    a, b = np.sort(np.asarray(a, float)), np.sort(np.asarray(b, float))
    n, m = len(a), len(b)
    cost = np.abs(a[:, None] - b[None, :]).ravel()
    # row sums = 1/n, column sums = 1/m
    a_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(m):
        col = np.zeros((n, m))
        col[:, j] = 1.0
        a_eq.append(col.ravel())
    b_eq = [1.0 / n] * n + [1.0 / m] * m
    res = linprog(cost, A_eq=np.asarray(a_eq), b_eq=b_eq, method="highs")
    assert res.success
    return float(res.fun)


EFFORT_CHANNELS = tuple(f"effort_motor_torque_{i}" for i in range(6))
D6 = {}
for i in range(6):
    D6[f"feedback_pos_{i}"] = (SignalRole.FEEDBACK, "rad", i)
    D6[f"effort_motor_torque_{i}"] = (SignalRole.EFFORT, "Nm", i)
for i in range(3):
    D6[f"feedback_pos_cartesian_{i}"] = (SignalRole.FEEDBACK, "m", i)
for i in range(3, 6):
    D6[f"feedback_pos_cartesian_{i}"] = (SignalRole.FEEDBACK, "rad", i)


def _episode(values: dict, phase, episode_id="e"):
    T = len(phase)
    channels = {}
    for name in D6:
        channels[name] = np.asarray(values.get(name, np.zeros(T)), dtype=np.float64)
    return make_episode(channels, D6, rate_hz=10.0, phase=phase, episode_id=episode_id)


class TestWasserstein:
    def test_point_masses(self):
        assert wasserstein_1d([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_equal_size_sorted_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            expected = np.abs(np.sort(a) - np.sort(b)).mean()
            assert wasserstein_1d(a, b) == pytest.approx(expected, abs=1e-12)

    def test_matches_transport_oracle_small(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n, m = rng.integers(1, 6, size=2)
            a = rng.normal(size=n)
            b = rng.normal(size=m)
            assert wasserstein_1d(a, b) == pytest.approx(
                w1_transport_oracle(a, b), abs=1e-9
            )

    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.normal(size=int(rng.integers(2, 40)))
            b = rng.normal(size=int(rng.integers(2, 40)))
            assert wasserstein_1d(a, b) == pytest.approx(
                wasserstein_distance(a, b), abs=1e-12
            )

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=9), rng.normal(size=5)
        assert wasserstein_1d(a, b) == wasserstein_1d(b, a)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=7), rng.normal(size=11)
        c = 3.7
        assert wasserstein_1d(a + c, b + c) == pytest.approx(
            wasserstein_1d(a, b), abs=1e-12
        )


class TestPhaseAlign:
    def test_identical_episodes_align_exactly(self, noiseless_episode):
        pair = EpisodePair(noiseless_episode, noiseless_episode, "self")
        aligned = phase_align(pair)
        assert np.array_equal(aligned.real, aligned.sim)
        assert aligned.phases_skipped == ()
        assert len(aligned.phases_used) == 10

    def test_duration_mismatch_removed_for_linear_ramps(self):
        # same 0->1 ramp, sim phase twice as long: normalization removes it
        phase_r = ["a"] * 10 + ["b"] * 10
        phase_s = ["a"] * 20 + ["b"] * 20
        ramp_r = np.concatenate([np.linspace(0, 1, 10), np.linspace(0, 1, 10)])
        ramp_s = np.concatenate([np.linspace(0, 1, 20), np.linspace(0, 1, 20)])
        real = _episode({"feedback_pos_0": ramp_r}, phase_r, "r")
        sim = _episode({"feedback_pos_0": ramp_s}, phase_s, "s")
        aligned = phase_align(EpisodePair(real, sim, "k"))
        col = aligned.channel_names.index("feedback_pos_0")
        assert np.abs(aligned.real[:, col] - aligned.sim[:, col]).max() <= 1e-12

    def test_one_sided_phase_skipped(self):
        real = _episode({}, ["a"] * 5 + ["grasp"] * 5 + ["b"] * 5, "r")
        sim = _episode({}, ["a"] * 5 + ["b"] * 10, "s")
        aligned = phase_align(EpisodePair(real, sim, "k"))
        assert "grasp" in aligned.phases_skipped
        assert set(aligned.phases_used) == {"a", "b"}

    def test_phase_order_first_appearance_real_only_skipped_first(self):
        real = _episode(
            {}, ["lift"] * 3 + ["a"] * 5 + ["grasp"] * 5 + ["a"] * 2 + ["b"] * 5, "r")
        sim = _episode({}, ["z"] * 4 + ["b"] * 5 + ["a"] * 5 + ["y"] * 3, "s")
        aligned = phase_align(EpisodePair(real, sim, "k"))
        assert aligned.phases_used == ("a", "b")
        assert aligned.phases_skipped == ("lift", "grasp", "a#2", "z", "y")

    def test_no_common_phases(self):
        real = _episode({}, ["a"] * 10, "r")
        sim = _episode({}, ["b"] * 10, "s")
        with pytest.raises(NoCommonPhases):
            phase_align(EpisodePair(real, sim, "k"))

    def test_task_mismatch_raises_naming_the_pair(self):
        # a pair of two tasks is built, and fails as a pair when aligned
        real = _episode({}, ["a"] * 10, "r")
        pair = EpisodePair(real, real.replace(task="screwdriving"), "k")
        with pytest.raises(SchemaViolation,
                           match=r"^pair 'k': task mismatch \(pick_and_place vs screwdriving\)$"):
            phase_align(pair)

    @pytest.mark.parametrize("real_runs,sim_runs", [
        ("a b a", "a a#2"),            # two skipped runs: the real a#2 and the sim's label
        ("a a#2 a", "a a#2"),          # a skipped run against a used one
        ("a x a a#2", "a y a a#2"),    # two used runs
        ("a b a a#2", "a"),            # two skipped runs of the real side alone
    ])
    def test_colliding_run_names_raise(self, real_runs, sim_runs):
        real = _episode({}, [p for p in real_runs.split() for _ in range(3)], "r")
        sim = _episode({}, [p for p in sim_runs.split() for _ in range(3)], "s")
        with pytest.raises(SchemaViolation) as err:
            phase_align(EpisodePair(real, sim, "k7"))
        assert "'k7'" in str(err.value) and "'a#2'" in str(err.value)

    def test_label_spelled_like_a_run_name_alone_is_kept(self):
        real = _episode({}, ["a"] * 3 + ["a#2"] * 3 + ["b"] * 3, "r")
        sim = _episode({}, ["a"] * 4 + ["a#2"] * 2 + ["c"] * 3, "s")
        aligned = phase_align(EpisodePair(real, sim, "k"))
        assert aligned.phases_used == ("a", "a#2")
        assert aligned.phases_skipped == ("b", "c")

    def test_recurring_label_pairs_runs_like_distinct_labels(self):
        # the twin's first run stretched 60 -> 90 steps, its last squeezed 79 -> 49
        control = synthgen.generate_episode(3, noise=False, fault=None, episode_id="ep_3")
        runs = phase_runs(control.phase)
        assert (runs[0][2], runs[-1][0], runs[-1][2] - runs[-1][1]) == (60, "return", 79)
        lengths = [stop - start for _, start, stop in runs]
        lengths[0], lengths[-1] = 90, 49
        recurring = control.replace(
            phase=np.where(np.arange(control.n_steps) < 60, "return", control.phase))

        got = phase_align(EpisodePair(recurring, _warp_runs(recurring, lengths), "k"))
        want = phase_align(EpisodePair(control, _warp_runs(control, lengths), "k"))
        assert got.real.tobytes() == want.real.tobytes()
        assert got.sim.tobytes() == want.sim.tobytes()
        assert pair_metrics(got) == pair_metrics(want)
        assert got.phases_used == ("return", *want.phases_used[1:-1], "return#2")
        assert got.phases_skipped == ()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_run_layouts_match_label_gathering(self, data):
        # every label forms one run: shared, one-sided, and runs of one step
        labels = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=5, unique=True)
        sides = []
        for side in ("r", "s"):
            layout = [(p, data.draw(st.integers(1, 6))) for p in data.draw(labels)]
            phase = [p for p, n in layout for _ in range(n)]
            assume(len(phase) >= 2)
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            values = {f"feedback_pos_{i}": rng.normal(size=len(phase)) for i in range(6)}
            sides.append(_episode(values, phase, side))
        pair = EpisodePair(*sides, "k")
        try:
            want = _label_gather_align(pair)
        except NoCommonPhases:
            with pytest.raises(NoCommonPhases):
                phase_align(pair)
            return
        got = phase_align(pair)
        assert got.real.shape == want[0].shape and got.real.tobytes() == want[0].tobytes()
        assert got.sim.shape == want[1].shape and got.sim.tobytes() == want[1].tobytes()
        assert (got.phases_used, got.phases_skipped) == want[2:]


def _warp_runs(ep, lengths):
    """*ep* with each phase run resampled (``np.interp``) to its entry of *lengths*."""
    blocks, phase = [], []
    for (label, start, stop), n in zip(phase_runs(ep.phase), lengths):
        u_old, u_new = np.linspace(0.0, 1.0, stop - start), np.linspace(0.0, 1.0, n)
        blocks.append(np.column_stack(
            [np.interp(u_new, u_old, col) for col in ep.channels[start:stop].T]))
        phase += [label] * n
    return ep.replace(channels=np.vstack(blocks), phase=np.asarray(phase))


def _label_gather_align(pair):
    """``(real, sim, phases_used, phases_skipped)`` from the label-gathering
    alignment that ``phase_align`` replaced: every row of a label in one block."""
    real, sim = pair.real, pair.sim
    common = [d.canonical_name for d in real.descriptors if sim.has_channel(d.canonical_name)]
    real_x, sim_x = real.columns(common), sim.columns(common)
    real_phases = dict.fromkeys(map(str, real.phase))
    sim_phases = dict.fromkeys(map(str, sim.phase))
    used = [p for p in real_phases if p in sim_phases]
    skipped = [p for p in real_phases if p not in sim_phases]
    skipped += [p for p in sim_phases if p not in real_phases]
    if not used:
        raise NoCommonPhases(pair.pair_key)
    real_blocks, sim_blocks = [], []
    for p in used:
        ridx = np.flatnonzero(real.phase == p)
        sidx = np.flatnonzero(sim.phase == p)
        u_real = np.arange(ridx.size) / (ridx.size - 1) if ridx.size > 1 else np.zeros(1)
        u_sim = np.arange(sidx.size) / (sidx.size - 1) if sidx.size > 1 else np.zeros(1)
        real_blocks.append(real_x[ridx])
        sim_block = np.empty((ridx.size, len(common)))
        for c in range(len(common)):
            sim_block[:, c] = np.interp(u_real, u_sim, sim_x[sidx, c])
        sim_blocks.append(sim_block)
    return np.vstack(real_blocks), np.vstack(sim_blocks), tuple(used), tuple(skipped)


class TestPairMetrics:
    def test_identical_pair_all_zero(self, noiseless_episode):
        aligned = phase_align(EpisodePair(noiseless_episode, noiseless_episode, "k"))
        m = pair_metrics(aligned)
        assert m.joint_rmse_deg == 0.0
        assert m.tcp_pos_rmse_mm == 0.0
        assert m.ee_l2_rms_mm == 0.0
        assert m.tcp_rotvec_rmse_mrad == 0.0
        assert m.w1_effort_mean == 0.0

    def test_one_degree_constant_offset(self):
        phase = ["a"] * 20
        rng = np.random.default_rng(0)
        base = {f"feedback_pos_{i}": rng.normal(size=20) for i in range(6)}
        real = _episode(base, phase, "r")
        off = {k: v + np.deg2rad(1.0) for k, v in base.items()}
        sim = _episode(off, phase, "s")
        m = pair_metrics(phase_align(EpisodePair(real, sim, "k")))
        assert m.joint_rmse_deg == pytest.approx(1.0, abs=1e-12)

    def test_scale_equivariance(self):
        phase = ["a"] * 30
        rng = np.random.default_rng(1)
        base = {f"feedback_pos_{i}": rng.normal(size=30) for i in range(6)}
        err = {f"feedback_pos_{i}": rng.normal(size=30) * 0.01 for i in range(6)}
        real = _episode(base, phase, "r")
        sim1 = _episode({k: base[k] + err[k] for k in base}, phase, "s")
        sim3 = _episode({k: base[k] + 3.0 * err[k] for k in base}, phase, "s")
        m1 = pair_metrics(phase_align(EpisodePair(real, sim1, "k")))
        m3 = pair_metrics(phase_align(EpisodePair(real, sim3, "k")))
        assert m3.joint_rmse_deg == pytest.approx(3.0 * m1.joint_rmse_deg, rel=1e-9)

    def test_ee_l2_rms_vs_tcp_rmse_pooling(self):
        # RMS of the 3-D distance = sqrt(3) x per-axis-pooled RMSE
        phase = ["a"] * 25
        rng = np.random.default_rng(2)
        base = {f"feedback_pos_cartesian_{i}": rng.normal(size=25) for i in range(3)}
        shifted = {k: v + rng.normal(size=25) * 0.002 for k, v in base.items()}
        real = _episode(base, phase, "r")
        sim = _episode(shifted, phase, "s")
        m = pair_metrics(phase_align(EpisodePair(real, sim, "k")))
        assert m.ee_l2_rms_mm == pytest.approx(np.sqrt(3) * m.tcp_pos_rmse_mm, rel=1e-12)

    def test_missing_channels_mark_metric_absent(self):
        descs = {"feedback_pos_0": (SignalRole.FEEDBACK, "rad", 0)}
        descs.update({n: (SignalRole.FEEDBACK, "m", i) for i, n in enumerate(TCP_POS_CHANNELS)})
        phase = ["a"] * 10
        real = make_episode({n: np.arange(10.0) for n in descs}, descs,
                            phase=phase, episode_id="r")
        sim = make_episode({n: np.arange(10.0) for n in descs}, descs,
                           phase=phase, episode_id="s")
        m = pair_metrics(phase_align(EpisodePair(real, sim, "k")))
        assert m.joint_rmse_deg is None          # needs all six joints
        assert m.tcp_rotvec_rmse_mrad is None
        assert m.w1_effort_mean is None
        assert m.tcp_pos_rmse_mm == 0.0

    @pytest.mark.parametrize("real_names,sim_names", [
        (("feedback_pos_0",), ("feedback_pos_0",)),       # one joint of six, on both sides
        (JOINT_CHANNELS, EFFORT_CHANNELS),                 # no channel in common
    ], ids=["partial_group", "disjoint"])
    def test_pair_without_any_metric_raises(self, real_names, sim_names):
        phase = ["a"] * 10
        real, sim = (make_episode({n: np.arange(10.0) for n in names},
                                  {n: D6[n] for n in names}, phase=phase, episode_id=i)
                     for names, i in ((real_names, "r"), (sim_names, "s")))
        aligned = phase_align(EpisodePair(real, sim, "k5"))
        with pytest.raises(EmptyInput) as err:
            pair_metrics(aligned)
        for part in ("'k5'", *JOINT_CHANNELS, *TCP_POS_CHANNELS, *TCP_ROT_CHANNELS, "Effort"):
            assert part in str(err.value)

    def test_gap_command_exits_1_on_a_pair_without_any_metric(self, tmp_path, capsys):
        # the real and sim episodes share only channels no metric reads
        ep = synthgen.generate_episode(3, noise=False, fault=None, episode_id="ep_3")
        groups = set(JOINT_CHANNELS + TCP_POS_CHANNELS + TCP_ROT_CHANNELS)
        keep = [i for i, d in enumerate(ep.descriptors)
                if d.canonical_name not in groups and d.role != SignalRole.EFFORT]
        ep = ep.replace(channels=ep.channels[:, keep],
                        descriptors=tuple(ep.descriptors[i] for i in keep))
        ingest.write_canonical(ep, tmp_path / "real")
        ingest.write_canonical(ep, tmp_path / "sim")
        assert main(["gap", "--real-dir", str(tmp_path / "real"), "--sim-dir",
                     str(tmp_path / "sim"), "--out", str(tmp_path / "out")]) == 1
        assert "no gap metric can be computed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "gap_summary.csv").exists()

    def test_rotvec_wrap_flag(self):
        phase = ["a"] * 12
        spin = {"feedback_pos_cartesian_5": np.linspace(-3.0, 3.0, 12)}
        real = _episode(spin, phase, "r")
        sim = _episode(spin, phase, "s")
        m = pair_metrics(phase_align(EpisodePair(real, sim, "k")))
        assert m.rotvec_wrapped

    def test_w1_in_source_units(self):
        phase = ["a"] * 10
        base = {f"effort_motor_torque_{i}": np.zeros(10) for i in range(6)}
        shifted = {f"effort_motor_torque_{i}": np.full(10, 0.5) for i in range(6)}
        real = _episode(base, phase, "r")
        sim = _episode(shifted, phase, "s")
        m = pair_metrics(phase_align(EpisodePair(real, sim, "k")))
        assert m.w1_effort_mean == pytest.approx(0.5, abs=1e-12)


def _offset_pair(names, unit, offset):
    """Real and sim episodes whose *names* channels (in *unit*) differ by *offset*."""
    descs = {n: (SignalRole.FEEDBACK, unit, i) for i, n in enumerate(names)}
    phase = ["a"] * 10
    base = {n: np.linspace(0.0, 0.5, 10) for n in names}
    real = make_episode(base, descs, phase=phase, episode_id="r")
    sim = make_episode({n: v + offset for n, v in base.items()}, descs, phase=phase,
                       episode_id="s")
    return phase_align(EpisodePair(real, sim, "k"))


class TestUnitTable:
    """Each metric converts from a closed set of channel units; any other unit fails."""

    @pytest.mark.parametrize("names,unit,offset,metric,expected", [
        (JOINT_CHANNELS, "rad", np.deg2rad(1.0), "joint_rmse_deg", 1.0),
        (JOINT_CHANNELS, "deg", 1.0, "joint_rmse_deg", 1.0),
        (JOINT_CHANNELS, "DEG", 1.0, "joint_rmse_deg", 1.0),
        (TCP_POS_CHANNELS, "m", 0.001, "tcp_pos_rmse_mm", 1.0),
        (TCP_POS_CHANNELS, "mm", 1.0, "tcp_pos_rmse_mm", 1.0),
        (TCP_POS_CHANNELS, "m/rad", 0.001, "tcp_pos_rmse_mm", 1.0),
        (TCP_ROT_CHANNELS, "rad", 0.001, "tcp_rotvec_rmse_mrad", 1.0),
        (TCP_ROT_CHANNELS, "deg", 1.0, "tcp_rotvec_rmse_mrad", np.pi / 180.0 * 1000.0),
        (TCP_ROT_CHANNELS, "m/rad", 0.001, "tcp_rotvec_rmse_mrad", 1.0),
    ])
    def test_accepted_unit_converts(self, names, unit, offset, metric, expected):
        m = pair_metrics(_offset_pair(names, unit, offset))
        assert getattr(m, metric) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("names,unit,metric", [
        (JOINT_CHANNELS, "mm", "joint_rmse_deg"),
        (JOINT_CHANNELS, "rpm", "joint_rmse_deg"),
        (JOINT_CHANNELS, "degC", "joint_rmse_deg"),
        (TCP_POS_CHANNELS, "cm", "tcp_pos_rmse_mm"),
        (TCP_POS_CHANNELS, "in", "tcp_pos_rmse_mm"),
        (TCP_ROT_CHANNELS, "mm", "tcp_rotvec_rmse_mrad"),
    ])
    def test_other_unit_raises_naming_channel_unit_and_metric(self, names, unit, metric):
        # a 1-unit offset: the old guess reported 57.2958 "deg" for joints in mm
        with pytest.raises(SchemaViolation) as err:
            pair_metrics(_offset_pair(names, unit, 1.0))
        assert names[0] in str(err.value)
        assert repr(unit) in str(err.value)
        assert metric in str(err.value)

    @pytest.mark.parametrize("source_id", BUILTIN_ADAPTER_IDS)
    def test_builtin_adapter_position_units_are_accepted(self, source_id):
        metric_channels = set(JOINT_CHANNELS + TCP_POS_CHANNELS + TCP_ROT_CHANNELS)
        descs = {s.canonical_name: (s.role, s.unit, s.axis)
                 for s in builtin_adapter(source_id).signals
                 if s.canonical_name in metric_channels or s.role == SignalRole.EFFORT}
        phase = ["a"] * 4
        ep = make_episode({n: np.zeros(4) for n in descs}, descs, phase=phase)
        pair_metrics(phase_align(EpisodePair(ep, ep, "k")))


def _restated(ep, names, unit, scale):
    """*ep* with its *names* channels multiplied by *scale* and declared in *unit*."""
    channels = ep.channels.copy()
    channels[:, [ep.channel_index(n) for n in names]] *= scale
    descriptors = tuple(dataclasses.replace(d, unit=unit) if d.canonical_name in names else d
                        for d in ep.descriptors)
    return ep.replace(channels=channels, descriptors=descriptors)


class TestSimSideUnits:
    """Each side converts by its own units; effort W1 needs one unit on both sides."""

    def test_sim_joints_in_deg_match_real_in_rad(self):
        real = synthgen.generate_episode(3, noise=False, fault=None, episode_id="ep_3")
        sim = _restated(real, JOINT_CHANNELS, "deg", 180.0 / np.pi)
        m = pair_metrics(phase_align(EpisodePair(real, sim, "k")))
        assert m.joint_rmse_deg == pytest.approx(0.0, abs=1e-9)

    def test_rotvec_wrap_flag_uses_each_sides_unit(self):
        # a 2 rad span is 114.6 in deg: under pi only when read in the sim's unit
        real = _episode({"feedback_pos_cartesian_5": np.linspace(-1.0, 1.0, 12)}, ["a"] * 12)
        sim = _restated(real, TCP_ROT_CHANNELS, "deg", 180.0 / np.pi)
        m = pair_metrics(phase_align(EpisodePair(real, sim, "k")))
        assert m.tcp_rotvec_rmse_mrad == pytest.approx(0.0, abs=1e-9)
        assert not m.rotvec_wrapped

    @pytest.mark.parametrize("names,metric", [
        (JOINT_CHANNELS, "joint_rmse_deg"),
        (TCP_POS_CHANNELS, "tcp_pos_rmse_mm"),
        (TCP_ROT_CHANNELS, "tcp_rotvec_rmse_mrad"),
    ])
    def test_sim_unit_outside_table_raises_naming_side(self, names, metric):
        real = synthgen.generate_episode(3, noise=False, fault=None, episode_id="ep_3")
        sim = _restated(real, names, "furlong", 1.0)
        with pytest.raises(SchemaViolation) as err:
            pair_metrics(phase_align(EpisodePair(real, sim, "k")))
        assert f"sim channel {names[0]} has unit 'furlong'" in str(err.value)
        assert metric in str(err.value)

    def test_effort_units_must_match(self):
        real = synthgen.generate_episode(3, noise=False, fault=None, episode_id="ep_3")
        sim = _restated(real, EFFORT_CHANNELS, "A", 1.0 / 0.1)
        with pytest.raises(SchemaViolation) as err:
            pair_metrics(phase_align(EpisodePair(real, sim, "k3")))
        message = str(err.value)
        for part in ("'k3'", EFFORT_CHANNELS[0], "'Nm'", "'A'", "w1_effort_mean"):
            assert part in message

    def test_effort_units_compare_lower_cased(self):
        real = synthgen.generate_episode(3, noise=False, fault=None, episode_id="ep_3")
        sim = _restated(real, EFFORT_CHANNELS, "NM", 1.0)
        assert pair_metrics(phase_align(EpisodePair(real, sim, "k"))).w1_effort_mean == 0.0

    def test_gap_command_fails_the_pair_on_effort_unit_mismatch(self, tmp_path, capsys):
        real = synthgen.generate_episode(3, noise=False, fault=None, episode_id="ep_3")
        ingest.write_canonical(real, tmp_path / "real")
        ingest.write_canonical(_restated(real, EFFORT_CHANNELS, "A", 1.0 / 0.1), tmp_path / "sim")
        assert main(["gap", "--real-dir", str(tmp_path / "real"), "--sim-dir",
                     str(tmp_path / "sim"), "--out", str(tmp_path / "out")]) == 1
        assert EFFORT_CHANNELS[0] in capsys.readouterr().err
        assert not (tmp_path / "out" / "gap_summary.csv").exists()


class TestBatchSummary:
    def _metrics(self, values):
        return [
            GapMetrics(pair_key=f"p{i}", joint_rmse_deg=float(v),
                       tcp_pos_rmse_mm=0.0, ee_l2_rms_mm=0.0,
                       tcp_rotvec_rmse_mrad=0.0, w1_effort_mean=0.0)
            for i, v in enumerate(values)
        ]

    def test_singleton(self):
        row = batch_summary(self._metrics([4.2])).rows[0]
        assert row.metric == "joint_rmse_deg"
        assert row.mean == row.median == row.p10 == row.p90 == 4.2

    def test_constructed_offsets_1_to_20(self):
        row = batch_summary(self._metrics(range(1, 21))).rows[0]
        assert row.metric == "joint_rmse_deg"
        assert row.mean == pytest.approx(10.5, abs=1e-12)
        assert row.median == pytest.approx(10.5, abs=1e-12)
        # linear interpolation between closest ranks
        assert row.p10 == pytest.approx(1 + 0.1 * 19, abs=1e-12)
        assert row.p90 == pytest.approx(1 + 0.9 * 19, abs=1e-12)
        assert row.p10 <= row.median <= row.p90

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            batch_summary([])

    def test_summary_csv_shape(self, tmp_path):
        path = write_summary_csv(batch_summary(self._metrics([1.0, 2.0])),
                                 tmp_path / "s.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,mean,median,p10,p90,n"
        assert len(lines) == 6  # five metrics
