import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import channel_for_raw, raw_table_for
from sefc.errors import (DegenerateEpisode, MissingChannel, MissingRawColumn, NonNumericColumn,
                         SchemaViolation)
from sefc.schema import (
    BUILTIN_ADAPTER_IDS,
    FAULT_TYPES,
    TASKS,
    AdapterSpec,
    Episode,
    EpisodeMeta,
    SignalRole,
    SignalSpec,
    apply_adapter,
    builtin_adapter,
    expand_signal_rows,
    phase_runs,
    _coerce_cell,
)
from sefc.ingest import encode_phase_rle
from sefc.synthgen import RandomizationConfig, plan_trajectory, sample_params


def sig(raw, canonical, role=SignalRole.SETPOINT, unit="rad", axis=None):
    return SignalSpec(raw, canonical, role, unit, axis, notes="")


def spec(*signals, rate=10.0, absent_channels=(), phase_column=None):
    return AdapterSpec("x", rate, signals, absent_channels, notes="", phase_column=phase_column)


META = EpisodeMeta(episode_id="e1", embodiment="arm", task="pick_and_place")


class TestSignalRole:
    def test_exactly_seven_variants(self):
        assert len(SignalRole) == 7

    def test_modeling_vs_carrier_split(self):
        from sefc.schema import MODELING_ROLES

        carriers = set(SignalRole) - MODELING_ROLES
        assert carriers == {
            SignalRole.METADATA, SignalRole.AUXILIARY, SignalRole.RAW_LABEL
        }


class TestFaultTypes:
    def test_27_snake_case_types_of_known_tasks(self):
        assert len(FAULT_TYPES) == 27
        for name, (description, tasks) in FAULT_TYPES.items():
            assert re.fullmatch(r"[a-z][a-z0-9_]*", name), name
            assert description and tasks and set(tasks) <= set(TASKS), name

    def test_names_descriptions_tasks_and_order_are_pinned(self):
        # sha256 of [[name, description, [task, ...]], ...] in table order
        rows = [[name, description, list(tasks)]
                for name, (description, tasks) in FAULT_TYPES.items()]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "cd6ded2490ad6d7df8ec235614693c04db1f34e81cb363eb977c76d8a2472078")
        assert FAULT_TYPES["missing_peg"] == ("peg absent during insertion", ("peg_in_hole",))


class TestValidateAdapter:
    def test_builtin_adapters_are_valid(self):
        for source_id in BUILTIN_ADAPTER_IDS:
            assert builtin_adapter(source_id).source_id == source_id

    def test_duplicate_canonical_name(self):
        with pytest.raises(SchemaViolation, match=r"\[duplicate-canonical\]"):
            spec(sig("a", "setpoint_pos_0", axis=0), sig("b", "setpoint_pos_0", axis=0))

    def test_duplicate_raw_name(self):
        with pytest.raises(SchemaViolation, match=r"\[duplicate-raw\]"):
            spec(sig("a", "setpoint_pos_0", axis=0), sig("a", "setpoint_pos_1", axis=1))

    def test_malformed_axis_suffix(self):
        with pytest.raises(SchemaViolation, match=r"\[malformed-axis-suffix\]"):
            spec(sig("a", "feedback_pos_x", role=SignalRole.FEEDBACK, axis=0))

    def test_negative_axis(self):
        with pytest.raises(SchemaViolation, match=r"\[bad-axis\]"):
            spec(sig("a", "setpoint_pos_0", axis=-1))

    def test_bad_canonical_name(self):
        with pytest.raises(SchemaViolation, match=r"\[bad-canonical-name\]"):
            spec(sig("a", "Setpoint Pos"))

    def test_missing_role_and_unit(self):
        with pytest.raises(SchemaViolation, match=r"\[missing-role\].*\n\[missing-unit\]"):
            spec(sig("a", "ctx_thing", role=None, unit=""))

    def test_absent_channel_overlap(self):
        with pytest.raises(SchemaViolation, match=r"\[absent-overlap\]"):
            spec(sig("a", "setpoint_pos_0", axis=0), absent_channels=("setpoint_pos_0",))

    def test_mapped_phase_column(self):
        with pytest.raises(SchemaViolation, match=r"\[phase-mapped\] phase column 'a'"):
            spec(sig("a", "setpoint_pos_0", axis=0), phase_column="a")

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0])
    def test_native_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(SchemaViolation, match=r"\[bad-rate\]"):
            spec(sig("a", "setpoint_pos_0", axis=0), rate=rate)

    def test_every_problem_is_one_line(self):
        with pytest.raises(SchemaViolation) as info:
            spec(sig("a", "Bad Name!", axis=3), sig("a", "Bad Name!", axis=3), rate=-5.0)
        assert str(info.value).splitlines() == [
            "adapter 'x' invalid:",
            "[bad-canonical-name] 'Bad Name!' is not lowercase snake case",
            "[malformed-axis-suffix] 'Bad Name!' does not end in _3",
            "[duplicate-raw] raw name 'a' mapped twice",
            "[duplicate-canonical] canonical name 'Bad Name!' assigned twice",
            "[bad-canonical-name] 'Bad Name!' is not lowercase snake case",
            "[malformed-axis-suffix] 'Bad Name!' does not end in _3",
            "[bad-rate] native_rate_hz must be finite and positive",
        ]


class TestApplyAdapter:
    def test_voraus_row_mapping(self):
        spec = builtin_adapter("voraus_ad")
        s = channel_for_raw(spec, "target_position_1")
        assert s.canonical_name == "setpoint_pos_0"
        assert s.role == SignalRole.SETPOINT
        assert s.unit == "rad"

    def test_aursad_row_mapping(self):
        s = channel_for_raw(builtin_adapter("aursad"), "actual_current_0")
        assert (s.canonical_name, s.role, s.unit) == (
            "effort_current_0", SignalRole.EFFORT, "A"
        )

    def test_cnc_row_mapping(self):
        s = channel_for_raw(builtin_adapter("umich_cnc"), "X1_CommandPosition")
        assert (s.canonical_name, s.role, s.unit) == (
            "setpoint_pos_0", SignalRole.SETPOINT, "mm"
        )

    def test_channels_in_spec_order_and_unmapped_dropped(self):
        spec = builtin_adapter("voraus_ad")
        table = raw_table_for(spec, n_rows=9)
        table["bogus_extra_column"] = np.zeros(9)
        ep = apply_adapter(table, spec, META)
        assert ep.channel_names == tuple(s.canonical_name for s in spec.signals)
        assert ep.rate_hz == spec.native_rate_hz
        assert ep.n_steps == 9

    def test_deterministic(self):
        spec = builtin_adapter("aursad")
        table = raw_table_for(spec, n_rows=7, seed=3)
        a = apply_adapter(table, spec, META)
        b = apply_adapter(table, spec, META)
        assert np.array_equal(a.channels, b.channels)
        assert np.array_equal(a.t, b.t)

    def test_missing_raw_column(self):
        spec = builtin_adapter("voraus_ad")
        table = raw_table_for(spec)
        del table["motor_torque_3"]
        with pytest.raises(MissingRawColumn, match="motor_torque_3"):
            apply_adapter(table, spec, META)

    def test_allow_missing_omits_channel(self):
        spec = builtin_adapter("voraus_ad")
        table = raw_table_for(spec)
        del table["motor_torque_3"]
        ep = apply_adapter(table, spec, META, allow_missing=["motor_torque_3"])
        assert not ep.has_channel("effort_motor_torque_2")
        assert ep.n_channels == len(spec.signals) - 1

    def test_non_numeric_modeling_column(self):
        spec = builtin_adapter("voraus_ad")
        table = raw_table_for(spec, n_rows=5)
        table["joint_position_2"] = np.asarray(["a", "b", "c", "d", "e"], dtype=object)
        with pytest.raises(NonNumericColumn, match="joint_position_2"):
            apply_adapter(table, spec, META)

    def test_non_numeric_label_column_coerced(self):
        spec = builtin_adapter("voraus_ad")
        table = raw_table_for(spec, n_rows=4)
        table["category"] = np.asarray(["grip", "grip", "none", None], dtype=object)
        table["anomaly"] = np.asarray(["True", "False", "True", "False"], dtype=object)
        ep = apply_adapter(table, spec, META)
        assert np.all(np.isnan(ep.channel("ctx_anomaly_category")[:3]))
        assert ep.channel("ctx_is_anomaly").tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_label_cells_coerced_as_each_cell_alone(self):
        # repeated strings are coerced once; every other kind of cell,
        # unhashable ones included, still goes through _coerce_cell
        values = [None, "", " Yes ", "false", "1.5", "nan", "abc", 3, 2.5,
                  np.float64(1), float("nan"), [1, 2], " Yes ", "abc", "1.5", None]
        col = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            col[i] = v
        spec = builtin_adapter("voraus_ad")
        table = raw_table_for(spec, n_rows=len(values))
        table["anomaly"] = col
        got = apply_adapter(table, spec, META).channel("ctx_is_anomaly")
        want = np.array([_coerce_cell(v) for v in values])
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(got, want, equal_nan=True)
        assert got.tolist()[2:5] == [1.0, 0.0, 1.5]

    def test_phase_column_pickup(self):
        spec = builtin_adapter("isaac_ur5")
        table = raw_table_for(spec, n_rows=4)
        table["phase"] = np.asarray(["a", "a", "b", "b"], dtype=object)
        ep = apply_adapter(table, spec, META)
        assert list(ep.phase) == ["a", "a", "b", "b"]
        assert not ep.has_channel("ctx_phase")

    def test_default_phase_unknown(self):
        spec = builtin_adapter("voraus_ad")
        ep = apply_adapter(raw_table_for(spec, 5), spec, META)
        assert set(ep.phase) == {"unknown"}

    def test_absent_phase_column_raises(self):
        spec = dataclasses.replace(builtin_adapter("voraus_ad"), phase_column="phse")
        with pytest.raises(MissingRawColumn, match="phse"):
            apply_adapter(raw_table_for(spec, 5), spec, META)


class TestEpisodeInvariants:
    def _args(self, **over):
        T = 5
        base = dict(
            episode_id="e", source_id="s", embodiment="m", task="pick_and_place",
            rate_hz=10.0, t=np.arange(T) / 10.0, channels=np.zeros((T, 2)),
            descriptors=(
                sig("a", "setpoint_pos_0", axis=0),
                sig("b", "feedback_pos_0", SignalRole.FEEDBACK, axis=0),
            ),
            phase=np.full(T, "unknown"), fault=None,
        )
        from sefc.schema import ChannelDescriptor
        base["descriptors"] = (
            ChannelDescriptor("setpoint_pos_0", SignalRole.SETPOINT, "rad", 0),
            ChannelDescriptor("feedback_pos_0", SignalRole.FEEDBACK, "rad", 0),
        )
        base.update(over)
        return base

    def test_valid_episode_constructs(self):
        Episode(**self._args())

    def test_too_short(self):
        with pytest.raises(SchemaViolation):
            Episode(**self._args(t=np.array([0.0]), channels=np.zeros((1, 2)),
                                 phase=np.array(["u"])))

    def test_non_uniform_time_base(self):
        t = np.array([0.0, 0.1, 0.2, 0.31, 0.4])
        with pytest.raises(SchemaViolation):
            Episode(**self._args(t=t))

    def test_channels_are_read_only(self):
        ep = Episode(**self._args())
        with pytest.raises(ValueError):
            ep.channels[0, 0] = 1.0

    def test_unknown_task(self):
        with pytest.raises(SchemaViolation):
            Episode(**self._args(task="juggling"))

    def test_duplicate_channel_name(self):
        from sefc.schema import ChannelDescriptor
        d = ChannelDescriptor("feedback_pos_0", SignalRole.FEEDBACK, "rad", 0)
        with pytest.raises(SchemaViolation, match="'feedback_pos_0'"):
            Episode(**self._args(descriptors=(d, d)))

    @pytest.mark.parametrize("rate_hz", [np.nan, np.inf])
    def test_rate_must_be_finite(self, rate_hz):
        with pytest.raises(SchemaViolation, match="rate_hz must be finite and positive"):
            Episode(**self._args(rate_hz=rate_hz))

    @pytest.mark.parametrize("fault,task", [
        ("no_such", "pick_and_place"),
        ("missing_peg", "pick_and_place"),    # a peg_in_hole type
        (3, "pick_and_place"),
    ])
    def test_fault_must_be_a_type_of_the_task(self, fault, task):
        with pytest.raises(SchemaViolation, match=(
                f"^fault must be null or a fault type of task '{task}', got {fault!r}$")):
            Episode(**self._args(fault=fault, task=task))

    def test_fault_of_the_task_constructs(self):
        assert not Episode(**self._args(fault="missing_peg", task="peg_in_hole")).healthy

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_timestamps_must_be_finite(self, k):
        t = np.arange(5) / 10.0
        t[k] = np.nan
        with pytest.raises(SchemaViolation, match="timestamps must be finite"):
            Episode(**self._args(t=t))


class TestEpisodeColumns:
    @pytest.fixture
    def ep(self):
        from sefc.schema import ChannelDescriptor
        names = ("a_0", "b_1", "c_2", "d_3")
        T = 7
        return Episode(
            episode_id="e", source_id="s", embodiment="m", task="pick_and_place",
            rate_hz=10.0, t=np.arange(T) / 10.0,
            channels=np.random.default_rng(0).normal(size=(T, len(names))),
            descriptors=tuple(ChannelDescriptor(n, SignalRole.SETPOINT, "rad") for n in names),
            phase=np.full(T, "unknown"),
        )

    @pytest.mark.parametrize("names", [["c_2", "a_0"], ["d_3"], ["b_1", "b_1", "a_0", "d_3"]])
    def test_c_ordered_copy_equal_to_column_stack(self, ep, names):
        got = ep.columns(names)
        want = np.column_stack([ep.channel(n) for n in names])
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == (ep.n_steps, len(names))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not np.shares_memory(got, ep.channels)

    def test_missing_channel_names_the_first_absent(self, ep):
        with pytest.raises(MissingChannel) as exc:
            ep.columns(["a_0", "x_9", "y_8"])
        assert exc.value.name == "x_9"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_model_value_names_episode_channel_and_first_row(self, ep, value):
        channels = np.array(ep.channels)
        channels[5, 0] = value                  # a_0, a later row
        channels[3, 2] = value                  # c_2, the first bad row
        bad = ep.replace(channels=channels)
        with pytest.raises(DegenerateEpisode,
                           match=f"^episode 'e': channel 'c_2' holds {value} at row 3$"):
            bad.columns(["a_0", "b_1", "c_2"])
        assert np.array_equal(bad.columns(["b_1", "d_3"]), ep.columns(["b_1", "d_3"]))

    @pytest.mark.parametrize("role", [SignalRole.METADATA, SignalRole.AUXILIARY,
                                      SignalRole.RAW_LABEL])
    def test_carrier_channel_keeps_its_nan(self, ep, role):
        from sefc.schema import ChannelDescriptor
        channels = np.array(ep.channels)
        channels[2, 1] = np.nan
        descriptors = list(ep.descriptors)
        descriptors[1] = ChannelDescriptor("b_1", role, "-")
        carrier = ep.replace(channels=channels, descriptors=tuple(descriptors))
        got = carrier.columns(["a_0", "b_1"])
        assert np.isnan(got[2, 1]) and np.isfinite(np.delete(got, 1, axis=1)).all()

    def test_lookup_by_name(self, ep):
        assert ep.channel_index("c_2") == 2
        assert ep.has_channel("d_3") and not ep.has_channel("d")
        with pytest.raises(KeyError):
            ep.channel_index("d")


class TestExpansion:
    def test_range_and_list_zip(self):
        rows = expand_signal_rows({
            "raw": "{ax}_Pos_{src}", "canonical": "setpoint_pos_{i}",
            "role": "setpoint", "unit": "mm", "axis": "{i}",
            "expand": {"ax": ["X", "Y"], "i": "0..1", "src": "1..2"},
        })
        assert [(r["raw"], r["canonical"], r["axis"]) for r in rows] == [
            ("X_Pos_1", "setpoint_pos_0", 0),
            ("Y_Pos_2", "setpoint_pos_1", 1),
        ]

    def test_plain_row_passthrough(self):
        rows = expand_signal_rows({"raw": "a", "canonical": "ctx_a", "role": "context"})
        assert rows == [{"raw": "a", "canonical": "ctx_a", "role": "context"}]

    def test_mismatched_lengths(self):
        with pytest.raises(SchemaViolation):
            expand_signal_rows({
                "raw": "{a}{b}", "canonical": "c",
                "expand": {"a": "0..2", "b": "0..1"},
            })


def _reference_rle(phase):
    """Per-label ``[label, count]`` loop that ``phase_runs`` must agree with."""
    runs = []
    for label in phase:
        label = str(label)
        if runs and runs[-1][0] == label:
            runs[-1][1] += 1
        else:
            runs.append([label, 1])
    return runs


def _reference_trajectory_runs(labels):
    """Per-step scan to a label -> (start, stop) dict, the last run winning."""
    runs = {}
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            runs[str(labels[start])] = (start, i)
            start = i
    return runs


_TRAJ = plan_trajectory(sample_params(3, RandomizationConfig(), None, "ep_3"))

_LABELS = st.lists(
    st.one_of(st.sampled_from(["a", "b", "grasp"]), st.integers(0, 2), st.text(max_size=2)),
    max_size=40,
)
_CONTAINERS = {
    "list": list,
    "object": lambda labels: np.array(labels, dtype=object),
    "str": lambda labels: np.array([str(x) for x in labels], dtype=str),
}


class TestPhaseRuns:
    def test_empty(self):
        assert phase_runs([]) == []
        assert phase_runs(np.array([], dtype=str)) == []
        assert encode_phase_rle([]) == []

    def test_recurring_label_starts_a_new_run(self):
        assert phase_runs(["a", "b", "a"]) == [("a", 0, 1), ("b", 1, 2), ("a", 2, 3)]
        assert encode_phase_rle(np.array(["a", "a", "b", "a"], dtype=object)) == [
            ["a", 2], ["b", 1], ["a", 1]]

    def test_labels_compare_as_str(self):
        assert phase_runs(np.array([1, "1", 2], dtype=object)) == [("1", 0, 2), ("2", 2, 3)]

    @given(_LABELS, st.sampled_from(sorted(_CONTAINERS)))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_loop(self, labels, container):
        phase = _CONTAINERS[container](labels)
        rle = encode_phase_rle(phase)
        assert rle == _reference_rle(phase)
        # plain str and int, so the YAML sidecar bytes stay the same
        assert all(type(label) is str and type(count) is int for label, count in rle)
        runs = phase_runs(phase)
        assert [stop - start for _, start, stop in runs] == [count for _, count in rle]
        assert all(type(a) is int and type(b) is int for _, a, b in runs)
        if container == "str":
            traj = dataclasses.replace(_TRAJ, phase=phase)
            assert traj.phase_runs() == _reference_trajectory_runs(phase)
