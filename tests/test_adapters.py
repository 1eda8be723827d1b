"""Table-driven transcription checks: every shipped adapter row against an
independently expanded expectation table (raw name, canonical name, role,
unit)."""

import pytest

from adapter_expectations import EXPECTED_BY_SOURCE, KUKA_ABSENT_EXPECTED
from conftest import channel_for_raw
from sefc.schema import builtin_adapter


@pytest.mark.parametrize("source_id", sorted(EXPECTED_BY_SOURCE))
def test_every_expected_row_is_mapped(source_id):
    spec = builtin_adapter(source_id)
    for raw, canonical, role, unit in EXPECTED_BY_SOURCE[source_id]:
        s = channel_for_raw(spec, raw)
        assert s.canonical_name == canonical, f"{source_id}: {raw}"
        assert s.role.value == role, f"{source_id}: {raw}"
        assert s.unit == unit, f"{source_id}: {raw}"


@pytest.mark.parametrize("source_id", sorted(EXPECTED_BY_SOURCE))
def test_no_unexpected_rows(source_id):
    spec = builtin_adapter(source_id)
    expected_raw = {raw for raw, *_ in EXPECTED_BY_SOURCE[source_id]}
    actual_raw = {s.raw_name for s in spec.signals}
    assert actual_raw == expected_raw


def test_kuka_absent_channels():
    spec = builtin_adapter("kuka_kr10")
    assert sorted(spec.absent_channels) == sorted(KUKA_ABSENT_EXPECTED)
    mapped = {s.canonical_name for s in spec.signals}
    assert not mapped & set(spec.absent_channels)


def test_native_rates():
    assert builtin_adapter("isaac_ur5").native_rate_hz == 60.0
    assert builtin_adapter("ur3_lab").native_rate_hz == 100.0
    assert builtin_adapter("kuka_kr10").native_rate_hz == 100.0


def test_voraus_channel_count():
    # 21 per-joint patterns x 6 joints + 7 globals
    assert len(builtin_adapter("voraus_ad").signals) == 21 * 6 + 7
