"""Seeded input generators: voraus-format raw CSVs and canonical corpora.

Everything here is a pure function of its seed, so one seed always gives
the same bytes on disk.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# The voraus-AD per-axis signal groups, joints numbered 1..6 as in the source.
VORAUS_AXIS_GROUPS = (
    "target_position", "target_velocity", "target_acceleration", "target_torque",
    "joint_position", "joint_velocity", "motor_position", "motor_velocity",
    "torque_sensor_a", "torque_sensor_b", "motor_torque", "motor_iq", "motor_id",
    "power_motor_el", "power_motor_mech", "power_load_mech", "motor_voltage",
    "computed_inertia", "computed_torque", "supply_voltage", "brake_voltage",
)
VORAUS_GLOBALS = ("robot_voltage", "robot_current", "io_current", "system_current")
# Columns the adapter does not map; ingestion must drop them.
UNMAPPED_AXIS_GROUPS = (
    "motor_temperature", "joint_temperature", "encoder_error",
    "following_error", "bus_load", "fan_speed",
)
RAW_RATE_HZ = 500.0
RAW_ROWS = 2400
# fill_gaps rejects a modeling channel above 0.1% missing: 2/2400 stays below.
MAX_DROPOUTS_PER_COLUMN = 2
DROPOUT_COLUMNS = 16
CATEGORIES = ("none", "axis_weight", "collision_foam", "miss_gripping")
SETTINGS = ("standard", "high_speed")


def _numeric_columns() -> list[str]:
    cols = ["time", "sample"]
    for group in VORAUS_AXIS_GROUPS + UNMAPPED_AXIS_GROUPS:
        cols.extend(f"{group}_{j}" for j in range(1, 7))
    cols.extend(VORAUS_GLOBALS)
    return cols


def write_raw_voraus(path: Path, seed: int, semicolon: bool) -> None:
    """One raw voraus-format recording at 500 Hz.

    Smooth per-column signals quoted at 6 significant digits, a few NA
    dropouts in mapped modeling columns, and the string label columns
    ``anomaly``, ``category`` and ``setting``.  The semicolon dialect uses
    ``;`` between fields, ``,`` as decimal mark and ``NA`` for dropouts;
    the comma dialect leaves dropouts empty.
    """
    rng = np.random.default_rng(seed)
    names = _numeric_columns()
    n_signals = len(names) - 2
    t = np.arange(RAW_ROWS) / RAW_RATE_HZ
    freq = rng.uniform(0.1, 2.0, n_signals)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_signals)
    amp = rng.uniform(0.1, 50.0, n_signals)
    offset = rng.uniform(-20.0, 20.0, n_signals)
    signals = amp * np.sin(2.0 * np.pi * np.outer(t, freq) + phase) + offset
    signals += rng.normal(0.0, 0.01, signals.shape) * amp
    # Dropouts only in mapped columns (index < 21 groups x 6 axes).
    for col in rng.choice(len(VORAUS_AXIS_GROUPS) * 6, DROPOUT_COLUMNS, replace=False):
        k = rng.integers(1, MAX_DROPOUTS_PER_COLUMN + 1)
        signals[rng.choice(RAW_ROWS, k, replace=False), col] = np.nan
    table = np.column_stack([t, np.arange(RAW_ROWS), signals])

    category = CATEGORIES[rng.integers(len(CATEGORIES))]
    labels = ("True" if category != "none" else "False", category,
              SETTINGS[rng.integers(len(SETTINGS))])
    sep = ";" if semicolon else ","
    row_fmt = sep.join(["%.6g"] * table.shape[1] + list(labels)) + "\n"
    header = sep.join(names + ["anomaly", "category", "setting"]) + "\n"
    na = "NA" if semicolon else ""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for row in table:
            line = (row_fmt % tuple(row)).replace("nan", na)
            fh.write(line.replace(".", ",") if semicolon else line)


def write_raw_dirs(root: Path, seed: int, n_files: int) -> tuple[Path, Path]:
    """``n_files`` comma-dialect and ``n_files`` semicolon-dialect recordings."""
    comma, semi = root / "raw_comma", root / "raw_semicolon"
    comma.mkdir(parents=True)
    semi.mkdir(parents=True)
    for k in range(n_files):
        write_raw_voraus(comma / f"rec_c{k:03d}.csv", seed * 1000 + k, semicolon=False)
        write_raw_voraus(semi / f"rec_s{k:03d}.csv", seed * 1000 + 500 + k, semicolon=True)
    return comma, semi
