"""The traced benchmark's hooks still fit the CLI.

``bench/tracer.py`` wraps every ``sefc.cli.cmd_*`` by module attribute and
counts a command as failed unless it returns exit code 0, so each command
must stay a module-level function that returns an int.
"""

import importlib
from pathlib import Path

from sefc.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_wraps_cli_commands(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer").Tracer()
    (tmp_path / "gap_summary.csv").write_text("metric,mean\nx,1\n")
    tracer.install()
    try:
        rc = main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "out")])
    finally:
        not_restored = tracer.uninstall()
    assert rc == 0
    assert not_restored == []
    spans = [s for s in tracer.take() if s.name == "cli.cmd_report"]
    assert len(spans) == 1
    assert spans[0].info == 0 and not spans[0].raised
