"""The traced benchmark's hooks still fit the CLI and the models.

``bench/tracer.py`` wraps every ``sefc.cli.cmd_*`` by module attribute and
counts a command as failed unless it returns exit code 0, so each command
must stay a module-level function that returns an int.  It wraps each model
method it times from the class's own ``__dict__``, so each model class must
keep its own ``predict`` and ``loss_and_grad`` entries even where they are
inherited (``predict`` is ``Model``'s, ``TCNNet.loss_and_grad`` is
``SeqNet``'s).  It wraps ``save_model``/``load_model`` where ``anomaly`` and
``forecast`` look them up, so those modules must keep importing them by name.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from sefc.cli import main
from sefc.nnkit import DenseNet, SeqNet, TCNNet

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


def test_tracer_times_each_sequence_class_apart(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer").Tracer()
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(3, 6, 4)), rng.normal(size=(3, 2))
    nets = {
        "TCNNet": (TCNNet(4, hidden=8, dilations=(1, 2), out_dim=2, seed=0), x),
        "SeqNet": (SeqNet(4, hidden=8, tcn_dilations=(1,), n_blocks=1, heads=2,
                          ff_dim=8, out_dim=2, seed=0), x),
        "DenseNet": (DenseNet([24, 8, 2], seed=0), x.reshape(3, 24)),
    }
    for cls, (net, inputs) in nets.items():
        tracer.install()
        try:
            net.predict(inputs)
            net.loss_and_grad(inputs, y)
        finally:
            not_restored = tracer.uninstall()
        assert not_restored == []
        names = sorted(s.name for s in tracer.take() if s.name.startswith("nnkit."))
        assert names == [f"nnkit.{cls}.loss_and_grad", f"nnkit.{cls}.predict"]


def test_tracer_counts_one_span_per_multi_block_step(monkeypatch):
    # the row blocks run through a private method the tracer does not wrap, so
    # ``loss_and_grad.calls`` and ``train_samples_per_s`` still count steps
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer").Tracer()
    rng = np.random.default_rng(0)
    nets = {
        "TCNNet": TCNNet(4, hidden=8, dilations=(1, 2), out_dim=2, seed=0),
        "SeqNet": SeqNet(4, hidden=8, tcn_dilations=(1,), n_blocks=1, heads=2,
                         ff_dim=8, out_dim=2, seed=0),
    }
    for cls, net in nets.items():
        B = 2 * net._block_rows(np.empty((1, 6, 4))) + 1
        x, y = rng.normal(size=(B, 6, 4)), rng.normal(size=(B, 2))
        tracer.install()
        try:
            net.loss_and_grad(x, y)
        finally:
            not_restored = tracer.uninstall()
        assert not_restored == []
        names = [s.name for s in tracer.take() if s.name.startswith("nnkit.")]
        assert names == [f"nnkit.{cls}.loss_and_grad"]


def test_tracer_times_checkpoint_save_and_load(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer").Tracer()
    assert main(["generate", "--out", str(tmp_path / "g"), "--seed", "0",
                 "--n-healthy", "2", "--no-noise"]) == 0
    episodes = tmp_path / "g" / "episodes"
    healthy = tmp_path / "healthy"
    healthy.mkdir()
    for p in episodes.glob("ep_0000[01].*"):
        shutil.copy(p, healthy)
    model = tmp_path / "model"
    commands = {
        "train_anomaly": ["train-anomaly", "--data", str(healthy), "--out", str(model),
                          "--epochs", "1"],
        "score": ["score", "--model", str(model / "anomaly_model.ckpt"),
                  "--data", str(healthy), "--out", str(tmp_path / "score")],
    }
    counts = {}
    for name, argv in commands.items():
        tracer.install()
        try:
            rc = main(argv)
        finally:
            not_restored = tracer.uninstall()
        assert rc == 0
        assert not_restored == []
        names = [s.name for s in tracer.take()]
        counts[name] = (names.count("nnkit.save_model"), names.count("nnkit.load_model"))
    assert counts == {"train_anomaly": (1, 0), "score": (0, 1)}


def test_bench_runs_every_workload_once():
    # one short untraced run of each workload against reference.json: a
    # change that breaks a call the benchmark makes fails here
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, (run.stdout + run.stderr)[-2000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
