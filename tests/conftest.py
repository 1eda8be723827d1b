import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
import yaml

from sefc import synthgen
from sefc.schema import (
    AdapterSpec, ChannelDescriptor, Episode, EpisodeMeta, SignalRole, apply_adapter,
)


def make_episode(
    channels: dict[str, np.ndarray],
    descriptors: dict[str, tuple[SignalRole, str, int | None]],
    rate_hz: float = 100.0,
    phase=None,
    episode_id: str = "test_ep",
    fault: str | None = None,
    task: str = "pick_and_place",
) -> Episode:
    """Assemble an episode from named columns (test helper)."""
    names = list(channels)
    cols = np.column_stack([np.asarray(channels[n], dtype=np.float64) for n in names])
    T = cols.shape[0]
    descs = tuple(
        ChannelDescriptor(n, *descriptors[n]) for n in names
    )
    return Episode(
        episode_id=episode_id,
        source_id="test",
        embodiment="test_arm",
        task=task,
        rate_hz=rate_hz,
        t=np.arange(T) / rate_hz,
        channels=cols,
        descriptors=descs,
        phase=np.full(T, "unknown") if phase is None else np.asarray(phase),
        fault=fault,
    )


def traced_peak_mb(fn, *args) -> float:
    """Peak MiB that tracemalloc traces over one call ``fn(*args)``; what was
    allocated before the call is not counted.  Tracing stops even if it raises."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture
def no_child_left():
    """Fail a test that leaves a child process of this one behind."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cpus(monkeypatch, k):
    """Make this process's affinity mask hold *k* CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def reference_checkpoint(model, extra: dict | None = None) -> str:
    """A version-1 checkpoint: the pure-Python YAML header, ``---``, then one
    ``"{:.17g}"`` value per line, as ``save_model`` wrote it before version 2."""
    header = {"model": model.spec(), "n_params": model.n_params}
    if extra:
        header["extra"] = extra
    return (yaml.dump(header, Dumper=yaml.SafeDumper, sort_keys=False, default_flow_style=False)
            + "---\n" + "".join("{:.17g}\n".format(v) for v in model.get_params()))


def raw_table_for(spec: AdapterSpec, n_rows: int = 12, seed: int = 0) -> dict:
    """A numeric raw table covering every mapped column of an adapter."""
    rng = np.random.default_rng(seed)
    return {s.raw_name: rng.normal(size=n_rows) for s in spec.signals}


def channel_for_raw(spec: AdapterSpec, raw_name: str) -> ChannelDescriptor:
    """The channel ``apply_adapter`` makes of raw column *raw_name* alone
    (the adapter's phase column, never a channel, is left out too)."""
    others = {s.raw_name for s in spec.signals} - {raw_name}
    ep = apply_adapter({raw_name: np.zeros(2)}, dataclasses.replace(spec, phase_column=None),
                       EpisodeMeta("e", "arm", "pick_and_place"), allow_missing=others)
    (desc,) = ep.descriptors
    return desc


@pytest.fixture(scope="session")
def noiseless_episode() -> Episode:
    return synthgen.generate_episode(1234, episode_id="clean", noise=False)


@pytest.fixture(scope="session")
def noisy_episode() -> Episode:
    return synthgen.generate_episode(1234, episode_id="noisy", noise=True)


@pytest.fixture(scope="session")
def twin_pairs() -> list[tuple[Episode, Episode]]:
    """Five (faulty, healthy twin) pairs sharing seeds, with noise."""
    pairs = []
    for k in range(5):
        seed = 9000 + k
        faulty = synthgen.generate_episode(seed, fault="additional_axis_payload",
                                           episode_id=f"tw{k}")
        twin = synthgen.generate_episode(seed, episode_id=f"tw{k}_twin")
        pairs.append((faulty, twin))
    return pairs


@pytest.fixture(scope="session")
def small_anomaly_model():
    """A lightly trained setpoint->effort model for ordering checks."""
    from sefc import anomaly
    from sefc.nnkit import TrainConfig

    episodes = [
        synthgen.generate_episode(7000 + k, episode_id=f"tr{k:03d}")
        for k in range(20)
    ]
    config = TrainConfig(lr0=1e-3, weight_decay=1e-5, batch_size=2048,
                         max_epochs=10, patience=10, seed=0)
    model, _ = anomaly.train_anomaly_model(episodes, config=config)
    return model
