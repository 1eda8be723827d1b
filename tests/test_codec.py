"""Byte identity of the canonical-episode and checkpoint codecs.

The reference writers below are the per-cell ``"{:.17g}"`` formatters and
the pure-Python YAML dumper the array codec replaced.  Every canonical file
written now must match them byte for byte, and every value read back must
carry the same bits as ``float()`` on the written cell.  Checkpoints are
written and read in version 2 only (raw float64 payload): every file must
match a per-value reference writer and read back with the same bits.
"""

import dataclasses
import hashlib
import io
import string
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_episode
from sefc import codec, ingest
from sefc.cli import main
from sefc.forecast import _NETS
from sefc.ingest import encode_phase_rle, read_canonical, write_canonical
from sefc.nnkit import DenseNet, load_model, save_model
from sefc.schema import EpisodeMeta, SignalRole, apply_adapter, builtin_adapter

FIXTURES = Path(__file__).parent / "fixtures"

NAN = float("nan")
INF = float("inf")
SPECIALS = [
    NAN, -NAN, INF, -INF, 0.0, -0.0,
    5e-324, -5e-324,                                # smallest subnormals
    2.2250738585072009e-308,                        # largest subnormal
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    1e-300, 1e300, 0.1, 1 / 3,
]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FLOATS = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(width=64),
    st.integers(0, 2**64 - 1).map(_from_bits),      # any bit pattern, NaN payloads included
)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _random_bits(rng, shape) -> np.ndarray:
    a = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    a.ravel()[: len(SPECIALS)] = SPECIALS
    return a


# --- reference (per-cell) writers and reader ----------------------------------

def reference_rows(a: np.ndarray) -> str:
    return "".join(",".join("{:.17g}".format(v) for v in row) + "\n" for row in a)


def reference_parse(text: str) -> np.ndarray:
    return np.array([[float(c) for c in line.split(",")] for line in text.splitlines()])


def reference_csv(ep) -> str:
    return ",".join(["t_s", *ep.channel_names]) + "\n" + reference_rows(
        np.column_stack((ep.t, ep.channels)))


def reference_meta(ep) -> dict:
    return {
        "episode_id": ep.episode_id,
        "source_id": ep.source_id,
        "embodiment": ep.embodiment,
        "task": ep.task,
        "rate_hz": float(ep.rate_hz),
        "fault": ep.fault,
        "healthy": bool(ep.healthy),
        "phase_rle": encode_phase_rle(ep.phase),
        "channels": [{"name": d.canonical_name, "role": d.role.value,
                      "unit": d.unit, "axis": d.axis} for d in ep.descriptors],
    }


def reference_sidecar(ep) -> str:
    return yaml.dump(reference_meta(ep), Dumper=yaml.SafeDumper, sort_keys=False,
                     default_flow_style=False)


def reference_checkpoint_v2(model) -> bytes:
    header = {"format": 2, "model": model.spec(), "n_params": model.n_params}
    return (yaml.dump(header, Dumper=yaml.SafeDumper, sort_keys=False,
                      default_flow_style=False).encode("utf-8")
            + b"---\n" + b"".join(int(u).to_bytes(8, "little") for u in _bits(model.get_params())))


DESC = {"a": (SignalRole.SETPOINT, "rad", 0), "b": (SignalRole.FEEDBACK, "rad/s", 1),
        "c": (SignalRole.CONTEXT, "-", None)}


def _episode(channels: np.ndarray):
    return make_episode({n: channels[:, j] for j, n in enumerate(DESC)}, DESC,
                        phase=["p0"] * (len(channels) - 1) + ["p1"],
                        fault="unstable_platform")


# --- float rows ---------------------------------------------------------------

class TestFloatRows:
    @given(arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 6)),
                  elements=FLOATS))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_reference_and_read_back(self, a):
        buf = io.StringIO()
        codec.write_float_rows(buf, a)
        text = buf.getvalue()
        assert text == reference_rows(a)
        back = codec.read_float_rows(text, a.shape[1], "x")
        assert np.array_equal(_bits(back), _bits(reference_parse(text)))

    def test_many_blocks_and_split_columns(self):
        a = _random_bits(np.random.default_rng(0), (1000, 7))
        buf = io.StringIO()
        codec.write_float_rows(buf, a[:, 0], a[:, 1:])
        text = buf.getvalue()
        assert text == reference_rows(a)
        back = codec.read_float_rows(text, 7, "x")
        assert np.array_equal(_bits(back), _bits(reference_parse(text)))


# --- canonical episodes ---------------------------------------------------------

class TestCanonicalBytes:
    @given(arrays(np.float64, st.tuples(st.integers(2, 40), st.just(3)), elements=FLOATS))
    @settings(max_examples=100, deadline=None)
    def test_episode_files_match_reference(self, channels):
        ep = _episode(channels)
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, sidecar = write_canonical(ep, tmp)
            text = csv_path.read_bytes().decode("utf-8")
            assert text == reference_csv(ep)
            assert sidecar.read_bytes().decode("utf-8") == reference_sidecar(ep)
            back = read_canonical(csv_path)
        expected = reference_parse(text.split("\n", 1)[1])
        assert np.array_equal(_bits(back.t), _bits(expected[:, 0]))
        assert np.array_equal(_bits(back.channels), _bits(expected[:, 1:]))
        assert back.t.flags.c_contiguous and back.channels.flags.c_contiguous

    def test_pure_python_yaml_writes_the_same_bytes(self, tmp_path, noisy_episode, monkeypatch):
        fast = write_canonical(noisy_episode, tmp_path / "fast")
        monkeypatch.setattr(codec, "_DUMPER", yaml.SafeDumper)
        monkeypatch.setattr(codec, "_LOADER", yaml.SafeLoader)
        ingest._channels_yaml.cache_clear()   # dump the channel block again, in Python
        slow = write_canonical(noisy_episode, tmp_path / "slow")
        for a, b in zip(fast, slow):
            assert a.read_bytes() == b.read_bytes()
        back = read_canonical(slow[0])
        assert np.array_equal(_bits(back.channels), _bits(noisy_episode.channels))

    def test_sidecars_of_alternating_layouts(self, tmp_path, noisy_episode):
        # the channel block is dumped once per layout and reused: every
        # sidecar is still the dump of its whole meta, across layouts
        # that alternate or differ in one unit only
        table = ingest.parse_raw_csv(FIXTURES / "voraus_sample.csv", ingest.CsvDialect())
        voraus = apply_adapter(table, builtin_adapter("voraus_ad"),
                               EpisodeMeta("voraus", "ur5", "pick_and_place"))
        descs = list(noisy_episode.descriptors)
        descs[3] = dataclasses.replace(descs[3], unit="deg")
        one_unit = noisy_episode.replace(episode_id="one_unit", descriptors=tuple(descs))
        hits = ingest._channels_yaml.cache_info().hits
        for i, ep in enumerate([noisy_episode, voraus, noisy_episode, one_unit]):
            _, sidecar = write_canonical(ep, tmp_path / str(i))
            text = sidecar.read_text(encoding="utf-8")
            assert text == codec.dump_yaml(reference_meta(ep)) == reference_sidecar(ep)
        assert "unit: deg" in text
        assert ingest._channels_yaml.cache_info().hits > hits
        assert isinstance(ingest._channels_yaml.cache_info().maxsize, int)


# --- checkpoints -----------------------------------------------------------------

SPECIAL_BITS = [int(b) for b in _bits(SPECIALS)] + [
    0x7FF0000000000001, 0xFFF0000000000001,         # signalling NaNs
    0x7FF8DEADBEEF0001, 0xFFFFFFFFFFFFFFFF,         # quiet NaNs with payloads
]


class TestCheckpointBytes:
    @given(arrays(np.uint64, 13, elements=st.sampled_from(SPECIAL_BITS)
                  | st.integers(0, 2**64 - 1)))
    @settings(max_examples=100, deadline=None)
    def test_save_matches_reference_and_loads_same_bits(self, bits):
        model = DenseNet([2, 3, 1], seed=0)
        model.set_params(bits.view(np.float64))
        assert np.array_equal(_bits(model.get_params()), bits)
        with tempfile.TemporaryDirectory() as tmp:
            path = save_model(Path(tmp) / "m.ckpt", model, extra={})
            assert path.read_bytes() == reference_checkpoint_v2(model)
            loaded, _ = load_model(path)
        assert np.array_equal(_bits(loaded.get_params()), bits)

    def test_many_blocks(self, tmp_path):
        model = DenseNet([18, 64, 6], seed=0)
        model.set_params(_random_bits(np.random.default_rng(1), model.n_params))
        path = save_model(tmp_path / "m.ckpt", model, extra={})
        assert path.read_bytes() == reference_checkpoint_v2(model)
        loaded, _ = load_model(path)
        assert np.array_equal(_bits(loaded.get_params()), _bits(model.get_params()))


# sha256 of the checkpoint `save_model` writes for `_NETS[kind](6, seed=0)`
# (numpy 2.4, x86-64).  The spec, the parameter order and the initial values
# of both sequence kinds must not move: digests of the same content were
# first recorded, in the version-1 layout, while TCNNet and SeqNet were
# separate classes.
GOLDEN_CHECKPOINTS_V2 = {
    "tcn": "6301641041607b7a04f0182ad16ce8a8ef82409686fb6624aaec28516024686c",
    "tcn_transformer": "ef09814dba4f01e98fba8da470bfd4e2b9d33f05b1b3eb4ddd4cdc3c1f814e0c",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_CHECKPOINTS_V2))
def test_sequence_checkpoint_digests(tmp_path, kind):
    net = _NETS[kind](6, seed=0)
    path = save_model(tmp_path / "m.ckpt", net, extra={})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CHECKPOINTS_V2[kind]
    loaded, _ = load_model(path)
    assert type(loaded) is type(net)
    assert np.array_equal(_bits(loaded.get_params()), _bits(net.get_params()))
    again = save_model(tmp_path / "again.ckpt", loaded, extra={})
    assert path.read_bytes() == again.read_bytes()


# --- YAML sidecars ---------------------------------------------------------------

NAMES = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=40)
ASCII = st.text(string.printable, max_size=120)
SIDECARS = st.fixed_dictionaries({
    "episode_id": NAMES | ASCII,
    "source_id": NAMES,
    "embodiment": NAMES,
    "task": NAMES,
    "rate_hz": st.floats(allow_nan=True, allow_infinity=True),
    "fault": st.none() | NAMES,
    "healthy": st.booleans(),
    "phase_rle": st.lists(st.tuples(NAMES | ASCII, st.integers(1, 10**6)).map(list),
                          max_size=12),
    "channels": st.lists(st.fixed_dictionaries({
        "name": NAMES,
        "role": st.sampled_from([r.value for r in SignalRole]),
        "unit": st.sampled_from(["rad", "rad/s", "Nm", "%", "-", "m/rad", "kg*m/s",
                                 "m/s^2", "degC", "bool"]) | ASCII,
        "axis": st.none() | st.integers(0, 11),
    }), max_size=12),
})


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@given(SIDECARS)
@settings(max_examples=200, deadline=None)
def test_c_and_python_dumpers_agree_on_sidecars(meta):
    style = {"sort_keys": False, "default_flow_style": False}
    assert (yaml.dump(meta, Dumper=yaml.CSafeDumper, **style)
            == yaml.dump(meta, Dumper=yaml.SafeDumper, **style))


@given(st.text(max_size=200), st.lists(st.text(max_size=40), max_size=4))
@settings(max_examples=200, deadline=None)
def test_dump_yaml_matches_pure_python_on_any_text(value, items):
    doc = {"episode_id": value, "phase_rle": [[s, 1] for s in items]}
    assert codec.dump_yaml(doc) == yaml.dump(
        doc, Dumper=yaml.SafeDumper, sort_keys=False, default_flow_style=False)
    assert codec.load_yaml(codec.dump_yaml(doc), "x") == doc


# --- golden digests ----------------------------------------------------------------

# sha256 of `sefc generate --seed 7 --n-healthy 1 --fault-mix
# additional_axis_payload=1`, recorded with the per-cell writer and the
# pure-Python YAML dumper before the array codec replaced them (numpy 2.4,
# x86-64).
GOLDEN = {
    "ep_00000.csv": "4272265aea03da940cc60be90f063b4b4c7ea4e86c0cdfcb1509b98faaf89af4",
    "ep_00000.meta.yaml": "1d97dc81cc43f66f1c87891569786f3616ccc19ff6cb6923907fb85e3984bf7d",
    "ep_00001.csv": "36ff7ff2881c56a7fe687f662622cdd10314514f3aaecec14ea350b6aaf98ed1",
    "ep_00001.meta.yaml": "2c3e016a4832436d6e3cbbe736d7c093462ef7cd9cd4fdd97325880c00dc48f0",
    "ep_00001_twin.csv": "eb3298bc4d6aec7b227d35a01d2e105bf6e4e976a6cb4fd0ccaf02fadb000755",
    "ep_00001_twin.meta.yaml": "0d23b0a0261c55f9641d2659f307181a4c8e8bbbb4f49c419575a0adecb898ea",
}


def test_generate_output_digests(tmp_path):
    rc = main(["generate", "--out", str(tmp_path), "--seed", "7", "--n-healthy", "1",
               "--fault-mix", "additional_axis_payload=1"])
    assert rc == 0
    episodes = tmp_path / "episodes"
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(episodes.iterdir())}
    assert got == GOLDEN
