"""Span tracer that wraps public functions of ``sefc`` modules from outside.

A wrapper records one span per call: name, start, end, parent span and
whether the call raised.  Spans stay in memory; ``summary`` turns them into
per-name call counts, self times and latencies after the traced section.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types
from dataclasses import dataclass, field

from sefc.ingest import sidecar_path_for

perf = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    raised: bool = False
    info: object = None          # per-call detail from the target's ``info`` hook


@dataclass(frozen=True)
class Target:
    owner: object                # "module.path", "module.path:Class", or the object itself
    attr: str
    name: str                    # span name, "<layer>.<function>"
    info: object = None          # optional callable(args, result) -> detail


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _len_of_x(args, result):
    return len(args[1])


def _bytes_written(args, result):
    return sum(os.stat(p).st_size for p in result)


def _bytes_read(args, result):
    return os.stat(args[0]).st_size + os.stat(sidecar_path_for(args[0])).st_size


def _rollout_steps(args, result):
    return result.horizon


def _cmd_rc(args, result):
    return result


def _nn(cls: str, method: str, info=None) -> Target:
    return Target(f"sefc.nnkit.models:{cls}", method, f"nnkit.{cls}.{method}", info)


# Wrappers attach to the names callers look up: ``cli`` imports
# ``apply_adapter`` into its own namespace, ``anomaly`` and ``forecast``
# import ``train``/``save_model``/``load_model``, and ``training`` imports
# ``adam_step``, so those are wrapped where they are looked up.
SEFC_TARGETS = (
    *(Target("sefc.cli", f"cmd_{c}", f"cli.cmd_{c}", _cmd_rc) for c in (
        "generate", "ingest", "gap", "train_anomaly", "score", "eval_forecast",
        "eval_transfer", "report")),
    Target("sefc.cli", "apply_adapter", "schema.apply_adapter"),
    Target("sefc.synthgen", "generate_episode", "synthgen.generate_episode"),
    Target("sefc.ingest", "write_canonical", "ingest.write_canonical", _bytes_written),
    Target("sefc.ingest", "read_canonical", "ingest.read_canonical", _bytes_read),
    Target("sefc.ingest", "parse_raw_csv", "ingest.parse_raw_csv"),
    Target("sefc.ingest", "fill_gaps", "ingest.fill_gaps"),
    Target("sefc.ingest", "resample", "ingest.resample"),
    Target("sefc.ingest", "pair_episodes", "ingest.pair_episodes"),
    *(_nn(cls, "loss_and_grad", _len_of_x) for cls in ("DenseNet", "TCNNet", "SeqNet")),
    *(_nn(cls, "predict") for cls in ("DenseNet", "TCNNet", "SeqNet")),
    Target("sefc.nnkit.models:Model", "set_params", "nnkit.set_params"),
    Target("sefc.nnkit.training", "adam_step", "nnkit.adam_step"),
    *(Target(f"sefc.{m}", f, f"nnkit.{f}") for m in ("anomaly", "forecast")
      for f in ("train", "save_model", "load_model")),
    Target("sefc.anomaly", "build_regression_set", "anomaly.build_regression_set"),
    Target("sefc.anomaly", "score_episodes", "anomaly.score_episodes"),
    Target("sefc.anomaly", "bootstrap_ci", "anomaly.bootstrap_ci"),
    Target("sefc.forecast", "make_windows", "forecast.make_windows"),
    Target("sefc.forecast", "euler_rollout", "forecast.euler_rollout", _rollout_steps),
    Target("sefc.forecast", "transfer_eval", "forecast.transfer_eval"),
    Target("sefc.gap", "phase_align", "gap.phase_align"),
    Target("sefc.gap", "pair_metrics", "gap.pair_metrics"),
    Target("sefc.gap", "batch_summary", "gap.batch_summary"),
)


class Tracer:
    """Install wrappers, record spans, restore the originals."""

    def __init__(self, targets=SEFC_TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, target: Target):
        spans, stack, name, info = self.spans, self._stack, target.name, target.info

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, perf(), stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = perf()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            owner = _resolve(target.owner) if isinstance(target.owner, str) else target.owner
            original = (owner.__dict__[target.attr] if isinstance(owner, type)
                        else getattr(owner, target.attr))
            self._originals.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(original, target))

    def uninstall(self) -> list[str]:
        """Restore every original; return the attributes that are not restored."""
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        not_restored = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._originals
            if (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)) is not original
        ]
        self._originals.clear()
        if self._stack:
            not_restored.append(f"span stack not empty: {len(self._stack)}")
        return not_restored

    def take(self) -> list[Span]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


@dataclass
class NameStats:
    calls: int = 0
    raised: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    infos: list = field(default_factory=list)


def summary(spans: list[Span], t0: float, t1: float
            ) -> tuple[dict[str, NameStats], float, list[str]]:
    """Per-name stats, untraced time and nesting problems of the section [t0, t1].

    ``untraced`` is the time in the section inside no wrapped call.  The
    problems list names spans that leave the section or their parent, or
    overlap a sibling.  Without such problems every self time is
    non-negative and self times plus ``untraced`` equal ``t1 - t0`` by
    construction, since each child's duration is taken once from its parent.
    """
    child_time = [0.0] * len(spans)
    last_child_end = [None] * len(spans)
    problems = []
    root_time, last_root_end = 0.0, None
    for i, s in enumerate(spans):
        dur = s.end - s.start
        if s.parent < 0:
            root_time += dur
            if s.start < t0 or s.end > t1:
                problems.append(f"root span {s.name} leaves the traced section")
            if last_root_end is not None and s.start < last_root_end:
                problems.append(f"root span {s.name} overlaps its predecessor")
            last_root_end = s.end
            continue
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end:
            problems.append(f"{s.name} leaves its parent {p.name}")
        prev = last_child_end[s.parent]
        if prev is not None and s.start < prev:
            problems.append(f"{s.name} overlaps a sibling under {p.name}")
        last_child_end[s.parent] = s.end
        child_time[s.parent] += dur
    stats: dict[str, NameStats] = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s.name, NameStats())
        dur = s.end - s.start
        st.calls += 1
        st.raised += s.raised
        st.self_s += dur - child_time[i]
        st.durations.append(dur)
        if s.info is not None:
            st.infos.append(s.info)
    return stats, (t1 - t0) - root_time, problems


def _busy(seconds: float) -> None:
    end = perf() + seconds
    while perf() < end:
        pass


def self_test() -> list[str]:
    """Check the tracer on nested calls of known duration (well under a second).

    The known busy intervals must be attributed to the right names, a
    raising call must be recorded and unwound, uninstall must restore the
    exact original function objects, and ``summary`` must report spans that
    leave the section, leave their parent or overlap a sibling.
    """
    ns = types.SimpleNamespace()

    def inner():
        _busy(0.04)

    def outer():
        _busy(0.06)
        ns.inner()
        ns.inner()

    def boom():
        _busy(0.01)
        raise KeyError("expected")

    ns.inner, ns.outer, ns.boom = inner, outer, boom
    tracer = Tracer([Target(ns, "outer", "t.outer"), Target(ns, "inner", "t.inner"),
                     Target(ns, "boom", "t.boom")])
    tracer.install()
    t0 = perf()
    ns.outer()
    _busy(0.03)
    ns.inner()
    try:
        ns.boom()
    except KeyError:
        pass
    t1 = perf()
    restore_problems = tracer.uninstall()
    stats, untraced, problems = summary(tracer.take(), t0, t1)
    problems += restore_problems
    if (ns.inner, ns.outer, ns.boom) != (inner, outer, boom):
        problems.append("originals not restored")
    expect = {"t.outer": (1, 0.06), "t.inner": (3, 0.12), "t.boom": (1, 0.01)}
    tol = 0.015
    for name, (calls, self_s) in expect.items():
        st = stats.get(name)
        if st is None or st.calls != calls or abs(st.self_s - self_s) > tol:
            problems.append(f"{name}: got {st}, expected {calls} calls, {self_s} s self")
    if stats.get("t.boom") is None or stats["t.boom"].raised != 1:
        problems.append("raising call not recorded")
    if abs(untraced - 0.03) > tol:
        problems.append(f"untraced {untraced}, expected 0.03")
    bad_nesting = [Span("early", -1.0, -1, 0.5), Span("a", 0.6, -1, 0.9),
                   Span("b", 0.7, 1, 1.2), Span("c", 0.8, 1, 0.85), Span("late", 0.95, -1, 2.0)]
    found = summary(bad_nesting, 0.0, 1.0)[2]
    if len(found) != 4:
        problems.append(f"bad nesting gave {found}, expected 4 problems")
    return problems
