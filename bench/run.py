"""Seeded benchmark of the sefc batch toolkit.

Usage, from the repository root:

    python3 bench/run.py --workload corpus_io --seed 0 --seconds 45 --trace 0

``--workload all`` runs every workload in turn, each in a fresh process.  One process is one
closed-loop client: each CLI command (through ``sefc.cli.main``) or library
call is issued after the previous one returns.  Set-up (import, warm-up
and seeded input generation) is repeated ``SETUP_REPEATS`` times and
reported as ``setup_s``; then whole iterations of the workload run until
``--seconds`` have passed, each in fresh directories, and every timing is
the median over iterations.  A fixed pure-Python probe is timed before the
first set-up and after each set-up and iteration.  The gated ``setup_s`` and
``total_s`` are scaled by ``PROBE_REF_S`` over the mean of the probes on
either side, to the reference host speed, because neighbours on a shared
host change its speed by tens of percent for minutes at a time; the plain
wall times are reported as ``setup_wall_s`` and ``total_wall_s``, and the
per-command times are plain wall times.  Every iteration's outputs are
checked against ``reference.json`` (when it holds the seed) and against the
first iteration, and the last iteration's outputs get the workload's deep
checks after the peak memory is read; a failed command, a raised exception
or a wrong output counts as a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` traced and untraced iterations alternate: wrappers
installed from ``tracer.py`` record a span per call of the public ``sefc``
functions and are removed after each traced iteration, and the last line
carries the per-layer metrics.  A full record, with the machine
description, goes to ``.bench_results/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# The probe's time at the reference host speed (about its time on an idle
# 2-vCPU Intel Xeon with Python 3.11); gated times are scaled to this speed.
# Fixed for good: changing it rescales every gated time.
PROBE_REF_S = 0.05
# Training-derived outputs may drift when a change reorders float sums.
REL_TOL = 1e-6
ABS_TOL = 1e-6      # one unit in the last place of the 6-decimal report columns

END_TO_END_UNITS = {
    "setup_s": "s", "total_s": "s", "setup_wall_s": "s", "total_wall_s": "s",
    "generate_s": "s", "ingest_s": "s", "gap_s": "s",
    "train_anomaly_s": "s", "score_s": "s", "eval_forecast_s": "s", "rollout_s": "s",
    "transfer_s": "s", "peak_rss_mb": "MB", "failed_share": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def describe_machine() -> dict:
    import numpy
    import scipy
    import yaml

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """The loaded OpenBLAS's thread count, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# Fixed text for the probe's float formatting and parsing.
_PROBE_FLOATS = [((i * 7919) % 10007) / 97.0 - 51.5 for i in range(30_000)]


def probe() -> float:
    """Wall time of fixed pure-Python work, a measure of the host's speed now.

    The benchmark shares its cores with other tenants, whose load makes the
    same work take up to half as long again for minutes at a time.  The
    probe (an integer loop, then formatting and parsing floats as text, as
    the CSV layers do) slows with the workload, so ``PROBE_REF_S / probe``
    scales a time measured next to it to the reference host speed.  It
    calls no sefc code, so a change to the program cannot move it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(350_000):
        acc += i * i % 7
    text = ",".join(f"{x:.9g}" for x in _PROBE_FLOATS)
    acc += sum(float(t) for t in text.split(","))
    return time.perf_counter() - t0


def scaled(seconds: float, probes: list[float]) -> float:
    """``seconds`` at the reference host speed, given the probes around it."""
    return seconds * PROBE_REF_S / statistics.fmean(probes)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def mismatches(got, want, where="") -> list[str]:
    """Digests and text must match exactly, numbers within REL_TOL/ABS_TOL."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} items, expected {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if (math.isnan(want) and math.isnan(got)) or math.isclose(
                got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def load_reference(workload: str, seed: int):
    path = BENCH_DIR / "reference.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get("seeds", {}).get(str(seed), {}).get(workload)


def check_outputs(wl, state, out: Path, reference, first):
    """Observe one iteration's outputs; return them and the problems per metric.

    Outputs are compared with the stored reference and with the first
    iteration.
    """
    try:
        observed = wl.observe(state, out)
        bad = {m: [] for m in wl.metrics}
        for name, want in (("reference", reference), ("iteration 0", first)):
            if want is not None:
                for m in wl.metrics:
                    bad[m] += mismatches(observed.get(m), want.get(m), f"{name}/{m}")
    except Exception as exc:  # unreadable outputs fail the iteration's operations
        traceback.print_exc()
        return None, {m: [f"outputs not checkable: {exc!r}"] for m in wl.metrics}
    return observed, bad


def deep_check(wl, state, out: Path) -> dict:
    """The workload's deep checks, with a raise counted as a problem of every metric."""
    try:
        return wl.deep_check(state, out)
    except Exception as exc:
        traceback.print_exc()
        return {m: [f"deep check failed: {exc!r}"] for m in wl.metrics}


# ---------------------------------------------------------------------------
# per-layer metrics from traced iterations
# ---------------------------------------------------------------------------

def iteration_layer_values(stats, untraced_s) -> dict:
    """Per-layer values that are sums over one traced iteration."""
    from tracer import NameStats

    get = lambda name: stats.get(name, NameStats())  # noqa: E731
    cmds = [st for name, st in stats.items() if name.startswith("cli.cmd_")]
    return {
        "cli.commands": sum(st.calls for st in cmds),
        "cli.failed": sum(st.raised + sum(1 for rc in st.infos if rc != 0) for st in cmds),
        "ingest.bytes_written": sum(get("ingest.write_canonical").infos),
        "ingest.bytes_read": sum(get("ingest.read_canonical").infos),
        "forecast.rollout_steps": sum(get("forecast.euler_rollout").infos),
        "trace.untraced_s": untraced_s,
    }


def layer_metrics(spec: list[dict], traced: list, untraced_walls: list,
                  traced_walls: list, cpu_util: float) -> dict:
    """Fold traced iterations into the per-layer metrics ``spec`` lists."""
    import numpy as np

    out = {}
    for entry in spec:
        name = entry["name"]
        base, _, stat = name.rpartition(".")
        per_iter = [values.get(name) for _, values in traced]
        if per_iter[0] is not None:
            value = statistics.median(per_iter)
        elif name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(untraced_walls)
        elif name == "cpu_util":
            value = cpu_util
        elif stat in ("calls", "self_s"):
            value = statistics.median(
                getattr(stats[base], stat) if base in stats else 0 for stats, _ in traced)
        elif stat in ("p50_ms", "p90_ms"):
            durations = [d for stats, _ in traced if base in stats
                         for d in stats[base].durations]
            value = (float(np.percentile(durations, 50 if stat == "p50_ms" else 90)) * 1e3
                     if durations else 0.0)
        elif stat == "train_samples_per_s":
            lg = [stats[f"{base}.loss_and_grad"] for stats, _ in traced
                  if f"{base}.loss_and_grad" in stats]
            busy = sum(st.self_s for st in lg)
            value = sum(sum(st.infos) for st in lg) / busy if busy else 0.0
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(wl, seed: int, seconds: float, trace: bool, import_s: float,
                 per_layer_spec: list[dict]) -> dict:
    import workloads
    from tracer import Tracer, self_test, summary

    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        probes = [probe()]
        setups, setups_scaled, state = [], [], None
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workloads.warm_up()
            state = wl.setup(work / f"setup{k}", seed)
            setups.append(time.perf_counter() - t0)
            probes.append(probe())
            setups_scaled.append(scaled(setups[-1], probes[-2:]))
            if k:
                shutil.rmtree(work / f"setup{k - 1}", ignore_errors=True)
        setup_wall_s = import_s + statistics.median(setups)
        setup_s = scaled(import_s, probes[:1]) + statistics.median(setups_scaled)

        reference = load_reference(wl.name, seed)
        problems: list[str] = []
        attempted = failed = 0
        if trace:
            attempted += 1
            tracer_problems = self_test()
            failed += bool(tracer_problems)
            problems += [f"tracer self-test: {p}" for p in tracer_problems]
        tracer = Tracer()
        iterations = []           # (traced, wall, cpu, ops, bad, scaled wall)
        traced_layers = []        # (stats, values) per traced iteration
        first = None
        t_measure = time.perf_counter()
        k = 0
        while (time.perf_counter() - t_measure < seconds
               or (trace and len({it[0] for it in iterations}) < 2)):
            traced = trace and k % 2 == 0
            if k:
                shutil.rmtree(out)
            out = work / f"it{k}"
            out.mkdir(parents=True)
            if traced:
                tracer.install()
            c0, t0 = os.times(), time.perf_counter()
            ops = wl.run(state, out)
            t1 = time.perf_counter()
            c1 = os.times()
            wall = t1 - t0
            probes.append(probe())
            if traced:
                trace_problems = tracer.uninstall()
                stats, untraced_s, nesting = summary(tracer.take(), t0, t1)
                trace_problems += nesting
                problems += [f"iteration {k} tracer: {p}" for p in trace_problems]
                failed += bool(trace_problems)
                attempted += 1
                traced_layers.append((stats, iteration_layer_values(stats, untraced_s)))

            observed, bad = check_outputs(wl, state, out, reference, first)
            first = first or observed
            for op in ops:
                attempted += 1
                if op.error or bad.get(op.metric):
                    failed += 1
            problems += [f"iteration {k} {op.label}: {op.error}" for op in ops if op.error]
            problems += [f"iteration {k}: {p}" for found in bad.values() for p in found]
            cpu = (c1.user - c0.user) + (c1.system - c0.system)
            iterations.append((traced, wall, cpu, ops, bad, scaled(wall, probes[-2:])))
            k += 1

        # The deep checks rebuild whole corpora in memory, so the peak is read
        # before them and covers only set-up and the workload's own operations.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        deep = deep_check(wl, state, out)
        last_ops, last_bad = iterations[-1][3], iterations[-1][4]
        for op in last_ops:
            if deep.get(op.metric) and not (op.error or last_bad.get(op.metric)):
                failed += 1
        problems += [f"iteration {k - 1} deep check: {p}" for found in deep.values()
                     for p in found]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [it for it in iterations if not it[0]]
    e2e = {"setup_s": (setup_s, len(setups)),
           "total_s": (statistics.median(it[5] for it in untraced), len(untraced)),
           "setup_wall_s": (setup_wall_s, len(setups)),
           "total_wall_s": (statistics.median(it[1] for it in untraced), len(untraced))}
    for m in wl.metrics:
        per_iter = [sum(op.seconds for op in it[3] if op.metric == m) for it in untraced]
        e2e[m] = (statistics.median(per_iter), len(per_iter))
    e2e["peak_rss_mb"] = (peak_rss_mb, 1)
    e2e["failed_share"] = (failed / attempted, attempted)

    result = {
        "workload": wl.name, "seed": seed, "trace": int(trace),
        "reference": "checked" if reference is not None else "no stored reference for this seed",
        "correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
        "problems": problems,
        "iterations": {"traced": len(iterations) - len(untraced), "untraced": len(untraced)},
        "iteration_walls_s": [round(it[1], 4) for it in iterations],
        "iteration_cpu_s": [round(it[2], 4) for it in iterations],
        "probe_s": [round(p, 5) for p in probes],
        "end_to_end": {name: {"value": v, "unit": END_TO_END_UNITS[name], "n": n}
                       for name, (v, n) in e2e.items()},
    }
    if trace:
        cpu_util = (sum(it[2] for it in untraced) / sum(it[1] for it in untraced))
        result["per_layer"] = layer_metrics(
            per_layer_spec, traced_layers, [it[5] for it in untraced],
            [it[5] for it in iterations if it[0]], cpu_util)
    return result


def print_table(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"iterations={result['iterations']} reference: {result['reference']}")
    for name, m in result["end_to_end"].items():
        print(f"  {name:<18} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    for name, m in result.get("per_layer", {}).items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for p in result["problems"]:
        print(f"  PROBLEM {p}")


def run_all(args, names) -> int:
    """Each workload in a fresh child process; print one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(*lines[:-1], sep="\n")
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sefc" / "__init__.py").is_file():
        print(f"error: no sefc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, names)

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads  # imports numpy and every sefc module

    import_s = time.perf_counter() - T_START
    machine = describe_machine()
    print("# machine " + json.dumps(machine))
    result = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), import_s, spec["per_layer"])
    result["machine"] = machine
    print_table(result)
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result[section][m["name"]]["value"],
                                "unit": m["unit"]} for m in spec[section]},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the harness itself broke: no result line, non-zero exit
        traceback.print_exc()
        sys.exit(1)
