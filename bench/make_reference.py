"""Record the reference outputs that ``run.py`` checks every iteration against.

Usage, from the repository root:

    python3 bench/make_reference.py

For each seed in ``SEEDS`` and each workload this sets up once, runs one
iteration, applies the workload's deep checks and stores what ``observe``
returns in ``bench/reference.json``.  Re-record only when a change is meant to alter
outputs, and say why in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(40)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads

    reference = {}
    for seed in SEEDS:
        for name, wl in workloads.WORKLOADS.items():
            work = ROOT / ".bench_work" / f"reference-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                state = wl.setup(work / "setup", seed)
                out = work / "it0"
                out.mkdir(parents=True)
                errors = [f"{op.label}: {op.error}" for op in wl.run(state, out) if op.error]
                errors += [p for found in wl.deep_check(state, out).values() for p in found]
                if errors:
                    print(f"seed {seed} {name}:", *errors, sep="\n  ", file=sys.stderr)
                    return 1
                reference.setdefault(str(seed), {})[name] = wl.observe(state, out)
            finally:
                shutil.rmtree(work, ignore_errors=True)
        print(f"seed {seed} recorded", flush=True)
    rows = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items())
    (BENCH_DIR / "reference.json").write_text('{"seeds": {\n' + rows + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
