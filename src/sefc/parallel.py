"""One process per CPU: the toolkit's only fork, wait and kill.

``fork_map`` maps a function over a list with this process and forked
children.  ``sefc generate`` maps its episodes, ``sefc gap`` its canonical
reads, and ``ingest.parse_raw_csv`` the line blocks of one raw file.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Optional

from .errors import SefcError


def fork_map(fn, items: list) -> list:
    """``[fn(item) for item in items]`` on every CPU of this process's affinity mask.

    With ``n`` CPUs (at most one per item), this process maps the share
    ``items[0::n]`` and ``n - 1`` children forked from it map the shares
    ``items[w::n]``.  A child sends back its results, or those before the
    first exception of its share and that exception, as one pickle through
    a pipe; anything else it leaves behind is only what it wrote to files
    or to memory shared with this process, such as an anonymous
    ``mmap``.  The exception first in item order is raised, as in the
    serial loop; only side effects of items after it may differ.  Every
    child is reaped before this returns or raises, and one still running
    when this process raises or is interrupted is killed first.  A child
    that exits without sending its results raises SefcError.
    """
    n = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n = min(len(os.sched_getaffinity(0)), len(items))
    if n <= 1:
        return [fn(item) for item in items]
    children = {}   # pid -> read end of its pipe, for each child not yet reaped
    try:
        for w in range(1, n):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    payload = pickle.dumps(_map_share(fn, items[w::n]))
                    with open(wr, "wb") as fh:
                        fh.write(payload)
                    status = 0
                finally:
                    os._exit(status)
            os.close(wr)
            children[pid] = open(r, "rb")
        shares = [_map_share(fn, items[0::n])]
        lost = []
        for pid, fh in list(children.items()):
            with fh:
                payload = fh.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if payload:
                shares.append(pickle.loads(payload))
            else:
                lost.append(f"worker process {pid} exited with status "
                            f"{os.waitstatus_to_exitcode(status)} without sending its results")
    finally:
        for pid, fh in children.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if lost:
        raise SefcError(lost[0])
    errors = [(w + n * len(results), exc) for w, (results, exc) in enumerate(shares)
              if exc is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    mapped = [None] * len(items)
    for w, (results, _) in enumerate(shares):
        mapped[w::n] = results
    return mapped


def _map_share(fn, share: list) -> tuple[list, Optional[Exception]]:
    """*fn* over *share* up to its first exception, and that exception or None."""
    results = []
    try:
        for item in share:
            results.append(fn(item))
    except Exception as exc:
        return results, exc
    return results, None
