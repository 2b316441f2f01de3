"""Host counters and the environment record, taken from outside.

:class:`HostCounters` snapshots CPU time, involuntary context switches
and resident memory of the whole process tree: ``getrusage`` for this
process and its reaped children, ``/proc/<pid>`` for live descendants
(pool workers, the gateway child).  Nothing inside the library is
touched.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import re
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:  # the process exited between listing and reading
        return None


def descendants(root: int) -> List[int]:
    """Live descendant pids of ``root`` (from each process's ppid)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read(f"/proc/{entry}/stat")
        if stat is None:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out: List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            out.append(child)
            frontier.append(child)
    return out


def _proc_cpu_s(pid: int) -> float:
    stat = _read(f"/proc/{pid}/stat")
    if stat is None:
        return 0.0
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S  # utime + stime


def _proc_invol(pid: int) -> int:
    """Involuntary context switches summed over every thread of ``pid``."""
    total = 0
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    for tid in tids:
        status = _read(f"/proc/{pid}/task/{tid}/status") or ""
        match = re.search(r"nonvoluntary_ctxt_switches:\s+(\d+)", status)
        if match:
            total += int(match.group(1))
    return total


def _proc_kb(pid: int, key: str) -> int:
    status = _read(f"/proc/{pid}/status") or ""
    match = re.search(rf"{key}:\s+(\d+) kB", status)
    return int(match.group(1)) if match else 0


class HostCounters:
    """Process-tree CPU, context switches and peak memory over a window."""

    def __init__(self) -> None:
        self._start: Optional[Dict[str, float]] = None
        self._start_wall = 0.0
        self._start_live: Dict[int, tuple] = {}

    def _snapshot(self):
        own = resource.getrusage(resource.RUSAGE_SELF)
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        live = {
            pid: (_proc_cpu_s(pid), _proc_invol(pid))
            for pid in descendants(os.getpid())
        }
        totals = {
            "cpu_s": own.ru_utime + own.ru_stime + reaped.ru_utime
            + reaped.ru_stime,
            "invol": float(own.ru_nivcsw + reaped.ru_nivcsw),
        }
        return totals, live

    def start(self) -> None:
        self._start, self._start_live = self._snapshot()
        self._start_wall = time.perf_counter()

    def stop(self) -> Dict[str, float]:
        """Counters since :meth:`start`; call before children are stopped."""
        wall = time.perf_counter() - self._start_wall
        totals, live = self._snapshot()
        cpu = totals["cpu_s"] - self._start["cpu_s"]
        invol = totals["invol"] - self._start["invol"]
        for pid, (cpu_s, n_invol) in live.items():
            before = self._start_live.get(pid, (0.0, 0))
            cpu += cpu_s - before[0]
            invol += n_invol - before[1]
        # Peak resident memory of the tree: each live process's own
        # high-water mark, plus this process's.
        rss_kb = _proc_kb(os.getpid(), "VmHWM") + sum(
            _proc_kb(pid, "VmHWM") for pid in live
        )
        return {
            "wall_s": wall,
            "cpu_per_wall": cpu / wall if wall > 0 else 0.0,
            "invol_per_s": invol / wall if wall > 0 else 0.0,
            "peak_rss_mb": rss_kb / 1024.0,
        }


# --------------------------------------------------------------------- #
# Environment record
# --------------------------------------------------------------------- #
def _blas_threads() -> Optional[int]:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    maps = _read("/proc/self/maps") or ""
    paths = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    })
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: str) -> Dict[str, object]:
    """What a result depends on besides the code: machine and runtime."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "mp_start_method": multiprocessing.get_start_method(),
        "thread_env": {
            key: value for key, value in sorted(os.environ.items())
            if key.endswith("_NUM_THREADS")
        },
    }


def host_layers(counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer host metrics of one measured window."""
    return {
        "host.cpu_per_wall": counters["cpu_per_wall"],
        "host.invol_ctx_switches": counters["invol_per_s"],
    }
