"""The outside view of a workload process: CPU, peak RSS, children, shm.

Everything is read from ``/proc`` so the numbers cover worker
processes the program spawns without any cooperation from it.
"""

from __future__ import annotations

import multiprocessing
import os
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SHM_DIR = "/dev/shm"


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` split after the ``(comm)`` field, or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return None
    # comm may contain spaces and parentheses; fields resume after the
    # last ')'.  Index 0 here is field 3 (state) of proc(5).
    return text[text.rindex(")") + 2 :].split()


def _child_cpu_seconds(pid: int) -> float:
    """user+sys of a live child, including children it already reaped."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    utime, stime, cutime, cstime = (int(x) for x in fields[11:15])
    return (utime + stime + cutime + cstime) / _CLK_TCK


def tree_cpu_seconds() -> tuple[float, float]:
    """``(own, children)`` CPU seconds of this process tree so far.

    ``children`` sums live ``multiprocessing`` children and every child
    already reaped (the kernel moves a reaped child's time into the
    parent's ``cutime``), so a worker that exits between two readings
    is not lost from the difference.
    """
    t = os.times()
    children = t.children_user + t.children_system
    for child in multiprocessing.active_children():
        children += _child_cpu_seconds(child.pid)
    # process_time() has nanosecond resolution; /proc and os.times()
    # count clock ticks, which is all the kernel offers for children.
    return time.process_time(), children


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process and its live children, in MiB."""
    pids = [os.getpid()]
    pids.extend(c.pid for c in multiprocessing.active_children())
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def shm_entries() -> set[str]:
    try:
        return set(os.listdir(_SHM_DIR))
    except OSError:
        return set()


def session_pids(sid: int) -> list[int]:
    """Live processes whose session id is ``sid`` (zombies excluded)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None or fields[0] == "Z":
            continue
        if int(fields[3]) == sid:
            out.append(int(entry))
    return out


def affinity() -> list[int]:
    return sorted(os.sched_getaffinity(0))
