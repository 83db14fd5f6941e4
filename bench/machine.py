"""How fast is the machine running right now?

The benchmark was defined on a shared 2-vCPU VM whose cores run at one
of three speeds depending on what the host schedules beside them: a
fixed loop takes 1.0x, 1.4x or 1.7x its best time, flipping every 5 to
60 s, and two busy vCPUs are usually each other's SMT siblings.  Raw
timings of identical code then differ by +-30 % from run to run, which
no amount of measuring inside a 30 s run averages out.

So every timed interval is bracketed by a *burst*: a fixed piece of
interpreter and NumPy work that uses nothing from ``src/``, run on as
many processes at once as the workload keeps busy.  A burst's time
over ``REFERENCE_BURST_S`` is the machine's *slowdown* at that moment,
and CPU-bound timings are divided by the mean slowdown of their two
brackets: they are reported as what they would have been on the
machine in its fast state.  The raw values are kept beside them.

``REFERENCE_BURST_S`` is the burst's time on that VM when quiet.  It
only sets the scale: a change is always compared with its parent on
the same machine, where the constant cancels.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

REFERENCE_BURST_S = 0.0200

_BLOCKS = (np.arange(256 * 64, dtype=np.float64).reshape(256, 64) % 23.0) - 11.0
_WORK = np.empty_like(_BLOCKS)
_OUT = np.empty(_BLOCKS.shape, dtype=np.int16)


def burst() -> float:
    """Seconds taken by the fixed reference work, about 2:1 bytecode to
    NumPy like the batched decoder.  The arrays fit in L2 and nothing
    is allocated, so a burst measures the core, not the allocator or
    the memory bus; element-wise only, because BLAS could spread a
    matrix product over every core."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(230_000):
        acc += i * i
    for _ in range(170):
        np.multiply(_BLOCKS, 1.0625, out=_WORK)
        np.add(_WORK, 0.5, out=_WORK)
        np.rint(_WORK, out=_WORK)
        np.clip(_WORK, -256.0, 255.0, out=_WORK)
        _OUT[...] = _WORK
    return time.perf_counter() - t0


def _current_cpu() -> int:
    with open("/proc/self/stat") as fh:
        text = fh.read()
    return int(text[text.rindex(")") + 2 :].split()[36])    # field 39


class SpeedGauge:
    """Runs bursts on ``lanes`` CPUs at once and reports the slowdown.

    One lane is this process; the others are helper subprocesses, one
    pinned to each CPU.  They are not ``multiprocessing`` children, so
    the workload's CPU and memory accounting never sees them.  For a
    multi-lane sample this process stays on the CPU it is on (moving
    would start the burst on cold caches) and pins itself there for
    the length of the burst, and helpers on *other* CPUs take the
    remaining lanes: the kernel starts a freshly woken process on the
    CPU that woke it, and a burst is over before it would be moved.
    """

    def __init__(self, max_lanes: int) -> None:
        self._cpus = sorted(os.sched_getaffinity(0))
        self._helpers = {}
        if max_lanes > 1:
            self._helpers = {
                cpu: subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
                for cpu in self._cpus
            }
        burst()                     # first call pays NumPy's warm-up
        self.sample(max_lanes)

    def sample(self, lanes: int = 1) -> float:
        """Mean time of two rounds of ``lanes`` concurrent bursts, over
        the reference: 1.0 on the quiet reference machine, more when
        slow."""
        times = []
        for _ in range(2):
            if lanes <= 1 or not self._helpers:
                times.append(burst())
                continue
            here = _current_cpu()
            active = [
                helper for cpu, helper in self._helpers.items() if cpu != here
            ][: lanes - 1]
            for helper in active:
                helper.stdin.write("go\n")
                helper.stdin.flush()
            os.sched_setaffinity(0, {here})
            try:
                times.append(burst())
            finally:
                os.sched_setaffinity(0, self._cpus)
            times.extend(float(helper.stdout.readline()) for helper in active)
        return sum(times) / len(times) / REFERENCE_BURST_S

    def close(self) -> None:
        for helper in self._helpers.values():
            helper.stdin.close()
        for helper in self._helpers.values():
            helper.wait(timeout=10)
        self._helpers = {}


class CorrectedTimer:
    """A stopwatch whose laps are divided by the machine's slowdown."""

    def __init__(self, gauge: SpeedGauge, lanes: int = 1) -> None:
        self.gauge = gauge
        self.lanes = lanes
        self.raw_s = 0.0
        self.corrected_s = 0.0
        self._slowdown = gauge.sample(lanes)
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        """Close the interval since the previous lap (or the start)."""
        raw = time.perf_counter() - self._t0
        after = self.gauge.sample(self.lanes)
        self.raw_s += raw
        self.corrected_s += raw / ((self._slowdown + after) / 2.0)
        self._slowdown = after
        self._t0 = time.perf_counter()


def _helper_main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    burst()
    for _line in sys.stdin:
        print(repr(burst()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_helper_main())
