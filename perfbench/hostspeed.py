"""Host speed, sampled between operations, to scale operation times.

The benchmark runs on a few cores of a shared host whose speed swings with
the load of other tenants: on the 2-vCPU VM it was defined on, a fixed piece
of Python took from 0.8 to 1.7 times its usual time within minutes.  A run
of a workload therefore interleaves short samples with its operations: a
fixed piece of work that uses no kripkelab code, timed the same way.  A
sample's time over its reference time is the host's slowdown at that
moment, and an operation's time divided by the slowdown of the samples
around it is the time the operation would have taken at reference speed.
The slowdown a sample sees tracks the slowdown of the workload best when
both do the same kind of work:

* `python` runs plain interpreter work: an arithmetic loop, method calls on
  small objects, and building tuples, frozensets and a dict and reading
  them back.  It is used by the in-process workloads.  The cycle collector
  is off while it runs, so its time does not depend on how much the
  program left on the heap.
* `spawn` starts a bare interpreter, `python -c pass`, with the same
  environment as a `kripkelab` process, for the workload that starts one
  process per operation.

No sample touches the library, so no change to the program moves them; the
raw, unscaled figures are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
import time

# about the median seconds of one sample on the host the benchmark was
# defined on (2 vCPUs, x86_64, Python 3.11); this only sets the unit of
# the scaled figures
REFERENCE_S = {"python": 0.008, "spawn": 0.060}

_POOL = [(i, str(i)) for i in range(4096)]


class _Cell:
    __slots__ = ("x",)

    def __init__(self, x: int) -> None:
        self.x = x

    def add(self, y: int) -> int:
        return self.x + y


def python_work() -> int:
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        for i in range(20000):
            total += i * i % 7
        for i in range(8000):
            total += _Cell(i).add(i)
        d = {}
        for i in range(3000):
            a = _POOL[i * 7919 % 4096]
            b = _POOL[i * 104729 % 4096]
            d[(a, b)] = frozenset((a[0] % 97, b[0] % 89, i % 13))
        return total + sum(1 for (a, _), v in d.items() if a[0] % 97 in v)
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Samples of one run and the slowdown they give."""

    # samples whose median gives an operation's slowdown: the nearest in time
    WINDOW = 9

    def __init__(self, kind: str, every_s: float, cwd=None, env=None) -> None:
        self.kind = kind
        self.every_s = every_s
        self.cwd, self.env = cwd, env
        self.times: list[float] = []
        self.slowdowns: list[float] = []
        self.spent_s = 0.0
        self._last = -float("inf")

    def _sample(self) -> float:
        t = time.perf_counter()
        if self.kind == "python":
            python_work()
        else:
            # no timeout: `wait` with one polls in growing sleeps, which
            # would round the time up; the launcher's deadline ends a hang
            subprocess.run([sys.executable, "-c", "pass"], cwd=self.cwd, env=self.env, check=True)
        return time.perf_counter() - t

    def sample(self, force: bool = False) -> None:
        """Take a sample if `every_s` has passed since the last one."""
        now = time.perf_counter()
        if not force and now - self._last < self.every_s:
            return
        dt = self._sample()
        self.spent_s += dt
        self.times.append(now + dt / 2)
        self.slowdowns.append(dt / REFERENCE_S[self.kind])
        self._last = time.perf_counter()

    def slowdown_at(self, t: float) -> float:
        """Median slowdown of the WINDOW samples nearest to time t."""
        k = min(self.WINDOW, len(self.times))
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - k // 2, len(self.times) - k))
        return statistics.median(self.slowdowns[lo:lo + k])
