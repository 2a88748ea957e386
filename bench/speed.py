"""Machine-speed reference for a shared, noisy host.

On the host that defined the benchmark (2 vCPUs, "Intel(R) Xeon(R)
Processor", shared with other tenants) the speed of one process drifts by
+-20 % over seconds, and process CPU time drifts with wall time, so neither
clock is steady.  The drift hits any Python-plus-small-numpy code alike:
the ratio of a workload's rate to the rate of the kernel below, both
measured in alternation, stayed within +-3 % where each alone moved 20 %.

So the benchmark runs this kernel between its measured calls (for a share
of each call's time) and reports every time scaled to a host on which the
kernel runs REF_RATE times per second:

    t_reported = t_measured * kernel_rate_at_that_time / REF_RATE

where the kernel rate at the time of a call is interpolated between the
kernel batches just before and just after it.  Work done in fresh
interpreters (set-up, the CLI) is mostly interpreter start and imports,
which the in-process kernel tracks less well; there the reference is a
fresh interpreter that imports numpy and runs the kernel SPAWN_RUNS times
(this file run as a script), at REF_SPAWN_RATE such processes per second.

The kernel uses numpy only, never sphbary, so a change to the package
cannot move it.  Raw and reference times are both kept in result.json.
"""

from __future__ import annotations

import bisect
import subprocess
import sys
from time import perf_counter

import numpy as np

REF_RATE = 1000.0          # kernel runs per second on the reference host
REF_SPAWN_RATE = 5.0       # reference processes per second on that host
SPAWN_RUNS = 50
SHARE = 0.25               # kernel time per second of measured time

_V = np.random.default_rng(0).normal(size=(16, 3))


def kernel() -> float:
    """About 1 ms of 3-vector numpy calls and Python float arithmetic."""
    a = np.array([0.3, 0.5, 0.8])
    b = np.array([-0.2, 0.9, 0.1])
    s = 0.0
    for _ in range(25):
        c = np.cross(a, b)
        n = float(np.linalg.norm(c))
        a = c / n
        s += float(np.arctan2(n, a @ b)) + float(np.einsum("ij,j->i", _V, a).sum())
    return s


class Speed:
    """A time series of kernel rates; `scale_at(t)` turns seconds measured
    around time t (a perf_counter reading) into reference seconds."""

    def __init__(self, share: float = SHARE, spawn: bool = False):
        self.share = share
        self.spawn = spawn
        self.ref = REF_SPAWN_RATE if spawn else REF_RATE
        self.times: list[float] = []      # midpoint of each kernel batch
        self.rates: list[float] = []      # kernel runs per second in it
        self._owed = 0.0

    def follow(self, measured: float) -> None:
        """Run the kernel for `share` of `measured` seconds, carrying what
        is left over to the next call so that short calls share one batch."""
        self._owed += self.share * measured
        if self._owed <= 0.0 and self.times:
            return
        t0 = perf_counter()
        runs = 0
        while True:
            if self.spawn:
                subprocess.run([sys.executable, __file__], check=True, timeout=60)
            else:
                kernel()
            runs += 1
            spent = perf_counter() - t0
            if spent >= self._owed:
                break
        self._owed -= spent
        self.times.append(t0 + spent / 2)
        self.rates.append(runs / spent)

    def scale_at(self, t: float) -> float:
        """The kernel rate at time t, interpolated between the batches
        around it, relative to the reference rate."""
        i = bisect.bisect(self.times, t)
        if i == 0:
            return self.rates[0] / self.ref
        if i == len(self.times):
            return self.rates[-1] / self.ref
        t1, t2 = self.times[i - 1], self.times[i]
        w = (t - t1) / (t2 - t1)
        return ((1 - w) * self.rates[i - 1] + w * self.rates[i]) / self.ref


if __name__ == "__main__":
    for _ in range(SPAWN_RUNS):
        kernel()
