"""Reference kernels, timed next to each operation to calibrate for the host's speed.

On a shared host the speed drifts by 15% over seconds and by up to half
over minutes, in process CPU time as much as in wall time, so the same work
reads differently from run to run.  Each workload names the array size its
operations work on.  The kernel does the kind of work grovermin does, with
no grovermin code in it: Grover steps on a complex register of that size
(phase flip, inversion about the mean, a sample from the cumulative
probabilities) and a little dictionary bookkeeping in Python after each.
Set-ups are calibrated by starting an interpreter that imports numpy.  A
program change cannot move a reference's time; a slower host moves both.
A calibrated time is the measured time scaled by the reference's nominal
time over its time measured around it: seconds on a host where the
reference takes its nominal time.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: Amplitudes the kernel steps through per run, whatever the register size.
WORK = 1 << 19
#: Neighbours on each side whose kernel times calibrate a time with its own.
WINDOW = 2

#: The kernel's median time per array size on the 2-vCPU host where the
#: benchmark was defined (Python 3.11, numpy 2.4, one thread).
NOMINAL_S = {1 << 10: 0.018, 1 << 20: 0.033, 1 << 22: 0.13}
NOMINAL_START_S = 0.23


class Reference:
    def __init__(self, size: int):
        self.size = size
        self.steps = max(1, WORK // size)
        self.nominal_s = NOMINAL_S[size]

    def time(self) -> float:
        """Seconds for one run of the kernel; its arrays are allocated afresh, like the program's."""
        t0 = time.perf_counter()
        amps = np.full(self.size, self.size**-0.5, dtype=np.complex128)
        marked = np.zeros(self.size, dtype=bool)
        marked[::7] = True
        book = {}
        for step in range(self.steps):
            np.negative(amps, out=amps, where=marked)
            amps = 2 * amps.mean() - amps
            cumulative = np.cumsum(np.abs(amps) ** 2)
            index = int(np.searchsorted(cumulative, 0.5 * cumulative[-1]))
            for j in range(40):
                book[j] = (index + j * step) % 13
        return time.perf_counter() - t0

    def calibrate(self, seconds: list[float], reference_s: list[float]) -> list[float]:
        """Times measured in a row, each at the kernel's nominal speed.

        ``reference_s[i]`` is the kernel's time around ``seconds[i]``.  Each
        time is scaled by the median kernel time of its own and its
        ``WINDOW`` neighbours on each side, since one kernel run jitters by
        more than the host's speed drifts between two operations.
        """
        return [
            s * self.nominal_s / statistics.median(reference_s[max(0, i - WINDOW): i + WINDOW + 1])
            for i, s in enumerate(seconds)
        ]


class StartReference(Reference):
    """Starting a fresh interpreter that imports numpy: the part of a set-up grovermin has no say in.

    Set-up times are calibrated by it, since a process start reads files,
    maps libraries and runs import code, work unlike the kernel's.
    """

    def __init__(self):
        self.nominal_s = NOMINAL_START_S

    def time(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        return time.perf_counter() - t0


SETUP_REFERENCE = StartReference()
