"""Host speed, sampled while the benchmark runs, to scale wall times.

The baseline host shares its hardware with other jobs. A fixed piece of
work takes 0.65 to 1.5 times its median time from one second to the next,
and the level drifts over minutes; the slowdown shows in CPU time as well,
so it is contention, not descheduling. Raw wall times of two sets of runs of
the same code can therefore differ by more than any useful bound.

The benchmark times a fixed reference kernel, which runs no fracsob code,
before each operation and every PERIOD_REFERENCES reference times during it,
from a SIGALRM handler. The kernel does the kinds of work fracsob does, on
the operation's grid. The operation's wall time t, less the time spent in
the handler, becomes t * (R / r) ** beta, where r is the median reference
time during the operation and (R, beta) is the workload's CALIBRATION
entry: that is the operation's time on the baseline host at its median
speed. A change to fracsob cannot move the reference, so it moves the
scaled time by the factor by which it moves the wall time.
"""

import signal
import statistics
import time

import numpy as np

#: per workload, and for the set-up (against reference(64) after it): the
#: median reference time during the work and beta, the slope of log(work
#: time) on log(reference time) over repeats of one input (calibrate.py).
#: Measured on the baseline host, a 2-vCPU x86_64 Intel Xeon virtual machine
#: with Python 3.11.7, numpy 2.4.6 and one OpenBLAS thread. The reference
#: slows at least as much as fracsob's work when the host is contended, so
#: beta is at most 1.
CALIBRATION = {
    "geodesic_n64": (3.5e-4, 0.8),
    "geodesic_n512": (7.2e-3, 0.6),
    "match_n64": (3.6e-4, 0.9),
    "check_n256": (1.6e-3, 1.0),
    "setup": (3.2e-4, 0.4),
}
#: the sampling period during an operation is this many reference times,
#: so that sampling takes about 2% of the operation's time on any grid
PERIOD_REFERENCES = 50

_INPUTS = {}


def reference(n):
    """Run fixed work of the kinds fracsob does on an n-point grid and return
    its wall time: an n x n complex matrix built column by column by a
    recurrence (as interp_matrix builds it), its product with a field, real
    FFTs of a field and interpreted arithmetic."""
    if n not in _INPUTS:
        rng = np.random.default_rng(n)
        _INPUTS[n] = rng.uniform(0.0, 2.0 * np.pi, n), rng.standard_normal((n, 2))
    pts, field = _INPUTS[n]
    t0 = time.perf_counter()
    matrix = np.ones((n, n), dtype=complex)
    base = np.exp(1j * pts)
    for k in range(1, n // 2):
        matrix[:, k] = matrix[:, k - 1] * base
        matrix[:, n - k] = np.conj(matrix[:, k])
    matrix @ field
    for _ in range(8):
        np.fft.irfft(np.fft.rfft(field, axis=0) * 0.5, n=n, axis=0)
    total = 0.0
    for k in range(300):
        total += k * 0.5
    return time.perf_counter() - t0


def scale(key, reference_s):
    """Factor that turns the wall time of CALIBRATION[key]'s work, measured
    while the reference took reference_s, into a time at the baseline host's
    median speed."""
    nominal, beta = CALIBRATION[key]
    return (nominal / reference_s) ** beta


class Sampler:
    """Samples reference(n) on entry and every PERIOD_REFERENCES reference
    times until exit.

    Only one may be active, in the main thread. ``handler_s`` is the wall
    time spent in the handler, to be taken out of the block's time.
    """

    def __init__(self, n):
        self.n = n

    def __enter__(self):
        self.samples = [reference(self.n)]
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        period = PERIOD_REFERENCES * self.samples[0]
        signal.setitimer(signal.ITIMER_REAL, period, period)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference(self.n))
        self.handler_s += time.perf_counter() - t0

    def reference_s(self):
        """Median reference time over the block."""
        return statistics.median(self.samples)
