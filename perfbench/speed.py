"""Host-speed probe for the CPU a job runs on, taken while the program is
paused.

The 2-vCPU virtual machine this benchmark was built on switches each
vCPU between a fast and a slow state, up to twice as slow, for seconds
at a time (see README.md).  Raw wall times then spread by 15-25% between
identical runs.  A job therefore pins itself to one CPU and, every
``PERIOD_S`` of wall time, a timer signal pauses the program and the
signal handler, on the program's own thread, times a fixed loop that
multiplies small series held in dicts the way ``Jet.__mul__`` does.  The
fastest of ``BURST`` loops is the reading, so caches the program left
cold are warm again before the loop is timed, and nothing runs beside
the program while it runs.  ``clock`` turns the readings into a clock
that runs at the reference speed, at which the loop takes ``REF_S``, and
stands still while a probe runs; every benchmark time is read off it.
"""

from __future__ import annotations

import os
import signal
import time

PERIOD_S = 0.05
BURST = 3
SMOOTH = 5
REF_S = 100e-6     # loop time at the reference speed


def pin_to_one_cpu() -> None:
    """Pin the calling process to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# two 16-term series keyed by packed exponents (i, j) -> 8 i + j
_JET = {8 * i + j: complex(i + 1, j) for i in range(4) for j in range(4)}
_OUT: dict = {}
MAX_PROBES = 1 << 16


def _loop() -> float:
    """A truncated product of two 16-term series, as in ``Jet.__mul__``:
    dict lookups and updates, complex products.  It reuses one dict and
    creates no object the garbage collector tracks, so probing does not
    move the program's collections (and with them its peak memory)."""
    t = time.perf_counter()
    for _ in range(2):
        _OUT.clear()
        for k1, v1 in _JET.items():
            for k2, v2 in _JET.items():
                if (k1 >> 3) + (k2 >> 3) + (k1 & 7) + (k2 & 7) <= 6:
                    key = k1 + k2
                    _OUT[key] = _OUT.get(key, 0j) + v1 * v2
    return time.perf_counter() - t


class Speedometer:
    def __init__(self):
        # (start, end, fastest loop seconds) of each probe, in storage
        # allocated up front: the signal handler allocates no memory the
        # program could later find in its way
        self.starts = [0.0] * MAX_PROBES
        self.ends = [0.0] * MAX_PROBES
        self.loops = [0.0] * MAX_PROBES
        self.n = 0

    def probe(self, *_):
        t = time.perf_counter()
        best = _loop()
        for _ in range(BURST - 1):
            best = min(best, _loop())
        if self.n < MAX_PROBES:
            self.starts[self.n] = t
            self.ends[self.n] = time.perf_counter()
            self.loops[self.n] = best
            self.n += 1

    def start(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def clock(self, reference=True):
        """Map perf_counter readings to program seconds: the clock stands
        still during each probe and between probes runs at the rate
        REF_S / loop time, the mean of the (smoothed) rates at both ends
        (``reference=False``: at rate 1, the wall clock less the probes).
        Before the first and after the last probe it keeps the nearest
        rate."""
        import numpy as np

        starts = np.array(self.starts[:self.n])
        ends = np.array(self.ends[:self.n])
        loops = np.array(self.loops[:self.n])
        # a rolling median over SMOOTH probes takes out the jitter of single
        # readings; the host's states last a second or more
        half = SMOOTH // 2
        loops = np.median(np.lib.stride_tricks.sliding_window_view(
            np.pad(loops, half, mode="edge"), SMOOTH), axis=1)
        rate = REF_S / loops if reference else np.ones(self.n)
        gap_rate = (rate[:-1] + rate[1:]) / 2
        knots = np.empty(2 * len(starts))
        knots[0::2], knots[1::2] = starts, ends
        rates = np.zeros(len(knots))          # a probe: the clock stands still
        rates[1:-1:2] = gap_rate
        rates[-1] = rate[-1]
        value = np.concatenate([[0.0], np.cumsum(np.diff(knots) * rates[:-1])])

        def read(t):
            t = np.asarray(t, dtype=float)
            k = np.searchsorted(knots, t, side="right") - 1
            before = k < 0
            k = np.clip(k, 0, len(knots) - 1)
            out = value[k] + (t - knots[k]) * rates[k]
            return np.where(before, (t - knots[0]) * rate[0], out)

        return read
