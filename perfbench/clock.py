"""Wall time scaled to a reference machine speed, by interleaved probes.

On a shared 2-CPU box the same code runs at very different speeds from
second to second: a fixed pure-Python loop measured 75-150 ms within
one minute, and one workload measured 2.7k and 3.4k events/s on two
runs of the same seed.  No run length averages that out, so
:class:`SpeedClock` measures it: a ``SIGALRM`` interval timer
interrupts the process every ``period_s`` and runs a fixed probe in the
handler (no thread, no other process).  The probe's timed pass takes
``REFERENCE_PROBE_S`` when the core runs at its uncontended speed, so
its duration gives the slowdown around it.  When the run has ended,
:meth:`normalize` maps its perf_counter times to reference seconds: time
between probes is divided by the mean slowdown of the probes on either
side, and the probes' own time counts as zero.

The probe cannot tell a slowdown the machine imposes from one the
program causes on its own core, so a change that makes the core itself
slower for everything (not just for the program's own code) is partly
scaled away; the unscaled rate and the mean slowdown are printed with
every run for that reason.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter
from typing import Callable

#: How long one timed probe takes on this box when nothing else contends
#: for its cores (the fastest probes measured 0.25 ms); a slowdown of 1 is
#: that speed.
REFERENCE_PROBE_S = 0.00025


def probe_work() -> int:
    """Fixed pure-Python integer and small-dict work.  Of the probes
    tried (this loop, sorting boxed floats, random reads of a large list
    or dict, and mixes), this one followed the slowdown of both the
    streaming service and the placement loop best: residual 2% per
    second of work, against 7% unscaled."""
    s = 0
    d = {}
    for i in range(2500):
        s += i * i % 7
        d[i & 255] = s
    return s


class SpeedClock:
    """Probe the machine's speed every ``period_s`` while started."""

    def __init__(self, period_s: float = 0.01):
        self.period_s = period_s
        #: Each probe's interval (the whole handler) and the duration of
        #: its timed half.
        self.starts = array("d")
        self.ends = array("d")
        self.durations = array("d")
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        # The first pass brings the probe's code and data back into the
        # caches the program evicted; only the second is timed, so the
        # probe measures the core, not the program's footprint.
        probe_work()
        t1 = perf_counter()
        probe_work()
        t2 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.durations.append(t2 - t1)
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mean_slowdown(self) -> float:
        return (sum(self.durations) / len(self.durations)
                / REFERENCE_PROBE_S) if self.durations else 1.0

    def normalize(self) -> Callable:
        """``F(t)``: reference seconds elapsed up to perf_counter time
        ``t`` (a float or a numpy array), so ``F(b) - F(a)`` is the
        reference duration of [a, b].

        ``F`` is piecewise linear: flat during each probe, and between
        two probes its slope is ``REFERENCE_PROBE_S`` over their mean
        duration.  Before the first probe and after the last, the
        nearest probe sets the slope.
        """
        import numpy as np

        # The handler may append while this runs; it appends durations
        # last, so the first n entries of every array are complete.
        n = len(self.durations)
        starts = np.array(self.starts[:n], dtype=float)
        ends = np.array(self.ends[:n], dtype=float)
        durs = np.array(self.durations[:n], dtype=float)
        if not len(starts):
            return lambda t: t
        gap_dur = np.append((durs[:-1] + durs[1:]) / 2.0, durs[-1])
        slopes = REFERENCE_PROBE_S / gap_dur
        gaps = np.append(starts[1:] - ends[:-1], 0.0)
        # Knots alternate probe start, probe end; F gains nothing over a
        # probe and slope * gap over the gap after it.
        knot_t = np.empty(2 * len(starts) + 2)
        knot_v = np.empty_like(knot_t)
        knot_t[1:-1:2] = starts
        knot_t[2:-1:2] = ends
        at_start = np.concatenate(([0.0], np.cumsum(slopes * gaps)[:-1]))
        knot_v[1:-1:2] = at_start
        knot_v[2:-1:2] = at_start
        span = 1e6  # seconds: any time a run can take
        knot_t[0] = starts[0] - span
        knot_v[0] = -span * REFERENCE_PROBE_S / durs[0]
        knot_t[-1] = ends[-1] + span
        knot_v[-1] = at_start[-1] + span * slopes[-1]

        def F(t):
            return np.interp(t, knot_t, knot_v)

        return F
