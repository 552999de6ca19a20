"""Host-speed reference for the timed end-to-end metrics.

The VM this benchmark was built on runs the same op at speeds up to 2x
apart, in stretches of seconds to minutes (CPU time tracks wall time, so the
process is slowed, not descheduled).  A run's raw median depends on how much
of it fell in each state.  To take that out, every timed interval is
bracketed by fixed reference passes, and its host seconds are rescaled to a
host on which the reference pass takes :data:`REF_S`::

    scaled = host_seconds * REF_S / mean(reference before, reference after)

The reference pass is a pure-Python integer loop followed by a
proportional-fair loop over a fixed 10-user rate matrix, written here with
no schedsim code.  It does the same mix of interpreter work and small numpy
calls as the simulator and slows and speeds with the host the same way,
while no change to ``src/`` can move it.  (Over 35 s windows, either half
alone left 5-10% of the spread on one workload or another; the two together
left 3-5% where the raw medians spread 15-23%.)  Each reading is the median
of three passes, because a single pass now and then reads 2x slow.  The raw
host seconds are kept in each run's full record.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# About the median reference pass, in host seconds, on the 2-core Intel Xeon
# VM the baselines come from (Python 3.11.7, numpy 2.4.6) in its slow, steady
# state.  It only sets the scale of the reported times.
REF_S = 0.0125
_LOOPS = 50_000
_RATES = np.random.default_rng(0).random((1000, 10)) + 0.1


def reference_reading() -> float:
    """Median host seconds of three reference passes."""
    return sorted(reference_pass() for _ in range(3))[1]


def reference_pass() -> float:
    """Host seconds for one fixed integer loop plus proportional-fair loop."""
    t0 = perf_counter()
    s = 0
    for i in range(_LOOPS):
        s += i * i % 7
    avg = np.ones(_RATES.shape[1])
    for rates in _RATES:
        i = int(np.argmax(rates / avg))
        avg *= 0.999
        avg[i] += rates[i] * 0.001
    return perf_counter() - t0


class Scaler:
    """Rescales consecutive timed intervals to the reference host speed.

    Call :meth:`scale` right after each interval; it takes the reference
    reading that closes this interval and opens the next one.
    """

    def __init__(self):
        self.before = reference_reading()
        self.readings = [self.before]

    def scale(self, host_s: float) -> float:
        after = reference_reading()
        self.readings.append(after)
        factor = REF_S / (0.5 * (self.before + after))
        self.before = after
        return host_s * factor
