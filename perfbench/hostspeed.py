"""Host-speed probe: scale measured times to a quiet host.

The benchmark runs on shared hosts whose other tenants slow every core by up
to 2x, for seconds to minutes at a time; a single-threaded Python process
sees it as all of its code running slower, with its CPU time equal to its
wall time.  Best-of-N timing cannot remove a slow stretch that outlasts the
run.  So a fixed pure-Python kernel, which shares no code with spechtex, is
timed next to the work, and each measured duration is multiplied by
``REFERENCE_S / kernel time``: the duration the same work would take on the
host when it runs the kernel in ``REFERENCE_S``.  A change to spechtex moves
the measured durations and leaves the kernel alone, so it moves the scaled
figures by the same share.  ``baseline.py`` records the raw figures of every
run next to the scaled ones, so the baseline file shows what the scaling
removes.
"""

from __future__ import annotations

import time

# Kernel time on an idle core of the host this benchmark was tuned on
# (Intel Xeon, 2.0 GHz, Python 3.11); the scaled figures read as times on
# that host when it is quiet.
REFERENCE_S = 0.002
PROBE_EVERY_S = 0.2


def kernel() -> int:
    """Integer digit loops and dict inserts, the mix the library runs on."""
    acc = 0
    seen = {}
    for a in range(1500):
        x = a * 7919 + 13
        digits = 0
        while x:
            x, r = divmod(x, 3)
            digits += r
        seen[(a, digits)] = digits
        acc += len(seen) & 7
    return acc


def probe() -> float:
    """The kernel's time now: the faster of two back-to-back runs."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return min(times)


class HostClock:
    """Scale factor for durations, refreshed by a probe every PROBE_EVERY_S."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._refresh()

    def _refresh(self) -> None:
        self.probes.append(probe())
        self.factor = REFERENCE_S / self.probes[-1]
        self._due = time.perf_counter() + PROBE_EVERY_S

    def tick(self) -> None:
        """Call between timed calls; probes again when the last probe is old."""
        if time.perf_counter() >= self._due:
            self._refresh()
