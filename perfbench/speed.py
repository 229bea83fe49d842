"""Machine-speed probe that takes other tenants' contention out of host times.

On a shared virtual machine the same work of the same program runs up to
~1.9x slower, for seconds to minutes at a time, because other tenants
contend for the core, not because of the program; no median within a
30-second run removes that. So every unit of measured work (a pump
window, one plan compile, one set-up phase, one plan read of a warm
reload) is bracketed by a short fixed pure-Python loop (heap pushes and
pops of small objects, dict stores), timed with the collector off, and
each unit's host time is scaled by

    (REFERENCE_S / local probe time) ** SENSITIVITY

where the local probe time is the geometric mean of the probes just
before and just after the unit, so the unit reads as host seconds on a
machine where the probe takes ``REFERENCE_S``. Probing each unit, not
each pass, matters for short phases: a 10 ms warm reload follows the
contention of its own moment, which a pass-wide median misses.
``SENSITIVITY`` is the log-log slope of the program's unit times against
their local probe times: logged over 10-20 s chunks of repeated passes
of the three workloads on the reference machine, 0.8 gave the smallest
chunk-to-chunk spread of the chunk medians overall (0.03-0.10 for every
kind of unit, against 0.03-0.18 for pass-wide scaling at 0.6). The probe
never calls the program, a change to the program moves the scaled times
in full, and the probe's own time is left out of every unit.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import time
from typing import List

#: Probe time on the reference machine (a 2-vCPU x86_64 VM, CPython
#: 3.11) when it is not contended.
REFERENCE_S = 0.005
SENSITIVITY = 0.8


class _Event:
    __slots__ = ("at", "seq", "payload")

    def __init__(self, at: float, seq: int, payload: dict):
        self.at = at
        self.seq = seq
        self.payload = payload

    def __lt__(self, other: "_Event") -> bool:
        return (self.at, self.seq) < (other.at, other.seq)


def _probe_loop() -> int:
    rng = random.Random(0)
    heap: List[_Event] = []
    table = {}
    for seq in range(2000):
        heapq.heappush(heap, _Event(rng.random(), seq, {"seq": seq}))
        if len(heap) > 500:
            event = heapq.heappop(heap)
            table[event.seq % 997] = event.payload
    return len(table)


def probe() -> float:
    """Seconds one probe loop takes right now."""
    # The probe's garbage is acyclic; with the collector off its time
    # does not depend on the size of the program's heap.
    gc.disable()
    try:
        started = time.perf_counter()
        _probe_loop()
        return time.perf_counter() - started
    finally:
        gc.enable()


def scale(probe_s: float) -> float:
    """The factor that takes host times measured while the probe took
    ``probe_s`` to the reference machine."""
    return (REFERENCE_S / probe_s) ** SENSITIVITY


class Units:
    """Times consecutive units of work, probing between them.

    ``mark()`` closes the current unit and opens the next; the probe runs
    in between, so no unit includes probe time, and each unit is scaled
    by the probes on either side of it.
    """

    def __init__(self) -> None:
        #: host seconds of each closed unit, scaled to the reference machine.
        self.seconds: List[float] = []
        #: the scale factor of each closed unit.
        self.factors: List[float] = []
        #: every probe time, in order.
        self.probes: List[float] = [probe()]
        self._started = time.perf_counter()

    def mark(self) -> float:
        """Close the current unit, open the next; return the closed
        unit's scale factor."""
        elapsed = time.perf_counter() - self._started
        before = self.probes[-1]
        self.restart()
        factor = scale(math.sqrt(before * self.probes[-1]))
        self.seconds.append(elapsed * factor)
        self.factors.append(factor)
        return factor

    def restart(self) -> None:
        """Probe, then open a unit (dropping the open one's time so far)."""
        self.probes.append(probe())
        self._started = time.perf_counter()
