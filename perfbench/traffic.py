"""Seeded request traces for the serving workloads.

A trace is generated here, from the benchmark's seed, and the program
under test only ever sees the resulting ``(arrival, workload, slo)``
tuples: it receives no seed and no generator.

Arrivals are open-loop Poisson in *virtual* time (exponential gaps,
floored to integer simulated time units). The workload of each request
is drawn from a seeded shuffled deck: every block of ``len(mix)``
consecutive requests holds each workload exactly once. The mix is thus
exactly uniform in every trace, so the host cost of a trace (which is
dominated by which workloads it serves, not by when they arrive) does
not drift with the seed, while the order and arrival times do.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: The fleet's default SLO mix (interactive / standard / batch), restated
#: here so the benchmark draws SLO classes itself.
SLO_MIX: Tuple[Tuple[str, float], ...] = (
    ("interactive", 0.2),
    ("standard", 0.6),
    ("batch", 0.2),
)


@dataclass(frozen=True)
class Arrival:
    """One request of a trace."""

    arrival_units: int
    workload: str
    slo: str


def make_trace(
    mix: Sequence[str],
    count: int,
    mean_interarrival_units: int,
    seed: int,
) -> List[Arrival]:
    """``count`` arrivals over ``mix``; a pure function of its arguments."""
    if not mix:
        raise ValueError("the workload mix is empty")
    if count < 1 or mean_interarrival_units < 1:
        raise ValueError("count and mean_interarrival_units must be >= 1")
    rng = random.Random(seed)
    classes = [name for name, _ in SLO_MIX]
    weights = [weight for _, weight in SLO_MIX]
    deck: List[str] = []
    arrival = 0
    out: List[Arrival] = []
    for _ in range(count):
        if not deck:
            deck = list(mix)
            rng.shuffle(deck)
        arrival += int(-mean_interarrival_units * math.log(1.0 - rng.random()))
        slo = rng.choices(classes, weights)[0]
        out.append(Arrival(arrival, deck.pop(), slo))
    return out

