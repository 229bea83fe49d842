"""Steady-state profiles: one converged run per residue class, then arithmetic.

The paper's cost split ``R_max * p + N * p`` makes a converged batch's
marginal cost a constant per period. The ``columnar_steady`` engine
already exploits it inside one run: it simulates the transient, detects a
``q``-round limit cycle at boundary ``c``, splices ``(N - c) // q`` cycles
forward in O(1) and simulates the epilogue. A :class:`SteadyProfile`
exploits it *across* runs of the same plan on the same machine.

Exactness. Every ``N``-dependent decision of the engine before ``c`` (when
to materialize an iteration, whether a candidate period is worth
confirming) compares ``N`` against a boundary; a run that fast-forwarded
at least one cycle passed all of them, and a larger ``N`` passes them too.
So two fault-free runs that fast-forward converge at the same ``c`` with
the same ``q``, per-cycle counter delta and fingerprint, and the
transient is bit-identical. Two runs with ``N`` and ``N + k*q`` then
splice ``k`` more cycles and simulate the same epilogue, translated by
``k*q`` rounds. They differ only in the spliced cycles:

* every additive counter grows by ``k`` times the per-cycle delta;
* the realized and analytic makespans grow by ``k * q * p``;
* ``rounds_fast_forwarded`` grows by ``k * q``;
* the maxima (lateness, cache peak), the PEs used and the convergence
  observables are unchanged.

The profile therefore keeps one *base* trace per residue class ``N mod q``
(the smallest batch in that class that fast-forwarded) and derives any
larger batch in the class from it. ``repro.verify``'s ``profile``
candidate holds every residue class to the full unroll.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.pim.stats import TrafficStats
from repro.sim.executor import ExecutionTrace
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink

__all__ = ["SteadyProfile"]


class SteadyProfile:
    """Converged-run bases of one plan on one machine, by residue class.

    Args:
        period: the plan's schedule period ``p`` in time units.

    Seed it only with fault-free ``columnar_steady`` traces of a single
    (plan, machine) pair; a trace that did not fast-forward is ignored.
    """

    def __init__(self, period: int):
        self.period = period
        #: convergence boundary ``c``, period ``q`` (rounds) and per-cycle
        #: counter delta shared by every base (None until the first seed).
        self.converged_round: Optional[int] = None
        self.converged_period: Optional[int] = None
        self.cycle_delta: Optional[tuple] = None
        self.steady_fingerprint: Optional[str] = None
        self._bases: Dict[int, ExecutionTrace] = {}

    def seed(self, trace: ExecutionTrace) -> bool:
        """Keep ``trace`` as its class's base if it is the smallest yet.

        Returns True when the trace fast-forwarded (and so belongs to the
        profile), False when it cannot seed one.
        """
        if (
            trace.sim_mode is not SimMode.COLUMNAR_STEADY
            or trace.cycle_delta is None
        ):
            return False
        steady = (
            trace.converged_round, trace.converged_period,
            trace.cycle_delta, trace.steady_fingerprint,
        )
        if self.converged_period is None:
            (self.converged_round, self.converged_period,
             self.cycle_delta, self.steady_fingerprint) = steady
        elif steady != (
            self.converged_round, self.converged_period,
            self.cycle_delta, self.steady_fingerprint,
        ):
            raise ValueError(
                f"trace converged at round {trace.converged_round} "
                f"(q={trace.converged_period}), but the profile holds "
                f"round {self.converged_round} (q={self.converged_period}): "
                "it comes from another plan, machine or a faulted run"
            )
        residue = trace.iterations % self.converged_period
        base = self._bases.get(residue)
        if base is None or trace.iterations < base.iterations:
            self._bases[residue] = trace
        return True

    def derive(self, iterations: int) -> Optional[ExecutionTrace]:
        """The trace of an ``iterations`` batch, or None if not derivable.

        The result equals a real ``columnar_steady`` run field for field,
        except that its sink is a fresh :class:`NullSink`: a derived
        batch emits no records.
        """
        q = self.converged_period
        if q is None:
            return None
        base = self._bases.get(iterations % q)
        if base is None or iterations < base.iterations:
            return None
        k = (iterations - base.iterations) // q
        (stats_delta, memory_delta, spills, instances, transfers, busy,
         lateness, events) = self.cycle_delta
        # The engine keeps PE-side and memory-side counters apart and
        # merges them at the end, so one cycle adds both deltas.
        stats = TrafficStats(**{
            name: value + k * (on_pe + in_memory)
            for (name, value), on_pe, in_memory in zip(
                base.stats.as_dict().items(), stats_delta, memory_delta
            )
        })
        shift = k * q * self.period
        return dataclasses.replace(
            base,
            iterations=iterations,
            analytic_makespan=base.analytic_makespan + shift,
            realized_makespan=base.realized_makespan + shift,
            sink=NullSink(),
            stats=stats,
            cache_spills=base.cache_spills + k * spills,
            events_processed=base.events_processed + k * events,
            num_instances=base.num_instances + k * instances,
            num_transfers=base.num_transfers + k * transfers,
            busy_units=base.busy_units + k * busy,
            lateness_total=base.lateness_total + k * lateness,
            pes_used=set(base.pes_used),
            rounds_fast_forwarded=base.rounds_fast_forwarded + k * q,
        )
