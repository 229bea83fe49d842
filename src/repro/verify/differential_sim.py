"""Differential verification of the accelerated simulation engines.

The production engine (:data:`~repro.sim.modes.DEFAULT_SIM_MODE`,
``columnar_steady``) and its siblings -- object ``steady``, kept as the
reference implementation of convergence detection, and ``columnar`` --
claim a strong equivalence: for any plan and any iteration count, a
fast-forwarded run produces *exactly* the same aggregate measurements as
the event-by-event full unroll -- identical traffic counters, energy,
spills, lateness and realized makespan. This module machine-checks that
claim the same way :mod:`repro.verify.oracle` checks the DP allocator:
run each candidate engine and the full unroll on the same plan and
compare their
:meth:`~repro.sim.executor.ExecutionTrace.aggregate_signature` mappings
field by field. The columnar engines must also reproduce the object
reference's convergence round, period and fingerprint digest. The
``profile`` candidate is not an engine: it seeds a
:class:`~repro.sim.profile.SteadyProfile` and holds the batches it
*derives*, in every residue class mod ``q``, to the same standard.

A mismatch is a *simulator* bug, not a schedule bug -- it means the
fingerprint convergence rule accepted a machine state that was not
actually periodic, or the O(1) splice replayed the wrong per-round
deltas. Either would silently corrupt every simulation-backed experiment,
which is why this check rides in the ``python -m repro.verify`` CI gate
(``--sim``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.paraconv import ParaConvResult
from repro.pim.config import PimConfig
from repro.sim.executor import ExecutionTrace, ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.profile import SteadyProfile
from repro.sim.sinks import NullSink

#: iteration counts exercised by default: trivial (no steady state can
#: engage), short (transient-dominated) and paper-scale (fast-forward
#: dominates when the workload converges).
DEFAULT_SIM_ITERATIONS: Tuple[int, ...] = (1, 20, 1000)

#: the candidate that derives batches from a steady-state profile.
PROFILE_CANDIDATE = "profile"

#: candidates held to the full-unroll oracle: engines by mode name, plus
#: :data:`PROFILE_CANDIDATE`. The columnar pair must match not only the
#: aggregate signature but also the object steady reference's convergence
#: observables (round, period, fingerprint digest) -- the array engine
#: re-derives them from its own canonical form, so equality is a real
#: cross-implementation check.
DEFAULT_CANDIDATE_MODES: Tuple[str, ...] = (
    "steady", "columnar", "columnar_steady", PROFILE_CANDIDATE,
)

#: convergence observables a derived or columnar trace must reproduce.
_OBSERVABLES: Tuple[str, ...] = (
    "converged_round", "converged_period",
    "rounds_fast_forwarded", "steady_fingerprint",
    "rounds_simulated",
)


@dataclass(frozen=True)
class SimMismatch:
    """One aggregate field where the two engines disagreed."""

    field: str
    full_value: object
    steady_value: object

    def describe(self) -> str:
        return (
            f"{self.field}: full={self.full_value!r} "
            f"steady={self.steady_value!r}"
        )


@dataclass
class SimDifferentialReport:
    """Outcome of one full-vs-steady comparison on one plan."""

    workload: str
    iterations: int
    mismatches: List[SimMismatch] = field(default_factory=list)
    #: steady-engine observability (None converged_round: the engine ran
    #: the whole horizon event by event, which is still a valid -- if
    #: unaccelerated -- outcome).
    converged_round: Optional[int] = None
    converged_period: Optional[int] = None
    rounds_fast_forwarded: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "iterations": self.iterations,
            "ok": self.ok,
            "mismatches": [
                {
                    "field": m.field,
                    "full": repr(m.full_value),
                    "steady": repr(m.steady_value),
                }
                for m in self.mismatches
            ],
            "converged_round": self.converged_round,
            "converged_period": self.converged_period,
            "rounds_fast_forwarded": self.rounds_fast_forwarded,
        }

    def describe(self) -> str:
        ff = (
            f"converged@{self.converged_round}"
            f"(q={self.converged_period}) "
            f"ff={self.rounds_fast_forwarded}"
            if self.converged_round is not None
            else "no-convergence"
        )
        if self.ok:
            return f"{self.workload} N={self.iterations}: ok [{ff}]"
        details = "; ".join(m.describe() for m in self.mismatches)
        return f"{self.workload} N={self.iterations}: MISMATCH [{ff}] {details}"


def differential_simulate(
    plan: ParaConvResult,
    config: Optional[PimConfig] = None,
    iterations: int = 1000,
    num_vaults: int = 32,
    modes: Sequence[str] = DEFAULT_CANDIDATE_MODES,
) -> SimDifferentialReport:
    """Hold every candidate engine to the full-unroll oracle on one plan.

    All engines run from a fresh machine with a :class:`NullSink` (the
    signature is sink-independent by construction). Every field of
    :meth:`~repro.sim.executor.ExecutionTrace.aggregate_signature` must
    match exactly -- no tolerance: both the fast-forward splice and the
    columnar timelines are integer arithmetic, so any deviation at all
    is a bug. Mismatch fields from non-``steady`` candidates are
    prefixed with the mode name (e.g. ``columnar:events_processed``).

    Beyond the signature, the two steady-detecting engines must agree on
    their convergence observables (round, period, fast-forwarded round
    count and fingerprint digest): the columnar engine computes its
    canonical form from timeline arrays, so this equality is a genuine
    cross-implementation check of the convergence rule itself.

    The ``profile`` candidate runs only when the ``columnar_steady`` run
    fast-forwarded; see :func:`_profile_mismatches`.
    """
    machine = config or plan.config

    def run(mode: str, n: int = iterations):
        return ScheduleExecutor(
            machine, num_vaults=num_vaults, mode=SimMode.from_name(mode)
        ).execute(plan, iterations=n, sink=NullSink())

    full = run("full")
    reference = full.aggregate_signature()
    traces = {
        mode: run(mode) for mode in modes if mode != PROFILE_CANDIDATE
    }
    steady_trace = traces.get("steady")
    report = SimDifferentialReport(
        workload=plan.graph.name,
        iterations=iterations,
        converged_round=(
            steady_trace.converged_round if steady_trace else None
        ),
        converged_period=(
            steady_trace.converged_period if steady_trace else None
        ),
        rounds_fast_forwarded=(
            steady_trace.rounds_fast_forwarded if steady_trace else 0
        ),
    )
    for mode, trace in traces.items():
        prefix = "" if mode == "steady" else f"{mode}:"
        report.mismatches += _diff(
            prefix, reference, trace.aggregate_signature()
        )
    columnar_steady = traces.get("columnar_steady")
    if steady_trace is not None and columnar_steady is not None:
        report.mismatches += _diff(
            "columnar_steady:", _observables(steady_trace),
            _observables(columnar_steady),
        )
    if PROFILE_CANDIDATE in modes:
        report.mismatches += _profile_mismatches(
            plan.period, run, full,
            columnar_steady if columnar_steady is not None
            else run("columnar_steady"),
        )
    return report


def _observables(trace: ExecutionTrace) -> Dict[str, object]:
    return {name: getattr(trace, name) for name in _OBSERVABLES}


def _diff(
    prefix: str, reference: Dict[str, object], candidate: Dict[str, object]
) -> List[SimMismatch]:
    return [
        SimMismatch(
            field=f"{prefix}{key}",
            full_value=reference.get(key),
            steady_value=candidate.get(key),
        )
        for key in sorted(set(reference) | set(candidate))
        if reference.get(key) != candidate.get(key)
    ]


def _profile_mismatches(
    period: int,
    run: Callable[..., ExecutionTrace],
    full: ExecutionTrace,
    seed: ExecutionTrace,
) -> List[SimMismatch]:
    """Derive an ``N`` sweep over every residue class from a profile.

    ``seed`` is the ``columnar_steady`` trace at the report's batch size;
    if it never fast-forwarded, nothing is derivable and nothing is
    checked. Otherwise the profile is also seeded with the smallest
    batches that splice a cycle, ``c + q .. c + 2q - 1`` (one per
    residue class), and every batch one and two cycles beyond them, plus
    the seed's own size, must derive. Each derived trace must match the
    full unroll's aggregate signature and a real ``columnar_steady``
    run's convergence observables.
    """
    profile = SteadyProfile(period)
    if not profile.seed(seed):
        return []
    q = profile.converged_period
    bases = range(profile.converged_round + q, profile.converged_round + 2 * q)
    for n in bases:
        profile.seed(run("columnar_steady", n))
    sweep = {n + k * q for n in bases for k in (1, 2)} | {seed.iterations}
    mismatches: List[SimMismatch] = []
    for n in sorted(sweep):
        derived = profile.derive(n)
        if derived is None:
            mismatches.append(SimMismatch(
                field=f"profile:N={n}:derivable",
                full_value=True,
                steady_value=False,
            ))
            continue
        own = n == seed.iterations
        mismatches += _diff(
            f"profile:N={n}:",
            (full if own else run("full", n)).aggregate_signature(),
            derived.aggregate_signature(),
        )
        mismatches += _diff(
            f"profile:N={n}:",
            _observables(seed if own else run("columnar_steady", n)),
            _observables(derived),
        )
    return mismatches


def sim_differential_battery(
    plan: ParaConvResult,
    config: Optional[PimConfig] = None,
    iteration_counts: Sequence[int] = DEFAULT_SIM_ITERATIONS,
    num_vaults: int = 32,
) -> List[SimDifferentialReport]:
    """One plan across several batch sizes (transient and steady regimes)."""
    return [
        differential_simulate(
            plan, config=config, iterations=n, num_vaults=num_vaults
        )
        for n in iteration_counts
    ]
