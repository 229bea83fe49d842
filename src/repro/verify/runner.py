"""Benchmark x allocator verification sweeps.

Ties the three verification instruments together over the paper's
workloads: for every (benchmark, allocator) pair the full pipeline is run
and the resulting plan pushed through the :class:`ScheduleValidator`; per
benchmark the allocation instance is differentially checked against the
brute-force oracle (or dominance on large instances); and per benchmark a
seeded fault-injection corpus scores the validator's detection rate.

Used by ``python -m repro.verify`` and by the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cnn.workloads import load_workload
from repro.core.allocation import ALLOCATORS, AllocationProblem
from repro.core.paraconv import ParaConv, ParaConvResult
from repro.core.retiming import analyze_edges
from repro.graph.generators import BENCHMARK_SIZES
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.verify.differential_failover import (
    FailoverDifferentialReport,
    failover_differential,
)
from repro.verify.differential_search import (
    SearchDifferentialReport,
    search_differential,
)
from repro.verify.differential_sim import (
    DEFAULT_SIM_ITERATIONS,
    SimDifferentialReport,
    sim_differential_battery,
)
from repro.verify.mutation import FaultDetectionReport, fault_detection_report
from repro.verify.oracle import DifferentialReport, differential_check
from repro.verify.validator import ScheduleValidator
from repro.verify.violations import VerificationReport


@dataclass
class WorkloadVerification:
    """Everything verified about one workload on one machine."""

    workload: str
    reports: Dict[str, VerificationReport] = field(default_factory=dict)
    differential: Optional[DifferentialReport] = None
    faults: Optional[FaultDetectionReport] = None
    #: full-unroll vs steady-state engine comparisons, keyed by allocator
    #: (empty when the simulation stage was not requested).
    simulation: Dict[str, List[SimDifferentialReport]] = field(
        default_factory=dict
    )
    #: runtime failover differential: faulted-then-failed-over serving
    #: must equal a cold compile on the degraded machine (None when the
    #: failover stage was not requested).
    failover: Optional[FailoverDifferentialReport] = None
    #: search-allocator battery: oracle equality, DP lower bound, anytime
    #: monotonicity and plan validity per machine variant (empty when the
    #: search stage was not requested).
    search: List[SearchDifferentialReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        if any(not report.ok for report in self.reports.values()):
            return False
        if self.differential is not None and not self.differential.ok:
            return False
        if self.faults is not None and not self.faults.ok:
            return False
        if self.failover is not None and not self.failover.ok:
            return False
        if any(not report.ok for report in self.search):
            return False
        for battery in self.simulation.values():
            if any(not report.ok for report in battery):
                return False
        return True

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "ok": self.ok,
            "validator": {
                name: report.as_dict() for name, report in self.reports.items()
            },
            "differential": (
                self.differential.as_dict() if self.differential else None
            ),
            "faults": self.faults.as_dict() if self.faults else None,
            "failover": self.failover.as_dict() if self.failover else None,
            "search": [report.as_dict() for report in self.search],
            "simulation": {
                name: [report.as_dict() for report in battery]
                for name, battery in self.simulation.items()
            },
        }


@dataclass
class SweepOutcome:
    """Aggregate of a whole verification sweep."""

    config: PimConfig
    allocators: List[str]
    workloads: List[WorkloadVerification] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(w.ok for w in self.workloads)

    def as_dict(self) -> Dict[str, object]:
        return {
            "config": self.config.to_dict(),
            "allocators": list(self.allocators),
            "ok": self.ok,
            "workloads": [w.as_dict() for w in self.workloads],
        }

    def summary(self) -> str:
        lines = [
            f"verification sweep on {self.config.describe()}",
            f"allocators: {', '.join(self.allocators)}",
        ]
        for workload in self.workloads:
            status = "ok" if workload.ok else "FAIL"
            errors = sum(
                len(r.errors()) for r in workload.reports.values()
            )
            warnings = sum(
                len(r.warnings()) for r in workload.reports.values()
            )
            extras = []
            if workload.differential is not None:
                mode = (
                    "exhaustive"
                    if workload.differential.exhaustive_checked
                    else "dominance"
                )
                verdict = "ok" if workload.differential.ok else "FAIL"
                extras.append(f"oracle[{mode}]={verdict}")
            if workload.faults is not None:
                extras.append(
                    f"faults={len(workload.faults.detected)}/"
                    f"{len(workload.faults.detected) + len(workload.faults.missed)}"
                )
            if workload.failover is not None:
                verdict = "ok" if workload.failover.ok else "FAIL"
                warm = (
                    f",warm={workload.failover.warm_recompiles}rc"
                    if workload.failover.warm_recompiles is not None
                    else ""
                )
                extras.append(
                    f"failover[{workload.failover.unit}"
                    f"{workload.failover.unit_id}"
                    f"@{workload.failover.fault_iteration}{warm}]={verdict}"
                )
            if workload.simulation:
                batteries = [
                    report
                    for battery in workload.simulation.values()
                    for report in battery
                ]
                passed = sum(1 for r in batteries if r.ok)
                verdict = "ok" if passed == len(batteries) else "FAIL"
                extras.append(f"sim[{passed}/{len(batteries)}]={verdict}")
            if workload.search:
                passed = sum(1 for r in workload.search if r.ok)
                verdict = "ok" if passed == len(workload.search) else "FAIL"
                extras.append(
                    f"search[{passed}/{len(workload.search)}]={verdict}"
                )
            lines.append(
                f"  {workload.workload:<16} {status:<5} "
                f"errors={errors} warnings={warnings} "
                + " ".join(extras)
            )
        lines.append(f"overall: {'ok' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def verify_workload(
    graph: TaskGraph,
    config: PimConfig,
    allocators: Optional[List[str]] = None,
    validator: Optional[ScheduleValidator] = None,
    oracle_limit: int = 16,
    with_differential: bool = True,
    with_faults: bool = True,
    fault_seed: int = 0,
    with_simulation: bool = False,
    sim_iterations: Optional[List[int]] = None,
    sim_vaults: int = 32,
    with_failover: bool = False,
    failover_unit: str = "pe",
    failover_unit_id: int = 0,
    failover_iteration: int = 3,
    failover_batch: int = 20,
    with_search: bool = False,
    search_budgets: Optional[List[int]] = None,
) -> WorkloadVerification:
    """Run the full verification battery for one workload.

    The DP plan's width is reused for the other allocators so all of them
    are validated on the same kernel/grouping decision (isolating the
    allocation policy, exactly like the ablation experiments).
    ``with_failover`` adds the runtime fault-injection differential: a
    served batch that hits a fault and fails over must produce the same
    aggregates as a cold compile on the degraded machine, and a warm
    repeat of the same fault must not recompile.
    """
    names = allocators if allocators is not None else sorted(ALLOCATORS)
    validator = validator or ScheduleValidator()
    outcome = WorkloadVerification(workload=graph.name)

    # The DP pipeline picks the operating width; the other allocators are
    # validated at the same width so the sweep isolates allocation policy.
    # The DP compile runs under the per-pass invariant hooks, so a pipeline
    # regression surfaces as a PassInvariantError *naming the broken pass*
    # (the whole-plan validator below only sees the end product).
    from repro.verify.hooks import compile_invariant_hooks

    dp_plan: ParaConvResult = ParaConv(
        config, validate=False, invariant_hooks=compile_invariant_hooks()
    ).run(graph)
    plans: Dict[str, ParaConvResult] = {}
    for name in names:
        if name == "dp":
            plan = dp_plan
        else:
            plan = ParaConv(
                config, allocator_name=name, validate=False
            ).run_at_width(graph, dp_plan.group_width)
        plans[name] = plan
        outcome.reports[name] = validator.validate(plan)

    if with_simulation:
        counts = (
            list(sim_iterations)
            if sim_iterations is not None
            else list(DEFAULT_SIM_ITERATIONS)
        )
        for name, plan in plans.items():
            outcome.simulation[name] = sim_differential_battery(
                plan, config=config, iteration_counts=counts,
                num_vaults=sim_vaults,
            )

    if with_differential:
        kernel = dp_plan.schedule.kernel
        timings = analyze_edges(graph, kernel, config)
        capacity = config.total_cache_slots // dp_plan.num_groups
        problem = AllocationProblem.from_timings(timings, capacity)
        outcome.differential = differential_check(
            problem, exhaustive_limit=oracle_limit
        )
    if with_faults:
        outcome.faults = fault_detection_report(
            dp_plan, validator=validator, seed=fault_seed
        )
    if with_failover:
        outcome.failover = failover_differential(
            graph,
            config,
            unit=failover_unit,
            unit_id=failover_unit_id,
            fault_iteration=failover_iteration,
            iterations=failover_batch,
            validator=validator,
        )
    if with_search:
        outcome.search = search_differential(
            graph,
            config,
            budgets=search_budgets,
            validator=validator,
            oracle_limit=oracle_limit,
            seed=fault_seed,
        )
    return outcome


def run_verification_sweep(
    config: Optional[PimConfig] = None,
    benchmarks: Optional[List[str]] = None,
    allocators: Optional[List[str]] = None,
    validator: Optional[ScheduleValidator] = None,
    oracle_limit: int = 16,
    with_differential: bool = True,
    with_faults: bool = True,
    fault_seed: int = 0,
    with_simulation: bool = False,
    sim_iterations: Optional[List[int]] = None,
    sim_vaults: int = 32,
    with_failover: bool = False,
    failover_unit: str = "pe",
    failover_unit_id: int = 0,
    failover_iteration: int = 3,
    failover_batch: int = 20,
    with_search: bool = False,
    search_budgets: Optional[List[int]] = None,
) -> SweepOutcome:
    """Verify benchmarks x allocators on one machine configuration.

    ``benchmarks`` accepts any name in the workload registry — the 12
    paper benchmarks (the default sweep), the CNN-derived partitions and
    the ``randwired-*`` irregular-graph stress set all go through the
    identical battery.
    """
    config = config or PimConfig()
    names = benchmarks if benchmarks is not None else list(BENCHMARK_SIZES)
    allocator_names = (
        allocators if allocators is not None else sorted(ALLOCATORS)
    )
    outcome = SweepOutcome(config=config, allocators=allocator_names)
    for name in names:
        graph = load_workload(name)
        outcome.workloads.append(
            verify_workload(
                graph,
                config,
                allocators=allocator_names,
                validator=validator,
                oracle_limit=oracle_limit,
                with_differential=with_differential,
                with_faults=with_faults,
                fault_seed=fault_seed,
                with_simulation=with_simulation,
                sim_iterations=sim_iterations,
                sim_vaults=sim_vaults,
                with_failover=with_failover,
                failover_unit=failover_unit,
                failover_unit_id=failover_unit_id,
                failover_iteration=failover_iteration,
                failover_batch=failover_batch,
                with_search=with_search,
                search_budgets=search_budgets,
            )
        )
    return outcome
