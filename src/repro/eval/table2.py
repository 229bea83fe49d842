"""Table 2: maximum retiming value of Para-CONV on 16/32/64 PEs.

``R_max`` determines the prologue time ``R_max * p``. The paper's shapes:
larger applications retime deeper, and the prologue overhead stays
negligible next to the steady-state gain. (The paper also reports R_max
*decreasing* with PE count; in this reproduction's microtiming the
throughput-optimal operating point often widens with more PEs, which can
deepen retiming even as the prologue *time* falls -- EXPERIMENTS.md
discusses the discrepancy.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.cnn.workloads import PAPER_BENCHMARKS, load_workload
from repro.core.paraconv import ParaConv
from repro.eval.paper_data import PAPER_TABLE2
from repro.eval.reporting import format_table
from repro.pim.config import PAPER_PE_SWEEP, PimConfig
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import DEFAULT_SIM_MODE, SimMode
from repro.sim.sinks import NullSink


@dataclass(frozen=True)
class Table2Row:
    """One benchmark's R_max across the PE sweep."""

    benchmark: str
    max_retiming: Dict[int, int]
    prologue_time: Dict[int, int]
    total_time: Dict[int, int]

    @property
    def average(self) -> float:
        values = list(self.max_retiming.values())
        return sum(values) / len(values) if values else 0.0

    def prologue_fraction(self, pes: int) -> float:
        """Prologue share of the total execution time (should be small)."""
        total = self.total_time[pes]
        return self.prologue_time[pes] / total if total else 0.0


def run_table2(
    base_config: Optional[PimConfig] = None,
    benchmarks: Optional[Sequence[str]] = None,
    pe_counts: Sequence[int] = PAPER_PE_SWEEP,
) -> List[Table2Row]:
    """Measure R_max (and the prologue overhead) per configuration."""
    config = base_config or PimConfig()
    names = list(benchmarks) if benchmarks is not None else list(PAPER_BENCHMARKS)
    rows: List[Table2Row] = []
    for name in names:
        graph = load_workload(name)
        r_max: Dict[int, int] = {}
        prologue: Dict[int, int] = {}
        total: Dict[int, int] = {}
        for pes in pe_counts:
            # Full-array mapping (one iteration over all PEs), matching the
            # paper's Figure 3(b) construction that Table 2 analyzes.
            result = ParaConv(config.with_pes(pes)).run_at_width(graph, pes)
            r_max[pes] = result.max_retiming
            prologue[pes] = result.prologue_time
            total[pes] = result.total_time()
        rows.append(
            Table2Row(
                benchmark=name,
                max_retiming=r_max,
                prologue_time=prologue,
                total_time=total,
            )
        )
    return rows


@dataclass(frozen=True)
class RealizedPrologueRow:
    """Executor-measured counterpart of one Table 2 row.

    Kept separate from :class:`Table2Row` so the golden Table 2 artifact
    schema stays frozen; the analytic prologue share is cross-checked
    against the discrete-event executor, which the steady-state engine
    makes affordable even at the paper's ``N``.
    """

    benchmark: str
    pes: int
    analytic_total: int
    realized_total: int
    prologue_time: int
    converged_round: Optional[int]

    @property
    def realized_prologue_fraction(self) -> float:
        if self.realized_total == 0:
            return 0.0
        return self.prologue_time / self.realized_total


def run_table2_realized(
    base_config: Optional[PimConfig] = None,
    benchmarks: Optional[Sequence[str]] = None,
    pe_counts: Sequence[int] = PAPER_PE_SWEEP,
    iterations: int = 100,
    sim_mode: Union[str, SimMode] = DEFAULT_SIM_MODE,
) -> List[RealizedPrologueRow]:
    """Cross-check Table 2's prologue accounting on the executor."""
    config = base_config or PimConfig()
    mode = SimMode.from_name(sim_mode)
    names = list(benchmarks) if benchmarks is not None else list(PAPER_BENCHMARKS)
    rows: List[RealizedPrologueRow] = []
    for name in names:
        graph = load_workload(name)
        for pes in pe_counts:
            machine = config.with_pes(pes)
            result = ParaConv(machine).run_at_width(graph, pes)
            executor = ScheduleExecutor(machine, mode=mode)
            trace = executor.execute(
                result, iterations=iterations, sink=NullSink()
            )
            rows.append(
                RealizedPrologueRow(
                    benchmark=name,
                    pes=pes,
                    analytic_total=trace.analytic_makespan,
                    realized_total=trace.realized_makespan,
                    prologue_time=result.prologue_time,
                    converged_round=trace.converged_round,
                )
            )
    return rows


def render_table2_realized(rows: Sequence[RealizedPrologueRow]) -> str:
    headers = [
        "benchmark", "PEs", "analytic", "realized", "prologue",
        "realized pro%", "conv round",
    ]
    body = [
        [
            r.benchmark, r.pes, r.analytic_total, r.realized_total,
            r.prologue_time, r.realized_prologue_fraction * 100.0,
            "-" if r.converged_round is None else r.converged_round,
        ]
        for r in rows
    ]
    return format_table(
        headers, body,
        title="Table 2 cross-check: realized prologue share on the "
        "discrete-event executor",
    )


def render_table2(rows: Sequence[Table2Row]) -> str:
    pe_counts = sorted(next(iter(rows)).max_retiming) if rows else []
    headers = ["benchmark"]
    for pes in pe_counts:
        headers += [f"R_max@{pes}", f"paper@{pes}", f"pro%@{pes}"]
    headers.append("average")
    body = []
    for row in rows:
        line: List[object] = [row.benchmark]
        for pes in pe_counts:
            paper = PAPER_TABLE2.get(row.benchmark, {}).get(pes, float("nan"))
            line += [
                row.max_retiming[pes],
                paper,
                row.prologue_fraction(pes) * 100.0,
            ]
        line.append(row.average)
        body.append(line)
    return format_table(
        headers,
        body,
        title="Table 2: maximum retiming value (pro% = prologue share of "
        "total execution time)",
    )
