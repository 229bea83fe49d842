"""Frame-latency analysis: the throughput/latency trade-off (extension).

The paper optimizes *throughput*; it never reports per-frame latency. Yet
retiming has a latency cost: a frame entering a Para-CONV pipeline is
processed across ``R_max + 1`` rounds (its most-retimed operations ran
``R_max`` rounds before its least-retimed ones), so its sojourn time is
``(R_max + 1) * p``, while the dependency-honoring baseline finishes a
frame in one kernel of length ``L``. This experiment quantifies the
trade-off on every benchmark: Para-CONV wins throughput everywhere, but on
deep-retiming workloads the baseline can win per-frame latency -- a fact
downstream users of the framework should know before adopting it for
latency-critical inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.cnn.workloads import PAPER_BENCHMARKS, load_workload
from repro.core.baseline import SpartaScheduler
from repro.core.paraconv import ParaConv
from repro.eval.reporting import format_table
from repro.pim.config import PimConfig
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink


@dataclass(frozen=True)
class LatencyRow:
    """Per-frame latency vs throughput for one benchmark."""

    benchmark: str
    pes: int
    #: Para-CONV frame sojourn: (R_max + 1) * p.
    paraconv_latency: int
    #: SPARTA frame latency: one dependency-honoring kernel L.
    sparta_latency: int
    #: steady-state frame intervals (time per completed frame).
    paraconv_interval: float
    sparta_interval: float
    #: executor-measured makespan of ``sim_iterations`` Para-CONV
    #: iterations (None when simulation was not requested).
    realized_makespan: Optional[int] = None
    #: analytic makespan of the same simulated run, for the ratio.
    simulated_analytic: Optional[int] = None

    @property
    def latency_ratio(self) -> float:
        """Para-CONV latency over SPARTA latency (> 1: retiming costs)."""
        if self.sparta_latency == 0:
            return 1.0
        return self.paraconv_latency / self.sparta_latency

    @property
    def throughput_ratio(self) -> float:
        """SPARTA interval over Para-CONV interval (> 1: Para-CONV wins)."""
        if self.paraconv_interval == 0:
            return 1.0
        return self.sparta_interval / self.paraconv_interval


def run_latency(
    base_config: Optional[PimConfig] = None,
    benchmarks: Optional[Sequence[str]] = None,
    pes: int = 32,
    sim_mode: Union[str, SimMode, None] = None,
    sim_iterations: int = 200,
) -> List[LatencyRow]:
    """Analytic latency/throughput rows, optionally cross-checked.

    With ``sim_mode`` set the discrete-event executor also measures the
    realized makespan of ``sim_iterations`` Para-CONV iterations --
    affordable even for long runs in ``columnar_steady`` mode.
    """
    config = (base_config or PimConfig()).with_pes(pes)
    names = list(benchmarks) if benchmarks is not None else list(PAPER_BENCHMARKS)
    executor = (
        ScheduleExecutor(config, mode=SimMode.from_name(sim_mode))
        if sim_mode is not None
        else None
    )
    rows: List[LatencyRow] = []
    for name in names:
        graph = load_workload(name)
        para = ParaConv(config).run(graph)
        sparta = SpartaScheduler(config).run(graph)
        realized: Optional[int] = None
        analytic: Optional[int] = None
        if executor is not None:
            trace = executor.execute(
                para, iterations=sim_iterations, sink=NullSink()
            )
            realized = trace.realized_makespan
            analytic = trace.analytic_makespan
        rows.append(
            LatencyRow(
                benchmark=name,
                pes=pes,
                paraconv_latency=(para.max_retiming + 1) * para.period,
                sparta_latency=sparta.iteration_length,
                paraconv_interval=para.period / para.num_groups,
                sparta_interval=sparta.effective_period,
                realized_makespan=realized,
                simulated_analytic=analytic,
            )
        )
    return rows


def render_latency(rows: Sequence[LatencyRow]) -> str:
    simulated = any(r.realized_makespan is not None for r in rows)
    headers = [
        "benchmark", "PEs", "Para latency", "SPARTA latency",
        "latency ratio", "Para interval", "SPARTA interval",
        "throughput ratio",
    ]
    if simulated:
        headers += ["realized", "sim slowdown"]
    body = []
    for r in rows:
        line: List[object] = [
            r.benchmark, r.pes, r.paraconv_latency, r.sparta_latency,
            r.latency_ratio, r.paraconv_interval, r.sparta_interval,
            r.throughput_ratio,
        ]
        if simulated:
            if r.realized_makespan is None or not r.simulated_analytic:
                line += ["-", "-"]
            else:
                line += [
                    r.realized_makespan,
                    r.realized_makespan / r.simulated_analytic,
                ]
        body.append(line)
    return format_table(
        headers, body,
        title="Frame latency vs throughput (extension): retiming trades "
        "per-frame latency for throughput",
    )
