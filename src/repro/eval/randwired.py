"""Randwired bench: compile/sim cost as a function of graph irregularity.

``python -m repro.eval randwired`` answers the question the irregular
workload set raises — *what does fan-in cost?* — and writes the answer
as a ``BENCH_randwired/v1`` trajectory file. The paper's layered
benchmarks have bounded fan-in by construction; the ER/WS/BA families
do not (BA hubs and the stitched head vertex are the stress points), so
the bench walks the named randwired registry plus a layered baseline
and records, per workload:

* structure — vertices, edges, max/mean fan-in, critical-path length;
* compile cost — wall seconds for the full pipeline (retiming + DP
  allocation + width search) and the resulting plan shape (period,
  ``R_max``, groups x width);
* serving cost — analytic total time for a fixed batch and the realized
  makespan plus wall seconds of a steady-state discrete-event run.

Rows are ordered by max fan-in so the table reads as a cost curve.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence

from repro.cnn.workloads import load_workload
from repro.core.paraconv import ParaConv
from repro.eval.bench_io import new_report
from repro.graph.analysis import critical_path_length
from repro.graph.randwired import RANDWIRED_SPECS
from repro.pim.config import PimConfig
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import DEFAULT_SIM_MODE, SimMode
from repro.sim.sinks import NullSink

__all__ = [
    "DEFAULT_RANDWIRED_BENCHMARKS",
    "render_randwired",
    "run_randwired_bench",
]

#: The named randwired registry plus one layered paper benchmark as the
#: bounded-fan-in baseline the cost curve starts from.
DEFAULT_RANDWIRED_BENCHMARKS = ("cat",) + tuple(RANDWIRED_SPECS)


def _bench_workload(
    name: str,
    config: PimConfig,
    iterations: int,
    num_vaults: int,
    sim_mode: SimMode,
) -> Dict[str, Any]:
    graph = load_workload(name)
    in_degrees = [graph.in_degree(op.op_id) for op in graph.operations()]
    edges = sum(in_degrees)

    t0 = time.perf_counter()
    plan = ParaConv(config, validate=False).run(graph)
    compile_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    trace = ScheduleExecutor(
        config, num_vaults=num_vaults, mode=sim_mode
    ).execute(plan, iterations=iterations, sink=NullSink())
    sim_wall_seconds = time.perf_counter() - t0

    return {
        "workload": name,
        "vertices": graph.num_vertices,
        "edges": edges,
        "max_fan_in": max(in_degrees),
        "mean_fan_in": edges / graph.num_vertices,
        "critical_path": critical_path_length(graph),
        "compile_seconds": compile_seconds,
        "period": plan.period,
        "max_retiming": plan.max_retiming,
        "num_groups": plan.num_groups,
        "group_width": plan.group_width,
        "total_time_units": plan.total_time(iterations),
        "realized_makespan": trace.realized_makespan,
        "sim_wall_seconds": sim_wall_seconds,
    }


def run_randwired_bench(
    config: Optional[PimConfig] = None,
    benchmarks: Optional[Sequence[str]] = None,
    iterations: int = 200,
    num_vaults: int = 32,
    sim_mode: "SimMode | str" = DEFAULT_SIM_MODE,
) -> Dict[str, Any]:
    """Run the bench and return the ``BENCH_randwired/v1`` report dict."""
    config = config or PimConfig(num_pes=16)
    names = (
        list(benchmarks) if benchmarks else list(DEFAULT_RANDWIRED_BENCHMARKS)
    )
    mode = SimMode.from_name(sim_mode)
    rows = [
        _bench_workload(name, config, iterations, num_vaults, mode)
        for name in names
    ]
    rows.sort(key=lambda row: (row["max_fan_in"], row["workload"]))
    return new_report("randwired", {
        "machine": config.describe(),
        "iterations": iterations,
        "sim_mode": mode.value,
        "rows": rows,
    })


def render_randwired(report: Dict[str, Any]) -> str:
    """Human-readable cost curve of a ``BENCH_randwired`` report."""
    lines = [
        f"Randwired workloads: compile/sim cost vs fan-in "
        f"({report['machine']}, N={report['iterations']})",
        f"{'workload':<16} {'|V|':>4} {'|E|':>4} {'fan-in':>6} "
        f"{'cpath':>5} {'period':>6} {'Rmax':>4} {'plan':>7} "
        f"{'compile':>8} {'total':>8} {'sim wall':>8}",
    ]
    for row in report["rows"]:
        plan_shape = f"{row['num_groups']}x{row['group_width']}"
        lines.append(
            f"{row['workload']:<16} {row['vertices']:>4} {row['edges']:>4} "
            f"{row['max_fan_in']:>6} {row['critical_path']:>5} "
            f"{row['period']:>6} {row['max_retiming']:>4} "
            f"{plan_shape:>7} {row['compile_seconds']:>7.3f}s "
            f"{row['total_time_units']:>8} {row['sim_wall_seconds']:>7.3f}s"
        )
    return "\n".join(lines)
