"""One benchmark run: repeated passes, checks, and the reported metrics.

A run repeats whole passes of its workload (see :mod:`workloads`) until
``seconds`` of passes have elapsed, and never fewer than ``MIN_PASSES``.
Every pass replays the same inputs on fresh state, so its simulated-time
results must repeat exactly (a checked property), and so does its work:
the same pump windows, requests and plan compiles, in the same order.

Every unit of host time is scaled to the reference machine by the speed
probes on either side of it (see :mod:`speed`). Host-time metrics are
then medians over passes: ``ops_per_s`` and the latency percentiles per
pass, ``setup_s``, ``compile_s`` and ``warm_load_s`` over every
repetition of their phase (short phases are repeated within each pass).
Simulated-time metrics come from the first pass.

With ``trace=True`` the run alternates untraced and traced passes and
reports the per-layer metrics instead: raw self and inclusive times of
the wrapped public calls, averaged per traced pass, plus
``trace_overhead``, the median traced pass wall time over the median
untraced one, both scaled by their pass's median speed probe.
"""

from __future__ import annotations

import gc
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.cnn import load_workload

import workloads as wl
from speed import scale
from tracer import LAYERS, Tracer

#: End-to-end metrics and their units, reported by every workload.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "host_latency_p50_ms": "ms",
    "host_latency_p99_ms": "ms",
    "compile_s": "s",
    "warm_load_s": "s",
    "sim_latency_p50_units": "units",
    "sim_latency_p99_units": "units",
    "plan_makespan_geomean_units": "units",
}

COMPILER_PASSES = (
    "validate-graph", "analyze-edges", "zero-dr-prepass", "solve-retiming",
    "dp-allocate", "compact-kernel", "emit-schedule", "validate-schedule",
)

#: Per-layer metrics and their units, reported by every traced run
#: (0 where a workload does not reach the layer).
PER_LAYER: Dict[str, str] = {
    "fleet.router.submit.calls": "count",
    "fleet.router.submit.self_s": "s",
    "fleet.router.pump.self_s": "s",
    "fleet.worker.pump.self_s": "s",
    "fleet.backpressure_retries": "count",
    "fleet.rerouted": "count",
    "fleet.store.get.s": "s",
    "fleet.store.put.s": "s",
    "runtime.server.step.calls": "count",
    "runtime.server.step.self_s": "s",
    "runtime.server.step.p99_ms": "ms",
    "runtime.server.batch_size.mean": "count",
    "runtime.session.run.self_s": "s",
    "runtime.session.compile.s": "s",
    "runtime.plan_cache.get_or_compile.s": "s",
    "runtime.plan_cache.hit_rate": "ratio",
    "runtime.plan_cache.disk_hits": "count",
    "sim.execute.calls": "count",
    "sim.execute.s": "s",
    "sim.iterations": "count",
    "sim.us_per_iteration": "us",
    "sim.converged_share": "ratio",
    "sim.rounds_fast_forwarded_share": "ratio",
    "sim.transient_rounds.mean": "count",
    "sim.realized_over_analytic": "ratio",
    "compiler.paraconv.run.s": "s",
    **{f"compiler.pass.{name}.s": "s" for name in COMPILER_PASSES},
    "compiler.widths_explored": "count",
    "compiler.widths_pruned": "count",
    "graph.load_workload.s": "s",
    **{f"layer.{name}.self_s": "s" for name in (*LAYERS, "other")},
    "traced_wall_s": "s",
    "trace_overhead": "ratio",
}

#: Served batches re-executed on the full-unroll oracle, per run.
ORACLE_SAMPLES = 3
#: Fewest passes per run, so that a median of passes means something.
MIN_PASSES = 3


@dataclass
class RunReport:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    #: figures printed for the reader but not gated.
    info: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


@dataclass
class _Pass:
    result: wl.PassResult
    wall_s: float
    traced: bool
    signature: Tuple[object, ...]
    #: the scale factor of the pass's median probe (see :mod:`speed`).
    scale: float


def _repeat(
    run_pass: Callable[[int, Callable[[str], object]], wl.PassResult],
    seconds: float,
    tracer: Optional[Tracer],
) -> List[_Pass]:
    """Run passes until ``seconds`` elapsed (and at least ``MIN_PASSES``);
    when tracing, traced passes alternate with untraced ones."""
    passes: List[_Pass] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        pass_started = time.perf_counter()
        if traced:
            with tracer.installed():
                loader = tracer.wrap(load_workload, "graph.load_workload")
                result = run_pass(len(passes), loader)
        else:
            result = run_pass(len(passes), load_workload)
        wall = time.perf_counter() - pass_started - sum(result.probes)
        passes.append(
            _Pass(
                result, wall, traced, result.sim_signature(),
                scale(statistics.median(result.probes)),
            )
        )
        if len(passes) > 1:
            # Only the first pass is checked in depth; later fleets would
            # only grow the heap every later pass has to garbage-collect.
            result.router = None
            result.cold_plans = result.warm_plans = {}
    return passes


def _compare_passes(passes: List[_Pass]) -> List[str]:
    return [
        f"pass {index} simulated-time results differ from pass 0"
        for index, item in enumerate(passes[1:], start=1)
        if item.signature != passes[0].signature
    ]


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> RunReport:
    if workload not in wl.WORKLOAD_NAMES:
        raise ValueError(f"unknown workload {workload!r}; known: {wl.WORKLOAD_NAMES}")
    tracer = Tracer() if trace else None
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="stores-", dir=out_dir) as stores:
        if workload == "compile-registry":
            order = wl.compile_order(seed)

            def run_pass(index: int, loader) -> wl.PassResult:
                return wl.compile_pass(order, Path(stores) / f"pass-{index}", loader)

            attempted_per_pass = len(order) * len(wl.COMPILE_PES)
        else:
            spec = wl.SERVE_SPECS[workload]
            arrivals = wl.trace_for(spec, seed)

            def run_pass(index: int, loader) -> wl.PassResult:
                return wl.serve_pass(spec, arrivals, Path(stores) / f"pass-{index}", loader)

            attempted_per_pass = len(arrivals)
        passes = _repeat(run_pass, seconds, tracer)
    # Read before the checks, whose oracle runs are not part of serving.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = passes[0].result
    problems = _compare_passes(passes)
    problems += wl.check_plans(first)
    info: Dict[str, object] = {
        "passes": len(passes),
        "speed_scale": [round(p.scale, 4) for p in passes],
    }
    if workload != "compile-registry":
        for item in passes:
            problems += wl.check_accounting(item.result, attempted_per_pass)
        problems += wl.oracle_check(first, seed, ORACLE_SAMPLES)
        info.update(
            failed_share=sum(p.result.failed for p in passes)
            / (attempted_per_pass * len(passes)),
            realized_over_analytic=wl.realized_over_analytic(first),
            converged_share=wl.converged_share(first),
            backlog_growth=wl.backlog_growth(first.sim_latency_units, spec.pump_every),
            shard_utilization=wl.utilization(first),
            rerouted=first.accounting["rerouted"],
            batches=len(first.batches),
        )

    attempted = attempted_per_pass * len(passes)
    failed = sum(p.result.failed for p in passes)
    if trace:
        assert tracer is not None
        metrics = _per_layer(tracer, passes)
        tracer.dump(out_dir / f"trace-{workload}-seed{seed}.json")
    else:
        metrics = _end_to_end(passes, peak_rss_mb, workload == "compile-registry")
    return RunReport(
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        info=info,
        problems=problems,
    )


def _end_to_end(
    passes: List[_Pass], peak_rss_mb: float, compile_is_work: bool
) -> Dict[str, Tuple[float, str]]:
    results = [p.result for p in passes]
    first = results[0]

    def phase(name: str) -> float:
        return statistics.median(s for r in results for s in getattr(r, name))

    def latency(q: float) -> float:
        return statistics.median(wl.percentile(r.host_latency_ms, q) for r in results)

    work_s = [sum(r.work_s) for r in results]
    values = {
        "setup_s": phase("setup_s"),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": statistics.median(first.ops / s for s in work_s),
        "host_latency_p50_ms": latency(0.50),
        "host_latency_p99_ms": latency(0.99),
        "compile_s": statistics.median(work_s) if compile_is_work else phase("compile_s"),
        "warm_load_s": phase("warm_load_s"),
        "sim_latency_p50_units": wl.percentile(first.sim_latency_units, 0.50),
        "sim_latency_p99_units": wl.percentile(first.sim_latency_units, 0.99),
        "plan_makespan_geomean_units": wl.geomean(
            [plan.total_time() for plan in first.cold_plans.values()]
        ),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _per_layer(tracer: Tracer, passes: List[_Pass]) -> Dict[str, Tuple[float, str]]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    count = len(traced)
    wall = sum(p.wall_s for p in traced)
    self_s = tracer.self_times()
    total_s = tracer.total_times()
    calls = tracer.calls()
    execs = tracer.executions
    iterations = sum(t.iterations for t in execs)
    rounds = sum(t.rounds_simulated + t.rounds_fast_forwarded for t in execs)
    batches = [b for p in traced for _, b in p.result.batches.values()]
    step_ms = [s * 1e3 for s in tracer.durations("runtime.server.step")]
    pass_s: Dict[str, float] = {name: 0.0 for name in COMPILER_PASSES}
    for stats in tracer.compiles:
        for name, seconds in stats.pass_seconds.items():
            pass_s[name] = pass_s.get(name, 0.0) + seconds
    layers = tracer.layer_self_times(wall)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    totals = {
        "fleet.router.submit.calls": calls.get("fleet.router.submit", 0),
        "fleet.router.submit.self_s": self_s.get("fleet.router.submit", 0.0),
        "fleet.router.pump.self_s": self_s.get("fleet.router.pump", 0.0)
        + self_s.get("fleet.router.drain", 0.0),
        "fleet.worker.pump.self_s": self_s.get("fleet.worker.pump", 0.0),
        "fleet.backpressure_retries": sum(p.result.backpressure_retries for p in traced),
        "fleet.rerouted": sum(p.result.accounting.get("rerouted", 0) for p in traced),
        "fleet.store.get.s": self_s.get("fleet.store.get", 0.0),
        "fleet.store.put.s": self_s.get("fleet.store.put", 0.0),
        "runtime.server.step.calls": calls.get("runtime.server.step", 0),
        "runtime.server.step.self_s": self_s.get("runtime.server.step", 0.0),
        "runtime.session.run.self_s": self_s.get("runtime.session.run", 0.0),
        "runtime.session.compile.s": total_s.get("runtime.session.compile", 0.0),
        "runtime.plan_cache.get_or_compile.s": total_s.get(
            "runtime.plan_cache.get_or_compile", 0.0
        ),
        "runtime.plan_cache.disk_hits": tracer.cache_disk_hits,
        "sim.execute.calls": len(execs),
        "sim.execute.s": total_s.get("sim.execute", 0.0),
        "sim.iterations": iterations,
        "compiler.paraconv.run.s": total_s.get("compiler.paraconv.run", 0.0),
        **{f"compiler.pass.{name}.s": pass_s[name] for name in COMPILER_PASSES},
        "compiler.widths_explored": sum(len(s.widths_explored) for s in tracer.compiles),
        "compiler.widths_pruned": sum(len(s.widths_pruned) for s in tracer.compiles),
        "graph.load_workload.s": total_s.get("graph.load_workload", 0.0),
        **{f"layer.{name}.self_s": seconds for name, seconds in layers.items()},
        "traced_wall_s": wall,
    }
    values = {name: value / count for name, value in totals.items()}
    values.update({
        "runtime.server.step.p99_ms": wl.percentile(step_ms, 0.99) if step_ms else 0.0,
        "runtime.server.batch_size.mean": ratio(
            sum(b.iterations for b in batches), len(batches)
        ),
        "runtime.plan_cache.hit_rate": ratio(tracer.cache_hits, tracer.cache_lookups),
        "sim.us_per_iteration": ratio(total_s.get("sim.execute", 0.0) * 1e6, iterations),
        "sim.converged_share": ratio(
            sum(t.converged_round is not None for t in execs), len(execs)
        ),
        "sim.rounds_fast_forwarded_share": ratio(
            sum(t.rounds_fast_forwarded for t in execs), rounds
        ),
        "sim.transient_rounds.mean": ratio(
            sum(t.rounds_simulated for t in execs), len(execs)
        ),
        "sim.realized_over_analytic": ratio(
            sum(t.realized_makespan for t in execs),
            sum(t.analytic_makespan for t in execs),
        ),
        # The first pass also pays one-time costs (lazy imports, first
        # allocations), so it is left out of the overhead ratio.
        "trace_overhead": statistics.median(p.wall_s * p.scale for p in traced)
        / statistics.median(p.wall_s * p.scale for p in untraced[1:]),
    })
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}
