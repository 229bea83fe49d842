"""The benchmark's three workloads, driven through the public API only.

Every serving pass builds one fleet: four shards carved from
``PimConfig(num_pes=64).split(4, num_vaults=32)`` (16 PEs / 8 vaults
each), ``dp`` allocator, default engines, one process, no threads. A pass
is set-up (graph loading, a fresh :class:`SharedPlanStore`, fleet
construction, plan warm-up) followed by one seeded trace driven through
:class:`FleetRouter` open-loop in virtual time, as fast as the host
allows: advance virtual time to each arrival, submit, pump the fleet
every ``pump_every`` submissions, drain at the end. Every pass of a run
replays the same trace on a fresh fleet, so its simulated-time results
must repeat exactly.

``compile-registry`` compiles the whole registry cold at 16, 32 and 64
PEs through ``PlanCache.get_or_compile`` into a fresh store (the write
path), then reloads every plan through a fresh cache (the read path).
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cnn import WORKLOADS
from repro.core import ParaConv
from repro.fleet import (
    FleetAdmissionError,
    FleetRouter,
    FleetWorker,
    SharedPlanStore,
)
from repro.pim.config import PimConfig
from repro.runtime import PlanKey, QueueFullError, plan_key_for, plan_to_dict
from repro.sim import NullSink, ScheduleExecutor
from repro.verify import ScheduleValidator

from speed import Units
from traffic import Arrival, make_trace

#: Workloads whose batches converge to a steady state at shard size
#: (the fleet CLI's default mix).
CONVERGING = ("flower", "lenet5", "stock-predict", "string-matching")
REGISTRY = tuple(WORKLOADS)
COMPILE_PES = (16, 32, 64)
#: set-ups (graph loading, ~0.06 s) per compile pass.
COMPILE_SETUP_REPEATS = 5
ALLOCATOR = "dp"
#: The fleet CLI's serving knobs: coalesce up to 512 requests per batch,
#: and never push back on this benchmark's traces.
BATCH_WINDOW = 512
MAX_QUEUE = 200_000
#: The worker killed mid-trace in serve-registry.
KILLED_WORKER = "worker-3"

Loader = Callable[[str], Any]


@dataclass(frozen=True)
class ServeSpec:
    """One serving workload: its mix and the shape of its trace."""

    mix: Tuple[str, ...]
    requests: int
    pump_every: int
    mean_interarrival_units: int
    kill_at_midpoint: bool
    #: repetitions of set-up and of the warm reload in every pass, so
    #: that a run takes the median of each phase over several samples.
    setup_repeats: int
    warm_repeats: int


SERVE_SPECS: Dict[str, ServeSpec] = {
    # pump_every is a whole number of decks, so every pump serves each
    # workload the same number of times whatever the seed. Ten pump
    # windows of 128 requests per workload; the busiest shard is about
    # 60% busy in virtual time.
    "serve-converging": ServeSpec(
        mix=CONVERGING,
        requests=5120,
        pump_every=512,
        mean_interarrival_units=8,
        kill_at_midpoint=False,
        setup_repeats=5,
        warm_repeats=20,
    ),
    # Three pump windows of 16 requests per workload (a batch of 16
    # is long enough for the steady-state engine to converge on some
    # workloads); the kill falls inside the second window, so the dead
    # shard's queue is rerouted.
    "serve-registry": ServeSpec(
        mix=REGISTRY,
        requests=1056,
        pump_every=352,
        mean_interarrival_units=30,
        kill_at_midpoint=True,
        setup_repeats=3,
        warm_repeats=3,
    ),
}

WORKLOAD_NAMES = ("serve-converging", "serve-registry", "compile-registry")


def trace_for(spec: ServeSpec, seed: int) -> List[Arrival]:
    return make_trace(spec.mix, spec.requests, spec.mean_interarrival_units, seed)


def build_fleet(store: SharedPlanStore, loader: Loader) -> FleetRouter:
    shards = PimConfig(num_pes=64).split(4, num_vaults=32)
    workers = [
        FleetWorker(
            f"worker-{index}",
            shard,
            store=store,
            batch_window=BATCH_WINDOW,
            max_queue=MAX_QUEUE,
            allocator=ALLOCATOR,
            graph_loader=loader,
        )
        for index, shard in enumerate(shards)
    ]
    return FleetRouter(workers, graph_loader=loader)


def compile_through(cache: Any, key: PlanKey, config: PimConfig, graph: Any) -> Any:
    return cache.get_or_compile(
        key, lambda: ParaConv(config, allocator_name=ALLOCATOR).run(graph)
    )


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """Everything one pass measured; host times in seconds, each unit
    scaled to the reference machine by its own probes (see :mod:`speed`).

    Every pass of a run repeats the same units of work in the same order,
    so the lists line up across passes.
    """

    #: one entry per repetition of the phase within the pass.
    setup_s: List[float]
    compile_s: List[float]
    warm_load_s: List[float]
    #: the measured work, unit by unit: pump windows (submissions plus
    #: the pump that serves them) or single plan compiles.
    work_s: List[float]
    #: operations completed by the work (requests or plans).
    ops: int
    #: host latency per operation, milliseconds.
    host_latency_ms: List[float]
    #: simulated-time latency per operation, in operation order.
    sim_latency_units: List[int]
    #: cold plan per key digest, and the same plan reloaded warm.
    cold_plans: Dict[str, Any]
    warm_plans: Dict[str, Optional[Any]]
    #: every probe time of the pass (see :mod:`speed`).
    probes: List[float] = field(default_factory=list)
    failed: int = 0
    # serving only
    batches: Dict[Tuple[str, int], Tuple[str, Any]] = field(default_factory=dict)
    accounting: Dict[str, int] = field(default_factory=dict)
    backpressure_retries: int = 0
    router: Optional[FleetRouter] = None
    busy_units: Dict[str, int] = field(default_factory=dict)
    last_arrival_units: int = 0

    def sim_signature(self) -> Tuple[Any, ...]:
        """What must repeat exactly across passes of one trace."""
        batches = sorted(
            (key, workload, b.iterations, b.analytic_makespan, b.realized_makespan)
            for key, (workload, b) in self.batches.items()
        )
        makespans = sorted(
            (digest, plan.total_time()) for digest, plan in self.cold_plans.items()
        )
        return (tuple(self.sim_latency_units), tuple(batches), tuple(makespans))


@dataclass
class _Fleet:
    router: FleetRouter
    store: SharedPlanStore
    keys: Dict[str, PlanKey]
    cold_plans: Dict[str, Any]
    setup_s: float
    compile_s: float


def _set_up_fleet(spec: ServeSpec, store_dir: Path, loader: Loader) -> _Fleet:
    """Load graphs, build the fleet on a fresh store, warm every plan cold."""
    started = time.perf_counter()
    graphs = {name: loader(name) for name in spec.mix}
    store = SharedPlanStore(store_dir)
    router = build_fleet(store, loader)
    compile_started = time.perf_counter()
    keys: Dict[str, PlanKey] = {}
    cold_plans: Dict[str, Any] = {}
    for name in spec.mix:
        worker = router.worker_for(name)
        key = plan_key_for(graphs[name], worker.serving_config, allocator=ALLOCATOR)
        keys[name] = key
        cold_plans[key.digest] = compile_through(
            worker.cache, key, worker.serving_config, graphs[name]
        )
    done = time.perf_counter()
    return _Fleet(router, store, keys, cold_plans, done - started, done - compile_started)


def _warm_loads(
    units: Units, repeats: int, store: SharedPlanStore, keys: Sequence[PlanKey]
) -> Tuple[List[float], Dict[str, Any]]:
    """Reload ``keys`` through fresh caches over ``store`` (the read path),
    ``repeats`` times; each plan read is one unit."""
    seconds: List[float] = []
    plans: Dict[str, Any] = {}
    for _ in range(repeats):
        first = len(units.seconds)
        units.restart()
        reader = store.open_cache(capacity=len(keys))
        plans = {}
        for key in keys:
            plans[key.digest] = reader.get(key)
            units.mark()
        seconds.append(sum(units.seconds[first:]))
    return seconds, plans


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def serve_pass(
    spec: ServeSpec, trace: Sequence[Arrival], store_dir: Path, loader: Loader
) -> PassResult:
    """Set up a fresh fleet and serve ``trace`` through it once."""
    units = Units()
    setup_s: List[float] = []
    compile_s: List[float] = []
    fleet: Optional[_Fleet] = None
    for index in range(spec.setup_repeats):
        # Free the previous fleet first: at most one fleet is alive, so
        # peak memory is that of one fleet.
        fleet = None
        gc.collect()
        units.restart()
        fleet = _set_up_fleet(spec, store_dir / f"setup-{index}", loader)
        factor = units.mark()
        setup_s.append(fleet.setup_s * factor)
        compile_s.append(fleet.compile_s * factor)
    assert fleet is not None
    router = fleet.router
    warm, warm_plans = _warm_loads(
        units, spec.warm_repeats, fleet.store, list(fleet.keys.values())
    )

    submitted_at: List[float] = []
    #: raw host latency per request, and the unit (pump window) that served it.
    host_latency: Dict[int, float] = {}
    served_in: Dict[int, int] = {}
    sim_latency: Dict[int, int] = {}
    batches: Dict[Tuple[str, int], Tuple[str, Any]] = {}
    busy: Dict[Tuple[str, int], int] = {}
    first_window = len(units.seconds)

    def absorb(results: List[Any]) -> None:
        now = time.perf_counter()
        for res in results:
            host_latency[res.fleet_id] = (now - submitted_at[res.fleet_id - 1]) * 1e3
            served_in[res.fleet_id] = len(units.seconds)
            sim_latency[res.fleet_id] = res.latency_units
            key = (res.worker_id, res.result.batch_id)
            batches.setdefault(key, (res.workload, res.result.batch))
            # A batch holds its shard until its last request completes.
            busy[key] = max(busy.get(key, 0), res.completion_units - res.dispatch_units)

    retries = 0
    midpoint = len(trace) // 2
    units.restart()
    for index, arrival in enumerate(trace):
        if spec.kill_at_midpoint and index == midpoint:
            router.kill_worker(KILLED_WORKER)
        router.advance_to(arrival.arrival_units)
        while True:
            stamp = time.perf_counter()
            try:
                router.submit(arrival.workload, slo=arrival.slo)
            except (FleetAdmissionError, QueueFullError):
                retries += 1
                absorb(router.pump())
                continue
            submitted_at.append(stamp)
            break
        if (index + 1) % spec.pump_every == 0:
            # After a pump no request is in flight: the probe between
            # windows delays nobody.
            absorb(router.pump())
            units.mark()
    absorb(router.drain())
    units.mark()

    accounting = router.accounting()
    per_worker: Dict[str, int] = {}
    for (worker_id, _), busy_units in busy.items():
        per_worker[worker_id] = per_worker.get(worker_id, 0) + busy_units
    order = sorted(sim_latency)
    failed = (
        accounting["shed"] + accounting["lost"] + accounting["queued"]
        + (len(trace) - len(order))
    )
    return PassResult(
        setup_s=setup_s,
        compile_s=compile_s,
        warm_load_s=warm,
        work_s=units.seconds[first_window:],
        ops=len(order),
        host_latency_ms=[host_latency[i] * units.factors[served_in[i]] for i in order],
        sim_latency_units=[sim_latency[i] for i in order],
        cold_plans=fleet.cold_plans,
        warm_plans=warm_plans,
        probes=units.probes,
        failed=failed,
        batches=batches,
        accounting=accounting,
        backpressure_retries=retries,
        router=router,
        busy_units=per_worker,
        last_arrival_units=trace[-1].arrival_units,
    )


# ----------------------------------------------------------------------
# compiling
# ----------------------------------------------------------------------
def compile_order(seed: int) -> List[str]:
    """The registry in a seeded order (the compile workload's only input)."""
    names = list(REGISTRY)
    random.Random(seed).shuffle(names)
    return names


def compile_pass(order: Sequence[str], store_dir: Path, loader: Loader) -> PassResult:
    """Cold-compile the registry at every PE size, then reload it warm."""
    units = Units()
    setup_s: List[float] = []
    for index in range(COMPILE_SETUP_REPEATS):
        units.restart()
        graphs = {name: loader(name) for name in order}
        store = SharedPlanStore(store_dir / f"setup-{index}")
        units.mark()
        setup_s.append(units.seconds[-1])

    writer = store.open_cache(capacity=len(order) * len(COMPILE_PES))
    keys: List[PlanKey] = []
    cold_plans: Dict[str, Any] = {}
    first_plan = len(units.seconds)
    units.restart()
    for pes in COMPILE_PES:
        config = PimConfig(num_pes=pes)
        for name in order:
            key = plan_key_for(graphs[name], config, allocator=ALLOCATOR)
            cold_plans[key.digest] = compile_through(writer, key, config, graphs[name])
            keys.append(key)
            units.mark()
    plan_s = units.seconds[first_plan:]
    warm, warm_plans = _warm_loads(units, 1, store, keys)

    return PassResult(
        setup_s=setup_s,
        compile_s=[sum(plan_s)],
        warm_load_s=warm,
        work_s=plan_s,
        ops=len(keys),
        host_latency_ms=[seconds * 1e3 for seconds in plan_s],
        sim_latency_units=[cold_plans[key.digest].total_time() for key in keys],
        cold_plans=cold_plans,
        warm_plans=warm_plans,
        probes=units.probes,
        failed=sum(plan is None for plan in warm_plans.values()),
    )


# ----------------------------------------------------------------------
# correctness (outside every timed region)
# ----------------------------------------------------------------------
def check_plans(result: PassResult) -> List[str]:
    """Every plan validates, and every warm reload equals its cold compile."""
    problems: List[str] = []
    validator = ScheduleValidator()
    for digest, plan in result.cold_plans.items():
        report = validator.validate(plan)
        if not report.ok:
            problems.append(f"plan {digest[:12]} fails the validator")
        warm = result.warm_plans.get(digest)
        if warm is None:
            problems.append(f"plan {digest[:12]} did not reload from the store")
        elif plan_to_dict(warm) != plan_to_dict(plan):
            problems.append(f"plan {digest[:12]} reloaded differently")
    return problems


def check_accounting(result: PassResult, attempted: int) -> List[str]:
    acc = result.accounting
    problems = []
    if acc["lost"] != 0:
        problems.append(f"fleet lost {acc['lost']} requests: {acc}")
    if acc["admitted"] != attempted or acc["served"] != attempted:
        problems.append(f"fleet accounting does not close on {attempted} requests: {acc}")
    return problems


def oracle_check(result: PassResult, seed: int, samples: int) -> List[str]:
    """Re-execute a seeded sample of served batches on the full unroll."""
    if result.router is None:
        raise ValueError("oracle_check needs a serving pass")
    keys = sorted(result.batches)
    chosen = random.Random(seed).sample(keys, min(samples, len(keys)))
    problems: List[str] = []
    for key in chosen:
        worker_id, _ = key
        workload, batch = result.batches[key]
        session = result.router.workers[worker_id].server.sessions()[workload]
        trace = ScheduleExecutor(
            session.active_config,
            num_vaults=session.active_num_vaults,
            mode="full",
        ).execute(session.plan, iterations=batch.iterations, sink=NullSink())
        got = (
            batch.analytic_makespan, batch.realized_makespan,
            batch.cache_spills, batch.max_lateness, batch.stats.as_dict(),
        )
        want = (
            trace.analytic_makespan, trace.realized_makespan,
            trace.cache_spills, trace.max_lateness, trace.stats.as_dict(),
        )
        if got != want:
            problems.append(
                f"batch {key} ({workload}, N={batch.iterations}) differs from "
                f"the full unroll: {got[:4]} vs {want[:4]}"
            )
    return problems


# ----------------------------------------------------------------------
# derived figures
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (exact, no interpolation)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[rank])


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def backlog_growth(sim_latency_units: Sequence[int], window: int) -> float:
    """Median latency of the last pump window of arrivals over the first.

    Latency depends on where in its pump window a request arrives, so
    windows, not arbitrary slices, are compared; with ten windows this
    is the last decile over the first. Near 1 means no growing backlog.
    """
    first = statistics.median(sim_latency_units[:window])
    last = statistics.median(sim_latency_units[-window:])
    return last / first


def realized_over_analytic(result: PassResult) -> float:
    batches = [batch for _, batch in result.batches.values()]
    return (
        sum(b.realized_makespan for b in batches)
        / sum(b.analytic_makespan for b in batches)
    )


def converged_share(result: PassResult) -> float:
    batches = [batch for _, batch in result.batches.values()]
    return sum(b.converged_round is not None for b in batches) / len(batches)


def utilization(result: PassResult) -> Dict[str, float]:
    """Virtual busy time per shard over the trace's arrival span."""
    span = max(1, result.last_arrival_units)
    return {w: units / span for w, units in sorted(result.busy_units.items())}
