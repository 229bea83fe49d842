"""Execute a Para-CONV periodic schedule on the machine model.

The executor simulates the operation instances of ``N`` logical
iterations plus the prologue, respecting the retimed dependency structure:
instance ``l`` of operation ``i`` runs in round ``l + R_max - R(i)`` at its
kernel offset, and the intermediate result of edge ``(i, j)`` flows from
producer instance ``l`` to consumer instance ``l`` -- ``R(i) - R(j)``
rounds apart in wall-clock time.

Unlike the analytic model, the executor charges *real* resource usage:

* eDRAM-resident results queue on their vault and occupy crossbar ports
  for the write and the prefetch read;
* cache-resident results occupy cache slots from production to
  consumption; if the static allocation transiently overflows (an edge
  with relative retiming > 0 keeps several instances alive), the overflow
  instance spills to eDRAM and is counted;
* PEs execute one instance at a time at their static placement.

Instances start no earlier than their nominal time ``(round-1)*p + s_i``;
any *lateness* beyond it means an analytic-model premise did not hold on
the simulated machine (typically vault contention). The validation
experiment asserts the observed lateness stays small.

Two simulation modes (:class:`~repro.sim.modes.SimMode`):

* ``FULL_UNROLL`` -- the oracle. Every instance is simulated event by
  event. Iterations are still *materialized lazily* (one round ahead of
  the frontier), so dependency bookkeeping stays ``O(V * R_max)`` even
  though the event count is ``O(V * N)``.
* ``STEADY_STATE`` -- the paper's periodicity, exploited. The engine
  simulates round by round; at each round boundary past the prologue it
  takes the :class:`~repro.sim.state.MachineState` canonical form. When
  two consecutive boundaries match (modulo the constant offsets ``p`` in
  time and ``1`` in iteration index), the simulation is provably periodic:
  the remaining ``N - k`` full rounds are fast-forwarded in O(1) by
  replaying the converged per-round stats delta and splicing every clock
  forward ``(N - k) * p`` time units, then only the epilogue (the final
  ``R_max`` partial rounds) is simulated. Aggregate statistics are
  *identical* to the full unroll -- ``repro.verify.differential_sim``
  asserts it across the benchmark suite.

Record retention is delegated to a pluggable
:class:`~repro.sim.sinks.TraceSink`, so trace memory is bounded
regardless of ``N``.

Fault injection: the executor optionally consumes a
:class:`~repro.pim.faults.FaultModel`. Failure masks activate at
iteration (round) boundaries; the moment a scheduled operation attempts
to start on a dead PE, or a transfer touches a dead vault (including the
prefetch of an intermediate result whose eDRAM home vault died), the run
aborts with a typed :class:`PeFaultError` carrying the machine-state
round, the simulated time and the failed unit. The steady-state engine
treats every fault boundary as a convergence barrier: fingerprints taken
before it are invalidated and the O(1) fast-forward never splices across
it, so a timed fault can never be skipped by the acceleration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.baseline import SpartaResult
from repro.core.paraconv import ParaConvResult
from repro.pim.config import PimConfig
from repro.pim.energy import EnergyModel, EnergyReport
from repro.pim.faults import FAULT_UNIT_PE, FAULT_UNIT_VAULT, FaultModel
from repro.pim.interconnect import Crossbar
from repro.pim.memory import MemorySystem, Placement
from repro.pim.pe import FifoEntry, PEArray
from repro.pim.stats import TrafficStats
from repro.sim.engine import EventQueue, SimulationError
from repro.sim.modes import SimMode
from repro.sim.sinks import FastForwardNotice, InMemorySink, TraceSink
from repro.sim.state import EdgeKey, EventTag, InstanceKey, MachineState
from repro.sim.trace import InstanceRecord, TransferKind, TransferRecord

__all__ = [
    "EdgeKey",
    "ExecutionTrace",
    "InstanceKey",
    "PeFaultError",
    "ScheduleExecutor",
    "SimMode",
    "simulate_sparta",
]

#: Event priorities: arrivals before starts before productions at a tie.
_PRIO_ARRIVE = 0
_PRIO_START = 1
_PRIO_PRODUCE = 2


class PeFaultError(SimulationError):
    """A scheduled operation or transfer hit a dead unit.

    Raised by the executor when the active fault mask covers a PE that an
    operation instance is about to start on, or a vault that a transfer
    (an intermediate result's eDRAM round-trip) must touch. Despite the
    name — the common case, and the one the paper's PE-array model makes
    interesting — it covers both unit kinds; ``unit`` disambiguates.

    Attributes:
        unit: ``"pe"`` or ``"vault"``.
        unit_id: logical id of the dead unit in the simulated machine.
        round: machine-state round (iteration boundary count) in which
            the dead unit was hit.
        time: simulated time units at the moment of impact.
        fault_iteration: iteration boundary at which the unit died
            (0 for units dead before the run started).
    """

    def __init__(
        self,
        unit: str,
        unit_id: int,
        round: int,
        time: int,
        fault_iteration: int,
    ):
        self.unit = unit
        self.unit_id = unit_id
        self.round = round
        self.time = time
        self.fault_iteration = fault_iteration
        super().__init__(
            f"{unit} {unit_id} is dead (failed at iteration boundary "
            f"{fault_iteration}); scheduled work hit it in round {round} "
            f"at t={time}"
        )


@dataclass
class ExecutionTrace:
    """Everything measured while executing a schedule.

    Per-record data (``records``/``transfers``) lives in the pluggable
    ``sink`` and may be sampled or dropped; the aggregate counters below
    are maintained incrementally and are *exact* in every mode -- they
    are what the steady-state fast-forward replays and what the
    differential check compares against the full unroll.
    """

    config: PimConfig
    iterations: int
    analytic_makespan: int
    realized_makespan: int
    sink: TraceSink = field(default_factory=InMemorySink)
    stats: TrafficStats = field(default_factory=TrafficStats)
    cache_peak_slots: int = 0
    cache_spills: int = 0
    events_processed: int = 0
    # --- exact aggregates (sink-independent) ---------------------------
    num_instances: int = 0
    num_transfers: int = 0
    busy_units: int = 0
    lateness_total: int = 0
    lateness_max: int = 0
    pes_used: Set[int] = field(default_factory=set)
    # --- steady-state observability ------------------------------------
    sim_mode: SimMode = SimMode.FULL_UNROLL
    #: round boundary at which the machine fingerprint converged.
    converged_round: Optional[int] = None
    #: detected steady-state period, in rounds (1 = the paper's exact
    #: round-to-round repetition; >1 = a longer limit cycle).
    converged_period: Optional[int] = None
    #: rounds actually simulated event by event.
    rounds_simulated: int = 0
    #: converged rounds replayed analytically (0 in full-unroll mode).
    rounds_fast_forwarded: int = 0
    #: digest of the converged machine state (None before convergence).
    steady_fingerprint: Optional[str] = None
    #: counter increments of one converged limit cycle, as
    #: :meth:`_BoundarySnapshot.delta` returns them (None until a
    #: fast-forward); a :class:`~repro.sim.profile.SteadyProfile` derives
    #: later batches from it.
    cycle_delta: Optional[tuple] = None

    @property
    def records(self) -> List[InstanceRecord]:
        """Instance records the sink retained (all of them by default)."""
        return self.sink.instances()

    @property
    def transfers(self) -> List[TransferRecord]:
        """Transfer records the sink retained (all of them by default)."""
        return self.sink.transfers()

    @property
    def max_lateness(self) -> int:
        return self.lateness_max

    @property
    def total_lateness(self) -> int:
        return self.lateness_total

    @property
    def slowdown(self) -> float:
        """Realized over analytic makespan (1.0 = model exact)."""
        if self.analytic_makespan == 0:
            return 1.0
        return self.realized_makespan / self.analytic_makespan

    def pe_utilization(self) -> float:
        """Aggregate busy fraction over the realized makespan."""
        if self.realized_makespan == 0:
            return 0.0
        width = len(self.pes_used) or 1
        return self.busy_units / (self.realized_makespan * width)

    def energy(self, model: Optional[EnergyModel] = None) -> EnergyReport:
        return (model or EnergyModel()).estimate(self.stats, self.config)

    def aggregate_signature(self) -> Dict[str, object]:
        """The exact aggregates, as one comparable mapping.

        Two traces of the same schedule are equivalent -- regardless of
        sim mode or sink -- iff their signatures match. This is the
        object the ``differential_simulate`` verification check compares.
        """
        return {
            "iterations": self.iterations,
            "analytic_makespan": self.analytic_makespan,
            "realized_makespan": self.realized_makespan,
            "stats": self.stats.as_dict(),
            "cache_peak_slots": self.cache_peak_slots,
            "cache_spills": self.cache_spills,
            "events_processed": self.events_processed,
            "num_instances": self.num_instances,
            "num_transfers": self.num_transfers,
            "busy_units": self.busy_units,
            "lateness_total": self.lateness_total,
            "lateness_max": self.lateness_max,
            "pes_used": tuple(sorted(self.pes_used)),
            "energy_total_pj": self.energy().total_pj,
        }


def candidate_period(
    boundary_round: int,
    snapshots: Dict[int, "_BoundarySnapshot"],
    max_period: int,
    r_max: int,
) -> Optional[int]:
    """Smallest ``q`` whose counter deltas look ``q``-periodic.

    Cheap necessary condition shared by the object and columnar engines:
    the per-round counter increments over the last ``q`` rounds must
    equal the increments over the ``q`` rounds before. Only then is the
    exact (expensive) canonical-form confirmation attempted.
    """
    r = boundary_round
    for q in range(1, max_period + 1):
        if r - 2 * q < r_max + 1:
            break  # comparison window would reach into the prologue
        if all(
            (r - i in snapshots and r - i - q in snapshots
             and r - i - 1 in snapshots and r - i - q - 1 in snapshots
             and snapshots[r - i].delta(snapshots[r - i - 1])
             == snapshots[r - i - q].delta(snapshots[r - i - q - 1]))
            for i in range(q)
        ):
            return q
    return None


@dataclass(frozen=True)
class _BoundarySnapshot:
    """Monotone counters at a round boundary (for per-round deltas)."""

    trace_stats: Tuple[int, ...]
    memory_stats: Tuple[int, ...]
    cache_spills: int
    num_instances: int
    num_transfers: int
    busy_units: int
    lateness_total: int
    events_processed: int

    def delta(self, earlier: "_BoundarySnapshot") -> tuple:
        """Counter increments since ``earlier``, as one comparable tuple.

        Equal deltas across a candidate period are a cheap *necessary*
        condition for periodicity; the engine uses them to decide when
        computing the (much more expensive) exact canonical form is
        worth it.
        """
        return (
            tuple(a - b for a, b in zip(self.trace_stats, earlier.trace_stats)),
            tuple(a - b for a, b in zip(self.memory_stats, earlier.memory_stats)),
            self.cache_spills - earlier.cache_spills,
            self.num_instances - earlier.num_instances,
            self.num_transfers - earlier.num_transfers,
            self.busy_units - earlier.busy_units,
            self.lateness_total - earlier.lateness_total,
            self.events_processed - earlier.events_processed,
        )


class ScheduleExecutor:
    """Discrete-event executor for :class:`ParaConvResult` schedules.

    Args:
        config: machine description.
        num_vaults: eDRAM vault count of the stacked memory.
        mode: :class:`SimMode` -- ``FULL_UNROLL`` (the oracle, and this
            class's default), ``COLUMNAR_STEADY`` (the production engine
            every serving and eval default selects: columnar state,
            fingerprint convergence + O(1) fast-forward), ``COLUMNAR``,
            or object ``STEADY_STATE`` (the reference implementation of
            convergence detection). Aggregates are identical in every
            mode.
        sink: where per-record trace data goes; defaults to a fresh
            unbounded :class:`~repro.sim.sinks.InMemorySink` per run.
        steady_max_period: longest limit cycle (in rounds) the
            steady-state detector looks for. 1 checks only the paper's
            exact round-to-round repetition; larger values also catch
            oscillations introduced by transient cache spills.
        steady_confirm_budget: how many failed exact confirmations the
            detector tolerates before it stops looking, bounding the
            fingerprint overhead on runs that never settle.
        fault_model: optional :class:`~repro.pim.faults.FaultModel`
            applied to every run (overridable per ``execute`` call). When
            a scheduled op lands on a dead PE or a transfer touches a
            dead vault, the run raises :class:`PeFaultError`; the
            steady-state fast-forward never splices across a fault
            boundary, and convergence fingerprints taken before one are
            invalidated.
    """

    def __init__(
        self,
        config: PimConfig,
        num_vaults: int = 16,
        mode: SimMode = SimMode.FULL_UNROLL,
        sink: Optional[TraceSink] = None,
        steady_max_period: int = 8,
        steady_confirm_budget: int = 8,
        fault_model: Optional[FaultModel] = None,
        round_probe=None,
    ):
        if steady_max_period < 1:
            raise SimulationError("steady_max_period must be >= 1")
        if steady_confirm_budget < 1:
            raise SimulationError("steady_confirm_budget must be >= 1")
        self.config = config
        self.num_vaults = num_vaults
        self.mode = SimMode.from_name(mode)
        self._sink = sink
        self.steady_max_period = steady_max_period
        self.steady_confirm_budget = steady_confirm_budget
        self.fault_model = fault_model
        #: optional callable ``(boundary_round, _BoundarySnapshot) -> None``
        #: invoked after every simulated round boundary -- the hook the
        #: per-round columnar/object equivalence battery observes.
        self.round_probe = round_probe

    def execute(
        self,
        result: ParaConvResult,
        iterations: int = 20,
        sink: Optional[TraceSink] = None,
        fault_model: Optional[FaultModel] = None,
    ) -> ExecutionTrace:
        """Run ``iterations`` logical iterations of one PE group."""
        if iterations < 1:
            raise SimulationError("iterations must be >= 1")
        run_sink = sink if sink is not None else (
            self._sink if self._sink is not None else InMemorySink()
        )
        if self.mode.is_columnar:
            # Imported lazily: columnar.py imports this module's trace
            # and snapshot types.
            from repro.sim.columnar import ColumnarRun

            run_cls = ColumnarRun
        else:
            run_cls = _ExecutorRun
        run = run_cls(
            self.config, self.num_vaults, result, iterations,
            self.mode, run_sink,
            max_period=self.steady_max_period,
            confirm_budget=self.steady_confirm_budget,
            fault_model=(
                fault_model if fault_model is not None else self.fault_model
            ),
            round_probe=self.round_probe,
        )
        return run.execute()


class _ExecutorRun:
    """One executor invocation: machine state + event handlers + loop."""

    def __init__(
        self,
        config: PimConfig,
        num_vaults: int,
        result: ParaConvResult,
        iterations: int,
        mode: SimMode,
        sink: TraceSink,
        max_period: int = 8,
        confirm_budget: int = 8,
        fault_model: Optional[FaultModel] = None,
        round_probe=None,
    ):
        self.config = config
        self.result = result
        self.iterations = iterations
        self.mode = mode
        #: trivial fault models are normalized away so the fault-free hot
        #: path stays branch-cheap.
        self.fault_model = (
            fault_model
            if fault_model is not None and not fault_model.is_trivial
            else None
        )
        self._failed_pes: frozenset = frozenset()
        self._failed_vaults: frozenset = frozenset()
        self._current_round = 0
        self.schedule = result.schedule
        self.graph = result.graph
        self.kernel = self.schedule.kernel
        self.period = self.schedule.period
        self.r_max = self.schedule.max_retiming
        width = result.group_width

        memory = MemorySystem(config, num_vaults=num_vaults)
        # Per-group cache share, as the allocator assumed.
        memory.cache.capacity_slots = max(
            memory.cache.capacity_slots // result.num_groups, 0
        )
        self.state = MachineState(
            pes=PEArray(config.with_pes(width)),
            memory=memory,
            crossbar=Crossbar(
                num_inputs=width, num_outputs=num_vaults, keep_records=False
            ),
            queue=EventQueue(),
        )
        self.trace = ExecutionTrace(
            config=config,
            iterations=iterations,
            analytic_makespan=self.r_max * self.period
            + iterations * self.period,
            realized_makespan=0,
            sink=sink,
            sim_mode=mode,
        )
        #: next logical iteration to materialize (1-based).
        self._next_iteration = 1
        #: running maximum finish time over all emitted instances.
        self._max_finish = 0
        self._converged = False
        # --- steady-state detector configuration -----------------------
        self.max_period = max_period
        self.confirm_budget = confirm_budget
        self._round_probe = round_probe

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _dispatch(self, tag: EventTag) -> None:
        if tag.kind == "arrive":
            self._data_arrived(tag)
        elif tag.kind == "start":
            self._attempt_start((tag.op_id, tag.iteration))
        elif tag.kind == "produce":
            self._produce((tag.op_id, tag.iteration))
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event kind {tag.kind!r}")

    def _schedule_event(self, time: int, tag: EventTag, priority: int) -> None:
        """Schedule a tagged event with its content-derived tie-break key.

        The key makes same-time ordering a function of event identity
        (iteration, operation, edge), never of enqueue order -- the
        property the fast-forward splice relies on when it rebuilds the
        in-flight set with fresh sequence numbers.
        """
        key = (tag.iteration, tag.op_id) + tag.edge
        self.state.queue.schedule(
            time, lambda: self._dispatch(tag), priority, key=key, tag=tag
        )

    # ------------------------------------------------------------------
    # instance lifecycle
    # ------------------------------------------------------------------
    def _round_of(self, op_id: int, iteration: int) -> int:
        return iteration + self.r_max - self.schedule.retiming[op_id]

    def _materialize(self, iteration: int) -> None:
        """Create the dependency bookkeeping for one logical iteration.

        Source instances are scheduled at their nominal starts; dependent
        instances wait in ``pending`` until every in-edge delivered.
        """
        state = self.state
        for op in self.graph.operations():
            key = (op.op_id, iteration)
            nominal = (
                self._round_of(op.op_id, iteration) - 1
            ) * self.period + self.kernel.start(op.op_id)
            state.nominal[key] = nominal
            degree = self.graph.in_degree(op.op_id)
            if degree == 0:
                self._schedule_event(
                    nominal,
                    EventTag("start", op.op_id, iteration),
                    _PRIO_START,
                )
            else:
                state.pending[key] = degree
                state.max_avail[key] = 0

    def _data_arrived(self, tag: EventTag) -> None:
        state = self.state
        consumer: InstanceKey = (tag.op_id, tag.iteration)
        when = state.queue.now
        state.max_avail[consumer] = max(state.max_avail[consumer], when)
        state.pending[consumer] -= 1
        # Stage the datum in the consumer PE's pFIFO (occupancy stats;
        # a full FIFO degrades to a direct cache/eDRAM read).
        pe = state.pes[self.kernel.pe_of(tag.op_id)]
        if not pe.pfifo.full:
            pe.pfifo.push(FifoEntry(tag.edge, tag.size_bytes))
            self.trace.stats.fifo_pushes += 1
        if state.pending[consumer] == 0:
            start_at = max(
                state.nominal[consumer], state.max_avail[consumer],
                state.queue.now,
            )
            del state.pending[consumer]
            del state.max_avail[consumer]
            self._schedule_event(
                start_at,
                EventTag("start", tag.op_id, tag.iteration),
                _PRIO_START,
            )

    def _raise_fault(self, unit: str, unit_id: int) -> None:
        assert self.fault_model is not None
        raise PeFaultError(
            unit,
            unit_id,
            round=self._current_round,
            time=self.state.queue.now,
            fault_iteration=self.fault_model.fault_iteration_of(unit, unit_id),
        )

    def _update_fault_mask(self, boundary_round: int) -> bool:
        """Refresh the active failure masks; True when a unit just died."""
        assert self.fault_model is not None
        pes, vaults = self.fault_model.mask_at(boundary_round)
        changed = pes != self._failed_pes or vaults != self._failed_vaults
        self._failed_pes = pes
        self._failed_vaults = vaults
        return changed

    def _attempt_start(self, key: InstanceKey) -> None:
        state = self.state
        trace = self.trace
        op_id, iteration = key
        op = self.graph.operation(op_id)
        pe_id = self.kernel.pe_of(op_id)
        if pe_id in self._failed_pes:
            # The schedule placed this instance on a PE that is dead under
            # the active fault mask: abort before mutating machine state.
            self._raise_fault(FAULT_UNIT_PE, pe_id)
        pe = state.pes[pe_id]
        # Consume the pFIFO entries staged for this instance -- by edge
        # key, so a neighbour instance's staged datum is never stolen.
        for edge in self.graph.in_edges(op_id):
            pe.pfifo.pop_matching(edge.key)
        start, finish = pe.reserve(state.queue.now, op.execution_time)
        nominal = state.nominal.pop(key)
        record = InstanceRecord(
            op_id=op_id,
            iteration=iteration,
            pe=pe.pe_id,
            nominal_start=nominal,
            start=start,
            finish=finish,
        )
        trace.sink.record_instance(record)
        trace.num_instances += 1
        trace.busy_units += finish - start
        lateness = start - nominal
        trace.lateness_total += lateness
        trace.lateness_max = max(trace.lateness_max, lateness)
        trace.pes_used.add(pe.pe_id)
        trace.stats.alu_ops += max(op.work, op.execution_time)
        self._max_finish = max(self._max_finish, finish)
        # Consume: free cache slots held by in-edges.
        for edge in self.graph.in_edges(op_id):
            live = (edge.key, iteration)
            if live in state.cache_live:
                state.memory.cache.remove(live)
                del state.cache_live[live]
        self._schedule_event(
            finish, EventTag("produce", op_id, iteration), _PRIO_PRODUCE
        )

    def _emit_transfer(self, transfer: TransferRecord) -> None:
        self.trace.sink.record_transfer(transfer)
        self.trace.num_transfers += 1

    def _produce(self, key: InstanceKey) -> None:
        state = self.state
        trace = self.trace
        op_id, iteration = key
        finish = state.queue.now
        for edge in self.graph.out_edges(op_id):
            consumer_tag = EventTag(
                "arrive", edge.consumer, iteration, edge.key, edge.size_bytes
            )
            placement = self.schedule.placements[edge.key]
            if placement is Placement.CACHE:
                slots = self.config.slots_required(edge.size_bytes)
                if state.memory.cache.fits(slots):
                    state.memory.cache.insert((edge.key, iteration), slots)
                    state.cache_live[(edge.key, iteration)] = slots
                    trace.cache_peak_slots = max(
                        trace.cache_peak_slots, state.memory.cache.used_slots
                    )
                    state.memory.record_cache_transfer(edge.size_bytes)
                    arrival = finish + self.config.cache_transfer_units(
                        edge.size_bytes
                    )
                    self._emit_transfer(TransferRecord(
                        edge.key, iteration, TransferKind.CACHE,
                        edge.size_bytes, finish, arrival,
                    ))
                    self._schedule_event(arrival, consumer_tag, _PRIO_ARRIVE)
                    continue
                trace.cache_spills += 1  # transient overflow: spill
            arrival = self._edram_roundtrip(
                edge.key, edge.size_bytes, finish,
                self.kernel.pe_of(op_id), self.kernel.pe_of(edge.consumer),
            )
            self._emit_transfer(TransferRecord(
                edge.key, iteration, TransferKind.EDRAM,
                edge.size_bytes, finish, arrival,
            ))
            self._schedule_event(arrival, consumer_tag, _PRIO_ARRIVE)

    def _edram_roundtrip(
        self,
        edge_key: EdgeKey,
        size_bytes: int,
        finish: int,
        producer_pe: int,
        consumer_pe: int,
    ) -> int:
        """Prefetch an intermediate result through the stacked memory.

        The producer writes through to its vault while still executing
        (the PIM write path pipelines into production), so the visible
        cost is the consumer-side fetch issued at production time: the
        vault queues and services the access, then the data crosses the
        TSV/crossbar wire -- together exactly the analytic
        ``edram_transfer_units`` when the vault is idle, more under
        contention. The crossbar ports are occupied for the bandwidth
        share of the transfer (not its latency), so independent transfers
        overlap as on real hardware.
        """
        memory = self.state.memory
        crossbar = self.state.crossbar
        vault = memory.vault_for(edge_key)
        if vault.vault_id in self._failed_vaults:
            # The intermediate result's home vault is dead: its eDRAM copy
            # is gone, so neither the write-through nor the prefetch can
            # complete. Surface the fault instead of inventing data.
            self._raise_fault(FAULT_UNIT_VAULT, vault.vault_id)
        latency = self.config.edram_transfer_units(size_bytes)
        service = vault.access_time(size_bytes)
        port_busy = self.config.cache_transfer_units(size_bytes)
        issued, _ = crossbar.transfer(
            consumer_pe, vault.vault_id % crossbar.num_outputs, port_busy,
            finish, size_bytes,
        )
        serviced = vault.read(size_bytes, issued)
        arrival = serviced + max(0, latency - service)
        memory.record_edram_transfer(size_bytes)
        return arrival

    # ------------------------------------------------------------------
    # steady-state machinery
    # ------------------------------------------------------------------
    def _snapshot(self) -> _BoundarySnapshot:
        trace = self.trace
        return _BoundarySnapshot(
            trace_stats=tuple(trace.stats.as_dict().values()),
            memory_stats=tuple(self.state.memory.stats.as_dict().values()),
            cache_spills=trace.cache_spills,
            num_instances=trace.num_instances,
            num_transfers=trace.num_transfers,
            busy_units=trace.busy_units,
            lateness_total=trace.lateness_total,
            events_processed=self.state.queue.processed,
        )

    def _fast_forward(
        self,
        boundary_round: int,
        repetitions: int,
        period_rounds: int,
        current: _BoundarySnapshot,
        previous: _BoundarySnapshot,
    ) -> None:
        """Replay ``repetitions`` converged limit cycles analytically.

        ``previous`` is the snapshot ``period_rounds`` boundaries before
        ``current``; their counter delta covers one full cycle. Counters
        advance by ``repetitions`` times that delta; every absolute
        clock, timestamp and iteration label is spliced forward -- an
        exact translation of the simulation, so the subsequent epilogue
        simulation continues bit-for-bit as if every skipped round had
        been executed.
        """
        state = self.state
        trace = self.trace
        rounds = repetitions * period_rounds
        time_shift = rounds * self.period

        # 1. Counter replay: the converged per-cycle delta, M times.
        delta = current.delta(previous)
        (stats_delta, memory_delta, spills, instances, transfers, busy,
         lateness, events) = delta
        for name, step in zip(list(trace.stats.as_dict()), stats_delta):
            setattr(trace.stats, name,
                    getattr(trace.stats, name) + repetitions * step)
        memory = state.memory.stats
        for name, step in zip(list(memory.as_dict()), memory_delta):
            setattr(memory, name, getattr(memory, name) + repetitions * step)
        instances_skipped = repetitions * instances
        transfers_skipped = repetitions * transfers
        trace.cache_spills += repetitions * spills
        trace.num_instances += instances_skipped
        trace.num_transfers += transfers_skipped
        trace.busy_units += repetitions * busy
        trace.lateness_total += repetitions * lateness
        self._events_skipped += repetitions * events
        self._max_finish += time_shift
        # Digest of the converged state at boundary ``c`` itself, taken
        # before the splice, so it does not depend on how many cycles
        # the batch skips.
        trace.steady_fingerprint = state.fingerprint(
            boundary_round * self.period, boundary_round
        )

        # 2. Timestamp splice: translate the machine and the in-flight
        # event set forward; relabel live iterations.
        state.shift(time_shift, rounds)
        for event in state.queue.clear_pending():
            shifted = event.tag.shifted(rounds)
            self._schedule_event(
                event.time + time_shift, shifted, event.priority
            )
        self._next_iteration += rounds

        # 3. Bookkeeping for observability and the sink.
        trace.converged_round = boundary_round
        trace.converged_period = period_rounds
        # += not =: a run with timed faults may converge, fast-forward to
        # the fault boundary, re-converge on the other side and splice
        # again -- the counter totals every skipped round.
        trace.rounds_fast_forwarded += rounds
        trace.cycle_delta = delta
        trace.sink.on_fast_forward(FastForwardNotice(
            rounds=rounds,
            time_shift=time_shift,
            iteration_shift=rounds,
            instances_skipped=instances_skipped,
            transfers_skipped=transfers_skipped,
        ))

    # ------------------------------------------------------------------
    # steady-state detection (two-phase)
    # ------------------------------------------------------------------
    def _candidate_period(
        self, boundary_round: int, snapshots: Dict[int, _BoundarySnapshot]
    ) -> Optional[int]:
        """Delegates to the module-level :func:`candidate_period` shared
        with the columnar engine."""
        return candidate_period(
            boundary_round, snapshots, self.max_period, self.r_max
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def execute(self) -> ExecutionTrace:
        state = self.state
        trace = self.trace
        n = self.iterations
        self._events_skipped = 0
        boundary_round = 0
        detecting = (
            self.mode is SimMode.STEADY_STATE and n > self.r_max + 3
        )
        #: recent boundary counters (cheap; pruned to a sliding window).
        snapshots: Dict[int, _BoundarySnapshot] = {}
        #: canonical forms computed during a confirmation phase.
        canonicals: Dict[int, tuple] = {}
        confirm_q: Optional[int] = None
        confirm_from = 0
        failed_confirms = 0

        while state.queue or self._next_iteration <= n:
            boundary_round += 1
            self._current_round = boundary_round
            if self.fault_model is not None and self._update_fault_mask(
                boundary_round
            ):
                # A unit just died. Everything the convergence detector
                # learned describes the healthy(er) machine, so the
                # fingerprint history is invalid across this boundary.
                snapshots.clear()
                canonicals.clear()
                confirm_q = None
                self._converged = False
            if self._next_iteration <= min(boundary_round, n):
                self._materialize(self._next_iteration)
                self._next_iteration += 1
            boundary_time = boundary_round * self.period
            state.queue.run(until=boundary_time - 1)
            trace.rounds_simulated += 1
            if self._round_probe is not None:
                self._round_probe(boundary_round, self._snapshot())
            if not detecting or self._converged or boundary_round > n:
                continue

            # Phase 0 (every boundary, cheap): counter snapshot.
            snapshots[boundary_round] = self._snapshot()
            window = 2 * self.max_period + 2
            snapshots.pop(boundary_round - window, None)

            if confirm_q is not None:
                # Phase 2: exact confirmation of the candidate period.
                canonical = state.canonical(boundary_time, boundary_round)
                canonicals[boundary_round] = canonical
                reference = canonicals.get(boundary_round - confirm_q)
                if reference is not None and canonical == reference:
                    self._converged = True
                    # Never splice across a fault boundary: the converged
                    # fingerprint only describes the machine *between*
                    # faults, so the fast-forward horizon stops one round
                    # short of the next scheduled fault event.
                    horizon = n
                    if self.fault_model is not None:
                        next_fault = self.fault_model.next_event_after(
                            boundary_round
                        )
                        if next_fault is not None:
                            horizon = min(horizon, next_fault - 1)
                    repetitions = max(0, (horizon - boundary_round) // confirm_q)
                    if repetitions > 0:
                        self._fast_forward(
                            boundary_round, repetitions, confirm_q,
                            snapshots[boundary_round],
                            snapshots[boundary_round - confirm_q],
                        )
                        boundary_round += repetitions * confirm_q
                    else:
                        trace.converged_round = boundary_round
                        trace.converged_period = confirm_q
                        trace.steady_fingerprint = state.fingerprint(
                            boundary_time, boundary_round
                        )
                    snapshots.clear()
                    canonicals.clear()
                    confirm_q = None
                elif boundary_round - confirm_from >= 2 * confirm_q:
                    # Two full candidate cycles without an exact match:
                    # the cheap signal was a coincidence.
                    confirm_q = None
                    canonicals.clear()
                    failed_confirms += 1
                    if failed_confirms >= self.confirm_budget:
                        detecting = False  # stop paying for fingerprints
                        snapshots.clear()
            elif boundary_round >= self.r_max + 2:
                # Phase 1: arm a confirmation when deltas look periodic.
                q = self._candidate_period(boundary_round, snapshots)
                if q is not None and n - boundary_round > q:
                    confirm_q = q
                    confirm_from = boundary_round
                    canonicals[boundary_round] = state.canonical(
                        boundary_time, boundary_round
                    )

        executed = trace.num_instances
        expected = self.graph.num_vertices * n
        if executed != expected:
            raise SimulationError(
                f"executed {executed} instances, expected {expected}; "
                "dependency deadlock in the schedule"
            )
        trace.realized_makespan = self._max_finish
        trace.stats = trace.stats.merged_with(state.memory.stats)
        trace.events_processed = state.queue.processed + self._events_skipped
        return trace


def simulate_sparta(
    result: SpartaResult,
    iterations: int = 20,
    num_vaults: int = 16,
    mode: SimMode = SimMode.FULL_UNROLL,
    sink: Optional[TraceSink] = None,
) -> ExecutionTrace:
    """Execute a SPARTA schedule: iterations back-to-back on one group.

    The stalled occupancies are already folded into the kernel, so the
    executor only validates resource feasibility and accumulates traffic:
    every eDRAM-placed in-edge of an operation counts as a demand fetch.

    SPARTA has no cross-iteration machine state at all (each iteration is
    a verbatim repetition of the kernel), so ``STEADY_STATE`` mode emits
    the first iteration's records, then replays the per-iteration stats
    delta ``N - 1`` times -- O(V) for any ``N``.
    """
    if iterations < 1:
        raise SimulationError("iterations must be >= 1")
    mode = SimMode.from_name(mode)
    graph = result.graph
    kernel = result.kernel
    config = result.config
    length = result.iteration_length
    memory = MemorySystem(config, num_vaults=num_vaults)
    trace = ExecutionTrace(
        config=config,
        iterations=iterations,
        analytic_makespan=iterations * length,
        realized_makespan=iterations * length,
        sink=sink if sink is not None else InMemorySink(),
        sim_mode=mode,
    )
    # SPARTA has no columnar machine state to batch, so the columnar
    # modes degenerate to their object twins' replay structure.
    simulated = 1 if mode.detects_steady_state else iterations
    for iteration in range(1, simulated + 1):
        base = (iteration - 1) * length
        for op in graph.operations():
            start = base + kernel.start(op.op_id)
            finish = base + kernel.finish(op.op_id)
            trace.sink.record_instance(InstanceRecord(
                op.op_id, iteration, kernel.pe_of(op.op_id),
                start, start, finish,
            ))
            trace.num_instances += 1
            trace.busy_units += finish - start
            trace.pes_used.add(kernel.pe_of(op.op_id))
            trace.stats.alu_ops += max(op.work, op.execution_time)
        for edge in graph.edges():
            if result.placements[edge.key] is Placement.CACHE:
                memory.record_cache_transfer(edge.size_bytes)
            else:
                memory.record_edram_transfer(edge.size_bytes)
    trace.rounds_simulated = simulated
    if mode.detects_steady_state and iterations > 1:
        skipped = iterations - 1
        per_iteration_instances = trace.num_instances
        for name, value in list(trace.stats.as_dict().items()):
            setattr(trace.stats, name, value * iterations)
        for name, value in list(memory.stats.as_dict().items()):
            setattr(memory.stats, name, value * iterations)
        trace.num_instances *= iterations
        trace.busy_units *= iterations
        trace.converged_round = 1
        trace.converged_period = 1
        trace.rounds_fast_forwarded = skipped
        trace.sink.on_fast_forward(FastForwardNotice(
            rounds=skipped,
            time_shift=skipped * length,
            iteration_shift=skipped,
            instances_skipped=skipped * per_iteration_instances,
            transfers_skipped=0,
        ))
    trace.stats = trace.stats.merged_with(memory.stats)
    return trace
