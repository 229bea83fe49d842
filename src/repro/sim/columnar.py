"""Array-backed executor engine: columnar machine state, same semantics.

The object engine (:mod:`repro.sim.executor`) walks an object graph per
event: ``EventTag`` dataclasses, callback closures, ``ProcessingEngine``
/ ``EdramVault`` / ``CacheModel`` method calls and per-event dict-backed
schedule lookups. This module executes the *same* discrete-event
semantics on flat data:

* the machine is a set of **timeline arrays** -- per-PE busy clocks,
  per-vault service clocks, crossbar port clocks -- advanced in place;
* all static facts are **precomputed tables** built once per run from
  the schedule (per-op: PE, execution time, nominal-start offset,
  in-degree, ALU cost, in-edge keys; per-edge: placement, slots,
  transfer latencies, home vault, crossbar ports), so the hot loop does
  list indexing only;
* events are **plain tuples** ``(time, priority, iteration, op, e0, e1,
  seq, size)`` on a ``heapq`` -- ordered exactly like the object
  engine's ``(time, priority, content key, seq)`` tie-break, because the
  content key *is* ``(iteration, op) + edge`` and every key is unique,
  so the sequence number never decides between distinct events;
* per-round work is **vectorized** where it is data-parallel: nominal
  starts of a materialized round are one array add, boundary canonical
  forms and the fast-forward splice are array clamps/shifts.

Bit-identity contract: for every schedule, fault model and sink,
``SimMode.COLUMNAR`` produces the same :class:`ExecutionTrace` aggregate
signature (and the same per-round boundary counters) as
``SimMode.FULL_UNROLL``, and ``SimMode.COLUMNAR_STEADY`` the same as
``SimMode.STEADY_STATE`` -- including identical convergence rounds,
periods and fingerprint digests, because the canonical form mirrors
:meth:`repro.sim.state.MachineState.canonical` field for field.
``repro.verify --sim`` and the per-round property battery enforce it.
"""

from __future__ import annotations

import hashlib
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.core.paraconv import ParaConvResult
from repro.core.profit import require_numpy_floor
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_PE, FAULT_UNIT_VAULT, FaultModel
from repro.pim.stats import TrafficStats
from repro.sim.engine import SimulationError
from repro.sim.executor import (
    _PRIO_ARRIVE,
    _PRIO_PRODUCE,
    _PRIO_START,
    _BoundarySnapshot,
    ExecutionTrace,
    PeFaultError,
    candidate_period,
)
from repro.sim.modes import SimMode
from repro.sim.sinks import FastForwardNotice, NullSink, TraceSink
from repro.sim.trace import InstanceRecord, TransferKind, TransferRecord

np = require_numpy_floor(__name__)

__all__ = ["ColumnarRun"]

#: pFIFO depth of the modelled PE (see ``repro.pim.pe.ProcessingEngine``).
_FIFO_DEPTH = 16

#: heap priority -> event kind name (only for canonical forms / debug).
_KIND_OF_PRIO = {
    _PRIO_ARRIVE: "arrive", _PRIO_START: "start", _PRIO_PRODUCE: "produce",
}


class ColumnarRun:
    """One array-engine invocation: static tables + timelines + loop.

    Drop-in sibling of ``repro.sim.executor._ExecutorRun`` -- same
    constructor shape, same :meth:`execute` contract -- selected by
    :class:`~repro.sim.executor.ScheduleExecutor` for the columnar
    :class:`~repro.sim.modes.SimMode` members.
    """

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
        self.fault_model = (
            fault_model
            if fault_model is not None and not fault_model.is_trivial
            else None
        )
        self._failed_pes: frozenset = frozenset()
        self._failed_vaults: frozenset = frozenset()
        self._current_round = 0
        self.max_period = max_period
        self.confirm_budget = confirm_budget
        self._round_probe = round_probe

        schedule = result.schedule
        graph = result.graph
        kernel = schedule.kernel
        self.period = schedule.period
        self.r_max = schedule.max_retiming
        width = result.group_width
        self.num_vaults = num_vaults
        self.graph = graph

        # ---- static per-op tables (index = op_id) ---------------------
        ops = list(graph.operations())
        size = max(op.op_id for op in ops) + 1 if ops else 0
        self._op_order: List[int] = [op.op_id for op in ops]
        self._pe_of: List[int] = [0] * size
        self._exec: List[int] = [0] * size
        self._alu: List[int] = [0] * size
        self._in_deg: List[int] = [0] * size
        self._in_keys: List[List[Tuple[int, int]]] = [[] for _ in range(size)]
        static_off = [0] * size
        for op in ops:
            op_id = op.op_id
            self._pe_of[op_id] = kernel.pe_of(op_id)
            self._exec[op_id] = op.execution_time
            self._alu[op_id] = max(op.work, op.execution_time)
            self._in_deg[op_id] = graph.in_degree(op_id)
            self._in_keys[op_id] = [e.key for e in graph.in_edges(op_id)]
            # nominal(op, it) = (it - 1) * p + static_off[op]: the whole
            # round's nominal starts become one vectorized array add.
            static_off[op_id] = (
                self.r_max - schedule.retiming[op_id]
            ) * self.period + kernel.start(op_id)
        self._static_off = np.asarray(static_off, dtype=np.int64)

        # ---- static per-edge tables (keyed off the producing op) ------
        # Vault service granularity mirrors MemorySystem.__post_init__.
        effective = max(
            1, config.cache_bytes_per_unit // config.edram_latency_factor
        )
        from repro.pim.memory import Placement

        self._edge_size: Dict[Tuple[int, int], int] = {}
        #: out_recs[op] = [(consumer, e0, e1, size, is_cache, slots,
        #:   cache_units, edram_units, service, vault, port_busy,
        #:   consumer_pe), ...] in graph.out_edges() order.
        self._out_recs: List[List[tuple]] = [[] for _ in range(size)]
        for op in ops:
            for edge in graph.out_edges(op.op_id):
                e0, e1 = edge.key
                size_bytes = edge.size_bytes
                self._edge_size[edge.key] = size_bytes
                self._out_recs[op.op_id].append((
                    edge.consumer,
                    e0,
                    e1,
                    size_bytes,
                    schedule.placements[edge.key] is Placement.CACHE,
                    config.slots_required(size_bytes),
                    config.cache_transfer_units(size_bytes),
                    config.edram_transfer_units(size_bytes),
                    max(1, size_bytes // effective),
                    hash(edge.key) % num_vaults,
                    config.cache_transfer_units(size_bytes),
                    kernel.pe_of(edge.consumer),
                ))

        # ---- timeline arrays + dynamic state --------------------------
        self._pe_free: List[int] = [0] * width
        self._fifo: List[List[tuple]] = [[] for _ in range(width)]
        self._vault_free: List[int] = [0] * num_vaults
        self._xin: List[int] = [0] * width
        self._xout: List[int] = [0] * num_vaults
        # Per-group cache share, as the allocator assumed (the object
        # engine divides MemorySystem's capacity the same way).
        self._cache_cap = max(
            config.total_cache_slots // result.num_groups, 0
        )
        self._cache_used = 0
        self._cache_live: Dict[Tuple[int, int, int], int] = {}
        self._pending: Dict[Tuple[int, int], int] = {}
        self._max_avail: Dict[Tuple[int, int], int] = {}
        self._nominal: Dict[Tuple[int, int], int] = {}
        self._heap: List[tuple] = []
        self._seq = 0
        self._now = 0
        self._processed = 0
        self._events_skipped = 0
        self._mem_stats = TrafficStats()
        self._next_iteration = 1
        self._max_finish = 0
        self._converged = False

        self.trace = ExecutionTrace(
            config=config,
            iterations=iterations,
            analytic_makespan=self.r_max * self.period
            + iterations * self.period,
            realized_makespan=0,
            sink=sink,
            sim_mode=mode,
        )
        #: records are skipped entirely for a NullSink -- the aggregates
        #: on the trace are exact either way.
        self._emit = not isinstance(sink, NullSink)

    # ------------------------------------------------------------------
    # event handlers (tuple-dispatched; no tags, no closures)
    # ------------------------------------------------------------------
    def _materialize(self, iteration: int) -> None:
        """One logical iteration's bookkeeping; nominal row vectorized."""
        offs = (self._static_off + (iteration - 1) * self.period).tolist()
        heap = self._heap
        nominal = self._nominal
        pending = self._pending
        max_avail = self._max_avail
        in_deg = self._in_deg
        for op_id in self._op_order:
            key = (op_id, iteration)
            nominal[key] = offs[op_id]
            degree = in_deg[op_id]
            if degree == 0:
                heappush(heap, (
                    offs[op_id], _PRIO_START, iteration, op_id, -1, -1,
                    self._seq, 0,
                ))
                self._seq += 1
            else:
                pending[key] = degree
                max_avail[key] = 0

    def _arrive(self, iteration, op_id, e0, e1, size) -> None:
        key = (op_id, iteration)
        now = self._now
        max_avail = self._max_avail
        if now > max_avail[key]:
            max_avail[key] = now
        pending = self._pending
        pending[key] -= 1
        fifo = self._fifo[self._pe_of[op_id]]
        if len(fifo) < _FIFO_DEPTH:
            fifo.append(((e0, e1), size))
            self.trace.stats.fifo_pushes += 1
        if pending[key] == 0:
            start_at = self._nominal[key]
            avail = max_avail[key]
            if avail > start_at:
                start_at = avail  # avail already >= now
            del pending[key]
            del max_avail[key]
            heappush(self._heap, (
                start_at, _PRIO_START, iteration, op_id, -1, -1,
                self._seq, 0,
            ))
            self._seq += 1

    def _start(self, iteration, op_id) -> None:
        pe_id = self._pe_of[op_id]
        if pe_id in self._failed_pes:
            self._raise_fault(FAULT_UNIT_PE, pe_id)
        trace = self.trace
        in_keys = self._in_keys[op_id]
        fifo = self._fifo[pe_id]
        for edge_key in in_keys:  # pop_matching: oldest entry per edge
            for index, entry in enumerate(fifo):
                if entry[0] == edge_key:
                    del fifo[index]
                    break
        now = self._now
        start = self._pe_free[pe_id]
        if now > start:
            start = now
        duration = self._exec[op_id]
        finish = start + duration
        self._pe_free[pe_id] = finish
        nominal = self._nominal.pop((op_id, iteration))
        if self._emit:
            trace.sink.record_instance(InstanceRecord(
                op_id=op_id, iteration=iteration, pe=pe_id,
                nominal_start=nominal, start=start, finish=finish,
            ))
        trace.num_instances += 1
        trace.busy_units += duration
        lateness = start - nominal
        trace.lateness_total += lateness
        if lateness > trace.lateness_max:
            trace.lateness_max = lateness
        trace.pes_used.add(pe_id)
        trace.stats.alu_ops += self._alu[op_id]
        if finish > self._max_finish:
            self._max_finish = finish
        cache_live = self._cache_live
        for e0, e1 in in_keys:  # consume: free cache slots of in-edges
            slots = cache_live.pop((e0, e1, iteration), None)
            if slots is not None:
                self._cache_used -= slots
        heappush(self._heap, (
            finish, _PRIO_PRODUCE, iteration, op_id, -1, -1, self._seq, 0,
        ))
        self._seq += 1

    def _produce(self, iteration, op_id) -> None:
        trace = self.trace
        mem = self._mem_stats
        finish = self._now
        for (consumer, e0, e1, size, is_cache, slots, cache_units,
             edram_units, service, vault, port_busy,
             consumer_pe) in self._out_recs[op_id]:
            if is_cache:
                used = self._cache_used + slots
                if used <= self._cache_cap:
                    self._cache_live[(e0, e1, iteration)] = slots
                    self._cache_used = used
                    if used > trace.cache_peak_slots:
                        trace.cache_peak_slots = used
                    mem.cache_accesses += 1
                    mem.cache_bytes += size
                    arrival = finish + cache_units
                    if self._emit:
                        trace.sink.record_transfer(TransferRecord(
                            (e0, e1), iteration, TransferKind.CACHE,
                            size, finish, arrival,
                        ))
                    trace.num_transfers += 1
                    heappush(self._heap, (
                        arrival, _PRIO_ARRIVE, iteration, consumer,
                        e0, e1, self._seq, size,
                    ))
                    self._seq += 1
                    continue
                trace.cache_spills += 1  # transient overflow: spill
            if vault in self._failed_vaults:
                self._raise_fault(FAULT_UNIT_VAULT, vault)
            # Crossbar: consumer-side fetch holds both ports for the
            # bandwidth share; vault queues the access; the remaining
            # wire latency rides on top (executor._edram_roundtrip).
            issued = finish
            if self._xin[consumer_pe] > issued:
                issued = self._xin[consumer_pe]
            if self._xout[vault] > issued:
                issued = self._xout[vault]
            port_finish = issued + port_busy
            self._xin[consumer_pe] = port_finish
            self._xout[vault] = port_finish
            read_start = issued
            if self._vault_free[vault] > read_start:
                read_start = self._vault_free[vault]
            serviced = read_start + service
            self._vault_free[vault] = serviced
            extra = edram_units - service
            arrival = serviced + (extra if extra > 0 else 0)
            mem.edram_accesses += 1
            mem.edram_bytes += size
            if self._emit:
                trace.sink.record_transfer(TransferRecord(
                    (e0, e1), iteration, TransferKind.EDRAM,
                    size, finish, arrival,
                ))
            trace.num_transfers += 1
            heappush(self._heap, (
                arrival, _PRIO_ARRIVE, iteration, consumer, e0, e1,
                self._seq, size,
            ))
            self._seq += 1

    def _run_until(self, until: int) -> None:
        heap = self._heap
        while heap and heap[0][0] <= until:
            time, prio, iteration, op_id, e0, e1, _seq, size = heappop(heap)
            self._now = time
            self._processed += 1
            if prio == _PRIO_START:
                self._start(iteration, op_id)
            elif prio == _PRIO_ARRIVE:
                self._arrive(iteration, op_id, e0, e1, size)
            else:
                self._produce(iteration, op_id)

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def _raise_fault(self, unit: str, unit_id: int) -> None:
        assert self.fault_model is not None
        raise PeFaultError(
            unit,
            unit_id,
            round=self._current_round,
            time=self._now,
            fault_iteration=self.fault_model.fault_iteration_of(unit, unit_id),
        )

    def _update_fault_mask(self, boundary_round: int) -> bool:
        assert self.fault_model is not None
        pes, vaults = self.fault_model.mask_at(boundary_round)
        changed = pes != self._failed_pes or vaults != self._failed_vaults
        self._failed_pes = pes
        self._failed_vaults = vaults
        return changed

    # ------------------------------------------------------------------
    # steady-state machinery (columnar twin of the object engine's)
    # ------------------------------------------------------------------
    def _snapshot(self) -> _BoundarySnapshot:
        trace = self.trace
        return _BoundarySnapshot(
            trace_stats=tuple(trace.stats.as_dict().values()),
            memory_stats=tuple(self._mem_stats.as_dict().values()),
            cache_spills=trace.cache_spills,
            num_instances=trace.num_instances,
            num_transfers=trace.num_transfers,
            busy_units=trace.busy_units,
            lateness_total=trace.lateness_total,
            events_processed=self._processed,
        )

    def _canonical(self, reference_time: int, reference_iteration: int):
        """Boundary-relative state; mirrors ``MachineState.canonical``.

        Clamps are array ops over the timelines; the resulting tuple is
        structurally identical to the object engine's (same fields, same
        clamping, same sort keys), so the two engines converge at the
        same boundary with the same fingerprint digest.
        """
        t = reference_time
        r = reference_iteration
        pe_clamped = np.maximum(
            np.asarray(self._pe_free, dtype=np.int64) - t, 0
        ).tolist()
        pe_state = tuple(
            (free, tuple(fifo))
            for free, fifo in zip(pe_clamped, self._fifo)
        )
        vault_state = tuple(np.maximum(
            np.asarray(self._vault_free, dtype=np.int64) - t, 0
        ).tolist())
        crossbar_state = (
            tuple(np.maximum(
                np.asarray(self._xin, dtype=np.int64) - t, 0
            ).tolist()),
            tuple(np.maximum(
                np.asarray(self._xout, dtype=np.int64) - t, 0
            ).tolist()),
        )
        cache_state = tuple(sorted(
            ((e0, e1), iteration - r, slots)
            for (e0, e1, iteration), slots in self._cache_live.items()
        ))
        pending_state = tuple(sorted(
            (op_id, iteration - r, count,
             max(self._max_avail[(op_id, iteration)] - t, 0))
            for (op_id, iteration), count in self._pending.items()
        ))
        nominal_state = tuple(sorted(
            (op_id, iteration - r, start - t)
            for (op_id, iteration), start in self._nominal.items()
        ))
        event_state = tuple(
            (
                time - t,
                prio,
                _KIND_OF_PRIO[prio],
                op_id,
                iteration - r,
                (e0, e1),
                size,
            )
            for (time, prio, iteration, op_id, e0, e1, _seq, size)
            in sorted(self._heap)
        )
        return (
            pe_state,
            vault_state,
            crossbar_state,
            self._cache_used,
            cache_state,
            pending_state,
            nominal_state,
            event_state,
        )

    def _fingerprint(self, reference_time: int, reference_iteration: int) -> str:
        canon = self._canonical(reference_time, reference_iteration)
        return hashlib.sha256(repr(canon).encode("utf-8")).hexdigest()[:16]

    def _fast_forward(
        self,
        boundary_round: int,
        repetitions: int,
        period_rounds: int,
        current: _BoundarySnapshot,
        previous: _BoundarySnapshot,
    ) -> None:
        """Replay converged cycles: counter replay + array splice."""
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
        memory = self._mem_stats
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
        trace.steady_fingerprint = self._fingerprint(
            boundary_round * self.period, boundary_round
        )

        # 2. Timestamp splice: one array add per timeline; iteration
        # labels of live bookkeeping rebuilt with the round shift.
        self._pe_free = (
            np.asarray(self._pe_free, dtype=np.int64) + time_shift
        ).tolist()
        self._vault_free = (
            np.asarray(self._vault_free, dtype=np.int64) + time_shift
        ).tolist()
        self._xin = (
            np.asarray(self._xin, dtype=np.int64) + time_shift
        ).tolist()
        self._xout = (
            np.asarray(self._xout, dtype=np.int64) + time_shift
        ).tolist()
        self._cache_live = {
            (e0, e1, iteration + rounds): slots
            for (e0, e1, iteration), slots in self._cache_live.items()
        }
        self._pending = {
            (op_id, iteration + rounds): count
            for (op_id, iteration), count in self._pending.items()
        }
        self._max_avail = {
            (op_id, iteration + rounds): when + time_shift
            for (op_id, iteration), when in self._max_avail.items()
        }
        self._nominal = {
            (op_id, iteration + rounds): start + time_shift
            for (op_id, iteration), start in self._nominal.items()
        }
        # In-flight events: shifted in processing order with fresh seqs
        # (a sorted list already satisfies the heap invariant).
        shifted: List[tuple] = []
        seq = 0
        for (time, prio, iteration, op_id, e0, e1, _seq, size) in sorted(
            self._heap
        ):
            shifted.append((
                time + time_shift, prio, iteration + rounds, op_id,
                e0, e1, seq, size,
            ))
            seq += 1
        self._heap = shifted
        self._seq = seq
        self._next_iteration += rounds

        # 3. Bookkeeping for observability and the sink.
        trace.converged_round = boundary_round
        trace.converged_period = period_rounds
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
    # main loop (structurally identical to _ExecutorRun.execute)
    # ------------------------------------------------------------------
    def execute(self) -> ExecutionTrace:
        trace = self.trace
        n = self.iterations
        boundary_round = 0
        detecting = (
            self.mode is SimMode.COLUMNAR_STEADY and n > self.r_max + 3
        )
        snapshots: Dict[int, _BoundarySnapshot] = {}
        canonicals: Dict[int, tuple] = {}
        confirm_q: Optional[int] = None
        confirm_from = 0
        failed_confirms = 0

        while self._heap or self._next_iteration <= n:
            boundary_round += 1
            self._current_round = boundary_round
            if self.fault_model is not None and self._update_fault_mask(
                boundary_round
            ):
                snapshots.clear()
                canonicals.clear()
                confirm_q = None
                self._converged = False
            if self._next_iteration <= min(boundary_round, n):
                self._materialize(self._next_iteration)
                self._next_iteration += 1
            boundary_time = boundary_round * self.period
            self._run_until(boundary_time - 1)
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
                canonical = self._canonical(boundary_time, boundary_round)
                canonicals[boundary_round] = canonical
                reference = canonicals.get(boundary_round - confirm_q)
                if reference is not None and canonical == reference:
                    self._converged = True
                    horizon = n
                    if self.fault_model is not None:
                        next_fault = self.fault_model.next_event_after(
                            boundary_round
                        )
                        if next_fault is not None:
                            horizon = min(horizon, next_fault - 1)
                    repetitions = max(
                        0, (horizon - boundary_round) // confirm_q
                    )
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
                        trace.steady_fingerprint = self._fingerprint(
                            boundary_time, boundary_round
                        )
                    snapshots.clear()
                    canonicals.clear()
                    confirm_q = None
                elif boundary_round - confirm_from >= 2 * confirm_q:
                    confirm_q = None
                    canonicals.clear()
                    failed_confirms += 1
                    if failed_confirms >= self.confirm_budget:
                        detecting = False
                        snapshots.clear()
            elif boundary_round >= self.r_max + 2:
                # Phase 1: arm a confirmation when deltas look periodic.
                q = candidate_period(
                    boundary_round, snapshots, self.max_period, self.r_max
                )
                if q is not None and n - boundary_round > q:
                    confirm_q = q
                    confirm_from = boundary_round
                    canonicals[boundary_round] = self._canonical(
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
        trace.stats = trace.stats.merged_with(self._mem_stats)
        trace.events_processed = self._processed + self._events_skipped
        return trace
