"""Array-backed executor engine: columnar machine state, same semantics.

The object engine (:mod:`repro.sim.executor`) walks an object graph per
event: ``EventTag`` dataclasses, callback closures, ``ProcessingEngine``
/ ``EdramVault`` / ``CacheModel`` method calls and per-event dict-backed
schedule lookups. This module executes the *same* discrete-event
semantics on flat data:

* all static facts are **precomputed tables** built once per run from
  the schedule -- per-op columns (PE, execution time, ALU cost,
  nominal-start base, in-degree, in-edge indices) and per-edge columns
  and records (endpoints, size, cache slots, transfer latencies, home
  vault, consumer PE) -- so the hot loop does list indexing only;
* the machine is a set of **timeline arrays** -- per-PE busy clocks,
  per-vault service clocks, crossbar port clocks -- advanced in place;
* events are **plain tuples** ``(time, priority, iteration, x)`` on a
  ``heapq``, where ``x`` is the op id of a start/produce event and the
  edge index of an arrival. Edges are numbered consumer-major, so two
  arrivals at one consumer order by producer id: exactly the object
  engine's ``(time, priority, content key, seq)`` tie-break, whose
  content key is ``(iteration, op) + edge`` and unique, so no sequence
  number is needed;
* one **fused event loop** (:meth:`ColumnarRun._run_until`) handles all
  three event kinds inline with every table, timeline and counter bound
  to a local, and writes the counters back once per call; pFIFO matching
  is a C-level ``in`` / ``list.remove`` over edge indices;
* nothing per-instance is stored that the tables derive: an
  instance's nominal start is ``nominal_base[op] + iteration * p``, and
  a materialized instance waiting on its inputs is one ``pending`` entry
  ``[inputs missing, latest arrival]``;
* boundary canonical forms and the fast-forward splice are clamps and
  shifts of the timelines.

Bit-identity contract: for every schedule, fault model and sink,
``SimMode.COLUMNAR`` produces the same :class:`ExecutionTrace` aggregate
signature, the same records in the same order, and the same per-round
boundary counters as ``SimMode.FULL_UNROLL``, and
``SimMode.COLUMNAR_STEADY`` the same as ``SimMode.STEADY_STATE`` --
including identical convergence rounds, periods and fingerprint digests,
because the canonical form mirrors
:meth:`repro.sim.state.MachineState.canonical` field for field.
``repro.verify --sim`` and the per-round property battery enforce it.
"""

from __future__ import annotations

import hashlib
from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.core.paraconv import ParaConvResult
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_PE, FAULT_UNIT_VAULT, FaultModel
from repro.pim.memory import Placement
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

__all__ = ["ColumnarRun"]

#: pFIFO depth of the modelled PE (see ``repro.pim.pe.ProcessingEngine``).
_FIFO_DEPTH = 16

#: heap priority -> event kind name (only for canonical forms / debug).
_KIND_OF_PRIO = {
    _PRIO_ARRIVE: "arrive", _PRIO_START: "start", _PRIO_PRODUCE: "produce",
}


def _clamped(clocks: List[int], reference_time: int) -> Tuple[int, ...]:
    """Clocks relative to ``reference_time``; idle ones clamp to 0."""
    return tuple(
        clock - reference_time if clock > reference_time else 0
        for clock in clocks
    )


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
        period = self.period = schedule.period
        r_max = self.r_max = schedule.max_retiming
        width = result.group_width

        # ---- static per-op tables (index = op_id) ---------------------
        ops = graph.operations()
        self._ops_per_iteration = len(ops)
        span = self._op_span = max(op.op_id for op in ops) + 1 if ops else 0
        pe_of = self._pe_of = [0] * span
        self._exec: List[int] = [0] * span
        self._alu: List[int] = [0] * span
        #: nominal start of (op, it) = nominal_base[op] + it * p.
        self._nominal_base: List[int] = [0] * span
        in_deg = self._in_deg = [0] * span
        for op in ops:
            op_id = op.op_id
            pe_of[op_id] = kernel.pe_of(op_id)
            self._exec[op_id] = op.execution_time
            self._alu[op_id] = max(op.work, op.execution_time)
            in_deg[op_id] = graph.in_degree(op_id)
            # (it - 1) * p + (R_max - R(op)) * p + s_op
            self._nominal_base[op_id] = (
                r_max - schedule.retiming[op_id] - 1
            ) * period + kernel.start(op_id)
        self._sources = [op.op_id for op in ops if not in_deg[op.op_id]]
        self._inner = [op.op_id for op in ops if in_deg[op.op_id]]
        self._pes = {pe_of[op.op_id] for op in ops}

        # ---- static per-edge tables (index = consumer-major edge) -----
        edges = sorted(graph.edges(), key=attrgetter("consumer", "producer"))
        self._edge_span = len(edges)
        self._producer = [edge.producer for edge in edges]
        self._consumer = [edge.consumer for edge in edges]
        self._size = [edge.size_bytes for edge in edges]
        # Vault service granularity mirrors MemorySystem.__post_init__.
        effective = max(
            1, config.cache_bytes_per_unit // config.edram_latency_factor
        )
        placements = schedule.placements
        index: Dict[Tuple[int, int], int] = {}
        # One record per edge: (edge, consumer_pe, size, cache slots (0
        # if eDRAM-placed), cache units (also the crossbar port
        # occupancy of an eDRAM fetch), vault service, extra wire
        # latency, vault).
        records: List[tuple] = []
        for edge_index, edge in enumerate(edges):
            key = (edge.producer, edge.consumer)
            index[key] = edge_index
            size_bytes = edge.size_bytes
            service = max(1, size_bytes // effective)
            extra = config.edram_transfer_units(size_bytes) - service
            records.append((
                edge_index,
                pe_of[edge.consumer],
                size_bytes,
                config.slots_required(size_bytes)
                if placements[key] is Placement.CACHE
                else 0,
                config.cache_transfer_units(size_bytes),
                service,
                extra if extra > 0 else 0,
                hash(key) % num_vaults,
            ))
        # A consumer's in-edges are contiguous; their order is free (each
        # touches its own FIFO entry and cache line). Out-edges keep
        # graph.out_edges() order: it decides contention.
        empty: Tuple[int, ...] = ()
        self._in_edges: List[Tuple[int, ...]] = [empty] * span
        self._in_cache: List[Tuple[int, ...]] = [empty] * span
        self._out_recs: List[Tuple[tuple, ...]] = [empty] * span
        first = 0
        for op_id in sorted(self._inner):
            last = first + in_deg[op_id]
            self._in_edges[op_id] = tuple(range(first, last))
            self._in_cache[op_id] = tuple(
                i for i in range(first, last) if records[i][3]
            )
            first = last
        for op in ops:
            self._out_recs[op.op_id] = tuple(
                records[index[(op.op_id, consumer)]]
                for consumer in graph.successors(op.op_id)
            )

        # ---- timeline arrays + dynamic state --------------------------
        self._pe_free: List[int] = [0] * width
        #: per-PE pFIFO of staged edge indices, oldest first.
        self._fifo: List[List[int]] = [[] for _ in range(width)]
        self._vault_free: List[int] = [0] * num_vaults
        self._xin: List[int] = [0] * width
        self._xout: List[int] = [0] * num_vaults
        # Per-group cache share, as the allocator assumed (the object
        # engine divides MemorySystem's capacity the same way).
        self._cache_cap = max(
            config.total_cache_slots // result.num_groups, 0
        )
        self._cache_used = 0
        #: ``iteration * edge_span + edge`` -> slots held in the cache.
        self._cache_live: Dict[int, int] = {}
        #: ``iteration * op_span + op`` -> ``[inputs missing, latest
        #: arrival]`` for each materialized instance still waiting.
        self._pending: Dict[int, List[int]] = {}
        self._heap: List[tuple] = []
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
    # events
    # ------------------------------------------------------------------
    def _materialize(self, iteration: int) -> None:
        """One logical iteration: queue its sources, await the rest."""
        heap = self._heap
        shift = iteration * self.period
        nominal_base = self._nominal_base
        for op_id in self._sources:
            heappush(
                heap, (nominal_base[op_id] + shift, _PRIO_START, iteration, op_id)
            )
        base = iteration * self._op_span
        pending = self._pending
        in_deg = self._in_deg
        for op_id in self._inner:
            pending[base + op_id] = [in_deg[op_id], 0]

    def _run_until(self, until: int) -> None:
        """Process every event at or before ``until``: the fused loop.

        All three event kinds are handled inline. Counters live in
        locals and are written back in the ``finally``, so a round
        boundary and a :class:`PeFaultError` both see exact state.
        """
        heap = self._heap
        if not heap or heap[0][0] > until:
            return
        pe_of = self._pe_of
        exec_time = self._exec
        alu = self._alu
        nominal_base = self._nominal_base
        in_edges = self._in_edges
        in_cache = self._in_cache
        out_recs = self._out_recs
        consumer = self._consumer
        op_span = self._op_span
        edge_span = self._edge_span
        period = self.period
        cache_cap = self._cache_cap
        fifos = self._fifo
        pe_free = self._pe_free
        vault_free = self._vault_free
        xin = self._xin
        xout = self._xout
        cache_live = self._cache_live
        pending = self._pending
        failed_pes = self._failed_pes
        failed_vaults = self._failed_vaults
        emit = self._emit
        trace = self.trace
        sink = trace.sink
        stats = trace.stats
        mem = self._mem_stats

        now = self._now
        processed = self._processed
        cache_used = self._cache_used
        max_finish = self._max_finish
        num_instances = trace.num_instances
        num_transfers = trace.num_transfers
        busy_units = trace.busy_units
        lateness_total = trace.lateness_total
        lateness_max = trace.lateness_max
        cache_peak = trace.cache_peak_slots
        cache_spills = trace.cache_spills
        fifo_pushes = stats.fifo_pushes
        alu_ops = stats.alu_ops
        cache_accesses = mem.cache_accesses
        cache_bytes = mem.cache_bytes
        edram_accesses = mem.edram_accesses
        edram_bytes = mem.edram_bytes
        try:
            while heap and heap[0][0] <= until:
                now, prio, iteration, x = heappop(heap)
                processed += 1
                if prio == _PRIO_ARRIVE:
                    # x = edge index: one input of (consumer, iteration).
                    op_id = consumer[x]
                    key = iteration * op_span + op_id
                    waiting = pending[key]
                    if now > waiting[1]:
                        waiting[1] = now
                    fifo = fifos[pe_of[op_id]]
                    if len(fifo) < _FIFO_DEPTH:
                        fifo.append(x)
                        fifo_pushes += 1
                    if waiting[0] == 1:
                        del pending[key]
                        start_at = nominal_base[op_id] + iteration * period
                        if waiting[1] > start_at:
                            start_at = waiting[1]  # already >= now
                        heappush(heap, (start_at, _PRIO_START, iteration, op_id))
                    else:
                        waiting[0] -= 1
                elif prio == _PRIO_START:
                    pe_id = pe_of[x]
                    if pe_id in failed_pes:
                        self._raise_fault(FAULT_UNIT_PE, pe_id, now)
                    fifo = fifos[pe_id]
                    if fifo:  # pop_matching: the oldest entry per edge
                        for edge in in_edges[x]:
                            if edge in fifo:
                                fifo.remove(edge)
                    start = pe_free[pe_id]
                    if now > start:
                        start = now
                    duration = exec_time[x]
                    finish = start + duration
                    pe_free[pe_id] = finish
                    nominal = nominal_base[x] + iteration * period
                    if emit:
                        sink.record_instance(InstanceRecord(
                            op_id=x, iteration=iteration, pe=pe_id,
                            nominal_start=nominal, start=start, finish=finish,
                        ))
                    num_instances += 1
                    busy_units += duration
                    lateness = start - nominal
                    lateness_total += lateness
                    if lateness > lateness_max:
                        lateness_max = lateness
                    alu_ops += alu[x]
                    if finish > max_finish:
                        max_finish = finish
                    consumed = in_cache[x]
                    if consumed:  # free the cache slots of in-edges
                        base = iteration * edge_span
                        for edge in consumed:
                            slots = cache_live.pop(base + edge, None)
                            if slots is not None:
                                cache_used -= slots
                    heappush(heap, (finish, _PRIO_PRODUCE, iteration, x))
                else:
                    base = iteration * edge_span
                    for (edge, port, size, slots, units, service, extra,
                         vault) in out_recs[x]:
                        if slots:  # cache-placed
                            used = cache_used + slots
                            if used <= cache_cap:
                                cache_live[base + edge] = slots
                                cache_used = used
                                if used > cache_peak:
                                    cache_peak = used
                                cache_accesses += 1
                                cache_bytes += size
                                arrival = now + units
                                if emit:
                                    sink.record_transfer(TransferRecord(
                                        (x, consumer[edge]), iteration,
                                        TransferKind.CACHE, size, now,
                                        arrival,
                                    ))
                                num_transfers += 1
                                heappush(
                                    heap, (arrival, _PRIO_ARRIVE, iteration, edge)
                                )
                                continue
                            cache_spills += 1  # transient overflow: spill
                        if vault in failed_vaults:
                            self._raise_fault(FAULT_UNIT_VAULT, vault, now)
                        # Crossbar: the consumer-side fetch holds both
                        # ports for the bandwidth share; the vault queues
                        # the access; the remaining wire latency rides on
                        # top (executor._edram_roundtrip).
                        issued = now
                        if xin[port] > issued:
                            issued = xin[port]
                        if xout[vault] > issued:
                            issued = xout[vault]
                        port_finish = issued + units
                        xin[port] = port_finish
                        xout[vault] = port_finish
                        if vault_free[vault] > issued:
                            issued = vault_free[vault]
                        serviced = issued + service
                        vault_free[vault] = serviced
                        arrival = serviced + extra
                        edram_accesses += 1
                        edram_bytes += size
                        if emit:
                            sink.record_transfer(TransferRecord(
                                (x, consumer[edge]), iteration,
                                TransferKind.EDRAM, size, now, arrival,
                            ))
                        num_transfers += 1
                        heappush(heap, (arrival, _PRIO_ARRIVE, iteration, edge))
        finally:
            self._now = now
            self._processed = processed
            self._cache_used = cache_used
            self._max_finish = max_finish
            trace.num_instances = num_instances
            trace.num_transfers = num_transfers
            trace.busy_units = busy_units
            trace.lateness_total = lateness_total
            trace.lateness_max = lateness_max
            trace.cache_peak_slots = cache_peak
            trace.cache_spills = cache_spills
            stats.fifo_pushes = fifo_pushes
            stats.alu_ops = alu_ops
            mem.cache_accesses = cache_accesses
            mem.cache_bytes = cache_bytes
            mem.edram_accesses = edram_accesses
            mem.edram_bytes = edram_bytes

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def _raise_fault(self, unit: str, unit_id: int, time: int) -> None:
        assert self.fault_model is not None
        raise PeFaultError(
            unit,
            unit_id,
            round=self._current_round,
            time=time,
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

        Edge indices and the derived nominal starts are expanded back to
        the object engine's keys, so the tuple is structurally identical
        to its (same fields, same clamping, same sort keys) and the two
        engines converge at the same boundary with the same fingerprint
        digest.
        """
        t = reference_time
        r = reference_iteration
        producer = self._producer
        consumer = self._consumer
        size = self._size
        nominal_base = self._nominal_base
        period = self.period
        pe_state = tuple(
            (free, tuple(
                ((producer[edge], consumer[edge]), size[edge]) for edge in fifo
            ))
            for free, fifo in zip(_clamped(self._pe_free, t), self._fifo)
        )
        vault_state = _clamped(self._vault_free, t)
        crossbar_state = (_clamped(self._xin, t), _clamped(self._xout, t))
        cache_state = []
        for key, slots in self._cache_live.items():
            iteration, edge = divmod(key, self._edge_span)
            cache_state.append(
                ((producer[edge], consumer[edge]), iteration - r, slots)
            )
        pending_state = []
        nominal_state = []
        for key, (count, latest) in self._pending.items():
            iteration, op_id = divmod(key, self._op_span)
            pending_state.append(
                (op_id, iteration - r, count, max(latest - t, 0))
            )
            nominal_state.append((
                op_id, iteration - r,
                nominal_base[op_id] + iteration * period - t,
            ))
        event_state = []
        for time, prio, iteration, x in sorted(self._heap):
            if prio == _PRIO_ARRIVE:
                op_id = consumer[x]
                edge, nbytes = (producer[x], op_id), size[x]
            else:
                op_id, edge, nbytes = x, (-1, -1), 0
                if prio == _PRIO_START:
                    # A queued start is a materialized, unstarted
                    # instance: it still holds its nominal start.
                    nominal_state.append((
                        x, iteration - r,
                        nominal_base[x] + iteration * period - t,
                    ))
            event_state.append((
                time - t, prio, _KIND_OF_PRIO[prio], op_id, iteration - r,
                edge, nbytes,
            ))
        return (
            pe_state,
            vault_state,
            crossbar_state,
            self._cache_used,
            tuple(sorted(cache_state)),
            tuple(sorted(pending_state)),
            tuple(sorted(nominal_state)),
            tuple(event_state),
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

        # 2. Timestamp splice: every timeline shifts; iteration labels
        # of live bookkeeping rebuilt with the round shift.
        self._pe_free = [clock + time_shift for clock in self._pe_free]
        self._vault_free = [clock + time_shift for clock in self._vault_free]
        self._xin = [clock + time_shift for clock in self._xin]
        self._xout = [clock + time_shift for clock in self._xout]
        cache_shift = rounds * self._edge_span
        self._cache_live = {
            key + cache_shift: slots
            for key, slots in self._cache_live.items()
        }
        pending_shift = rounds * self._op_span
        self._pending = {
            key + pending_shift: [count, latest + time_shift]
            for key, (count, latest) in self._pending.items()
        }
        # In-flight events: shifted in processing order (a sorted list
        # already satisfies the heap invariant).
        self._heap = [
            (time + time_shift, prio, iteration + rounds, x)
            for time, prio, iteration, x in sorted(self._heap)
        ]
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
        expected = self._ops_per_iteration * n
        if executed != expected:
            raise SimulationError(
                f"executed {executed} instances, expected {expected}; "
                "dependency deadlock in the schedule"
            )
        # Every op ran at least once (N >= 1), so the PEs used are the
        # plan's PEs.
        trace.pes_used.update(self._pes)
        trace.realized_makespan = self._max_finish
        trace.stats = trace.stats.merged_with(self._mem_stats)
        trace.events_processed = self._processed + self._events_skipped
        return trace
