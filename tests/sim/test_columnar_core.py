"""The columnar event core against the full unroll, at the served shape.

The fleet serves every registry workload on 16-PE / 8-vault shards, so
this battery holds the columnar engines to the object full unroll on
exactly that shape: aggregate signatures across the transient and
steady regimes, record streams in emission order, the identity of a
fault raised mid-batch, and independence of a batch from whatever plan
the executor (or a session's executor) ran before.
"""

from __future__ import annotations

import pytest

from repro.cnn import WORKLOADS, load_workload
from repro.core.paraconv import ParaConv
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_PE, FAULT_UNIT_VAULT, FaultModel
from repro.runtime import InferenceSession
from repro.sim.executor import PeFaultError, ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import InMemorySink, NullSink

MACHINE = PimConfig(num_pes=16)
NUM_VAULTS = 8
COLUMNAR_MODES = (SimMode.COLUMNAR, SimMode.COLUMNAR_STEADY)


@pytest.fixture(scope="module")
def plans():
    cache = {}

    def plan_for(name: str):
        if name not in cache:
            cache[name] = ParaConv(MACHINE).run(load_workload(name))
        return cache[name]

    return plan_for


def execute(plan, iterations, mode, sink=None, fault_model=None):
    return ScheduleExecutor(
        MACHINE, num_vaults=NUM_VAULTS, mode=mode, fault_model=fault_model
    ).execute(
        plan,
        iterations=iterations,
        sink=sink if sink is not None else NullSink(),
    )


def fault_outcome(plan, iterations, mode, fault_model):
    """``(unit, id, round, time, fault iteration)`` of the raised fault."""
    try:
        execute(plan, iterations, mode, fault_model=fault_model)
    except PeFaultError as exc:
        return (exc.unit, exc.unit_id, exc.round, exc.time, exc.fault_iteration)
    return None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_signatures_match_full_unroll(plans, name):
    plan = plans(name)
    for iterations in sorted({1, 16, plan.max_retiming + 3, 128}):
        want = execute(plan, iterations, SimMode.FULL_UNROLL)
        for mode in COLUMNAR_MODES:
            got = execute(plan, iterations, mode)
            assert got.aggregate_signature() == want.aggregate_signature(), (
                f"{mode.value} != full on {name} N={iterations}"
            )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_records_match_full_unroll_in_order(plans, name):
    plan = plans(name)
    iterations = plan.max_retiming + 3
    full = execute(plan, iterations, SimMode.FULL_UNROLL, InMemorySink())
    columnar = execute(plan, iterations, SimMode.COLUMNAR, InMemorySink())
    assert len(columnar.records) == full.num_instances
    assert columnar.records == full.records
    assert columnar.transfers == full.transfers


class TestFaultsMidBatch:
    """A fault raised mid-batch names the same unit, round and time."""

    ITERATIONS = 16
    BOUNDARY = 5

    def test_pe_fault(self, plans):
        plan = plans("cat")
        fault = FaultModel.single(FAULT_UNIT_PE, 0, self.BOUNDARY)
        want = fault_outcome(
            plan, self.ITERATIONS, SimMode.FULL_UNROLL, fault
        )
        assert want is not None and want[:2] == (FAULT_UNIT_PE, 0)
        assert want[2] >= self.BOUNDARY
        for mode in COLUMNAR_MODES:
            assert fault_outcome(plan, self.ITERATIONS, mode, fault) == want

    @pytest.mark.parametrize("name", ("car", "googlenet"))
    def test_vault_fault(self, plans, name):
        plan = plans(name)
        raised = 0
        for vault in range(NUM_VAULTS):
            fault = FaultModel.single(FAULT_UNIT_VAULT, vault, self.BOUNDARY)
            want = fault_outcome(
                plan, self.ITERATIONS, SimMode.FULL_UNROLL, fault
            )
            for mode in COLUMNAR_MODES:
                assert (
                    fault_outcome(plan, self.ITERATIONS, mode, fault) == want
                ), f"{mode.value} vault {vault}"
            raised += want is not None
        assert raised, "no vault fault fired; the check proves nothing"


class TestExecutorHistory:
    """A batch never depends on the plans its executor ran before."""

    def test_one_executor_alternating_plans(self, plans):
        first, second = plans("flower"), plans("cat")
        executor = ScheduleExecutor(
            MACHINE, num_vaults=NUM_VAULTS, mode=SimMode.COLUMNAR_STEADY
        )
        for plan, iterations in (
            (first, 16), (first, 40), (second, 16), (first, 16), (second, 9),
        ):
            got = executor.execute(plan, iterations=iterations, sink=NullSink())
            want = execute(plan, iterations, SimMode.FULL_UNROLL)
            assert got.aggregate_signature() == want.aggregate_signature()

    def test_swapped_graph_serves_the_new_plan(self):
        session = InferenceSession(
            load_workload("flower"), MACHINE, num_vaults=NUM_VAULTS,
            sim_mode=SimMode.COLUMNAR_STEADY,
        )
        session.run(16)
        plan = session.swap_graph(load_workload("car"))
        got = session.run(16)
        want = execute(plan, 16, SimMode.FULL_UNROLL)
        assert got.realized_makespan == want.realized_makespan
        assert got.stats == want.stats
        assert got.cache_spills == want.cache_spills

    def test_failover_serves_the_degraded_plan(self):
        fault = FaultModel.single(FAULT_UNIT_PE, 0, 3)
        session = InferenceSession(
            load_workload("cat"), MACHINE, num_vaults=NUM_VAULTS,
            sim_mode=SimMode.COLUMNAR_STEADY, fault_model=fault,
        )
        got = session.run(16)
        assert got.failovers == 1 and got.degraded
        want = ScheduleExecutor(
            session.active_config,
            num_vaults=session.active_num_vaults,
            mode=SimMode.FULL_UNROLL,
        ).execute(session.plan, iterations=16, sink=NullSink())
        assert got.realized_makespan == want.realized_makespan
        assert got.stats == want.stats
        assert got.max_lateness == want.max_lateness
