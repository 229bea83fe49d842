"""Sessions derive converged batches from the plan's steady-state profile.

A derived batch must be indistinguishable from a simulated one except
for ``BatchResult.derived`` and its wall time; fault-injected sessions,
non-default engines, failover and graph swaps must all fall back to
simulation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cnn import load_workload
from repro.core.paraconv import ParaConv
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_PE, FaultModel
from repro.runtime.plan_cache import PlanCache
from repro.runtime.server import BatchingServer
from repro.runtime.session import InferenceSession
from repro.sim.executor import PeFaultError, ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink

#: The registry's car converges on a fleet shard (16 PEs, 8 vaults) with
#: a 6-round limit cycle, so most batch sizes only derive once their own
#: residue class has a base.
MACHINE = PimConfig(num_pes=16)
NUM_VAULTS = 8
N = 100


@pytest.fixture(scope="module")
def car():
    return load_workload("car")


def make_session(graph, **kwargs):
    return InferenceSession(graph, MACHINE, num_vaults=NUM_VAULTS, **kwargs)


def comparable(result):
    """A BatchResult minus the fields that say how it was produced."""
    return dataclasses.replace(result, wall_seconds=0.0, derived=False)


def simulated(session, iterations):
    """The same batch simulated from scratch on the session's machine."""
    return ScheduleExecutor(
        session.active_config,
        num_vaults=session.active_num_vaults,
        mode=SimMode.COLUMNAR_STEADY,
    ).execute(session.plan, iterations=iterations, sink=NullSink())


class TestDerivation:
    def test_repeat_batch_is_derived_and_identical(self, car):
        session = make_session(car)
        first = session.run(N)
        assert first.converged_round is not None and not first.derived
        second = session.run(N)
        assert second.derived
        assert comparable(second) == comparable(first)

    def test_larger_batch_in_the_class_derives_exactly(self, car):
        session = make_session(car)
        session.run(N)
        q = session.last_trace.converged_period
        result = session.run(N + 7 * q)
        assert result.derived
        want = simulated(session, N + 7 * q)
        assert session.last_trace.aggregate_signature() == (
            want.aggregate_signature()
        )
        assert result.rounds_fast_forwarded == want.rounds_fast_forwarded

    def test_other_class_and_smaller_batch_simulate(self, car):
        session = make_session(car)
        session.run(N)
        q = session.last_trace.converged_period
        assert q == 6
        assert not session.run(N + 1).derived
        assert not session.run(N - q).derived
        # Both now seed their own classes.
        assert session.run(N + 1 + q).derived

    def test_unconverged_plan_never_derives(self):
        session = make_session(load_workload("cat"))
        results = [session.run(200) for _ in range(3)]
        assert all(r.converged_round is None for r in results)
        assert not any(r.derived for r in results)


class TestBypass:
    @pytest.mark.parametrize("mode", ["full", "steady", "columnar"])
    def test_reference_engines_never_derive(self, car, mode):
        session = make_session(car, sim_mode=mode)
        assert not any(session.run(N).derived for _ in range(3))

    def test_fault_model_disables_derivation(self, car):
        # A fault far past the batch keeps the model non-trivial, so any
        # batch might still hit it: every batch simulates.
        model = FaultModel.single(FAULT_UNIT_PE, 0, 10_000)
        session = make_session(car, fault_model=model)
        results = [session.run(N) for _ in range(3)]
        assert all(r.converged_round is not None for r in results)
        assert not any(r.derived for r in results)

    def test_failover_drops_the_profile(self, car):
        session = make_session(car)
        session.run(N)
        assert session.run(N).derived
        session._fail_over(PeFaultError(FAULT_UNIT_PE, 0, 1, 0, 0))
        after = session.run(N)
        assert not after.derived and after.degraded
        degraded = MACHINE.degraded(range(1, MACHINE.num_pes))
        cold = ScheduleExecutor(
            degraded, num_vaults=NUM_VAULTS, mode=SimMode.FULL_UNROLL
        ).execute(ParaConv(degraded).run(car), iterations=N, sink=NullSink())
        assert session.last_trace.aggregate_signature() == (
            cold.aggregate_signature()
        )
        # The degraded plan builds its own profile.
        assert session.run(N).derived

    def test_timed_fault_then_healthy_batches_derive(self, car):
        model = FaultModel.single(FAULT_UNIT_PE, 0, 3)
        session = make_session(car, fault_model=model)
        first = session.run(N)
        assert first.failovers == 1 and not first.derived
        # The compacted model is trivial now: the replay seeded a
        # profile of the degraded plan.
        second = session.run(N)
        assert second.derived
        assert comparable(second) == dataclasses.replace(
            comparable(first), failovers=0
        )

    def test_swap_graph_drops_the_profile(self, car):
        session = make_session(car, cache=PlanCache(capacity=4))
        session.run(N)
        assert session.run(N).derived
        session.swap_graph(synthetic_benchmark("flower"))
        assert not session.run(N).derived
        session.swap_graph(car)  # a warm plan, but a fresh profile
        assert not session.run(N).derived
        assert session.run(N).derived


class TestServerCounter:
    def test_server_counts_derived_batches(self):
        server = BatchingServer(
            MACHINE,
            cache=PlanCache(capacity=4),
            batch_window=4,
            num_vaults=NUM_VAULTS,
            graph_loader=load_workload,
        )
        for _ in range(3):
            for _ in range(4):
                server.submit("car", iterations=25)
            server.step()
        counters = server.metrics.snapshot()["counters"]
        assert counters["sim_batches_converged"] == 3
        assert counters["sim_batches_derived"] == 2
