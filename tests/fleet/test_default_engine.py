"""A default fleet at serving size is bit-identical to the full unroll.

Four shards carved from ``PimConfig(num_pes=64).split(4, num_vaults=32)``
(16 PEs / 8 vaults each) serve on the production engine. Every batch they
serve -- one converging workload (``flower``) and one that never reaches
steady state at this size (``cat``) -- is re-executed on the
``FULL_UNROLL`` oracle and must match field for field.
"""

from __future__ import annotations

from repro.sim.executor import ScheduleExecutor
from repro.sim.sinks import NullSink

from tests.fleet.conftest import build_fleet


def serve_trace(store):
    router = build_fleet(store, batch_window=8)
    results = []
    for index in range(48):
        router.advance_to(4 * index)
        router.submit(("flower", "cat")[index % 2], iterations=8)
        if (index + 1) % 16 == 0:
            results.extend(router.pump())
    results.extend(router.drain())
    return router, results


def test_served_batches_equal_full_unroll(store):
    router, results = serve_trace(store)
    assert len(results) == 48
    batches = {}
    for served in results:
        batches[(served.worker_id, served.result.batch_id)] = served
    converged = {}
    for (worker_id, _), served in sorted(batches.items()):
        batch = served.result.batch
        assert batch.sim_mode == "columnar_steady"
        session = router.workers[worker_id].server.sessions()[served.workload]
        assert session.active_config.num_pes == 16
        assert session.active_num_vaults == 8
        trace = ScheduleExecutor(
            session.active_config,
            num_vaults=session.active_num_vaults,
            mode="full",
        ).execute(session.plan, iterations=batch.iterations, sink=NullSink())
        assert (
            batch.analytic_makespan, batch.realized_makespan,
            batch.cache_spills, batch.max_lateness, batch.stats.as_dict(),
        ) == (
            trace.analytic_makespan, trace.realized_makespan,
            trace.cache_spills, trace.max_lateness, trace.stats.as_dict(),
        ), (worker_id, served.workload, batch.iterations)
        converged.setdefault(served.workload, set()).add(
            batch.converged_round is not None
        )
    # Both regimes are covered: flower fast-forwards, cat never converges.
    assert converged == {"flower": {True}, "cat": {False}}
