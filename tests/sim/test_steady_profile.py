"""Steady-state profiles: derived batches equal simulated ones, field for field.

Plans are the registry workloads at the fleet's shard size (16 PEs,
8 vaults). Each converging plan's profile is seeded with the smallest
batch of every residue class mod ``q`` that splices a cycle; every
derived trace must equal a real ``columnar_steady`` run in every
:class:`ExecutionTrace` field except the sink.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cnn import load_workload
from repro.core.paraconv import ParaConv
from repro.pim.config import PimConfig
from repro.sim.executor import ExecutionTrace, ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.profile import SteadyProfile
from repro.sim.sinks import NullSink

MACHINE = PimConfig(num_pes=16)
NUM_VAULTS = 8

#: converging registry workloads and their limit-cycle period at 16/8.
CONVERGING = {
    "car": 6, "stock-predict": 2, "protein": 6, "speech-1": 4,
    "randwired-ba": 3, "flower": 1, "lenet5": 1,
}
UNCONVERGED = ("cat", "vgg16")

FIELDS = [f.name for f in dataclasses.fields(ExecutionTrace) if f.name != "sink"]


@pytest.fixture(scope="module")
def plans():
    cache = {}

    def plan_for(name: str):
        if name not in cache:
            cache[name] = ParaConv(MACHINE).run(load_workload(name))
        return cache[name]

    return plan_for


def execute(plan, iterations: int, mode: SimMode = SimMode.COLUMNAR_STEADY):
    return ScheduleExecutor(MACHINE, num_vaults=NUM_VAULTS, mode=mode).execute(
        plan, iterations=iterations, sink=NullSink()
    )


def seeded(plan, probe: int = 64):
    """A profile holding the smallest splicing batch of every class."""
    profile = SteadyProfile(plan.period)
    assert profile.seed(execute(plan, probe))
    c, q = profile.converged_round, profile.converged_period
    for n in range(c + q, c + 2 * q):
        assert profile.seed(execute(plan, n))
    return profile


def differing_fields(derived, executed):
    return [
        (name, getattr(derived, name), getattr(executed, name))
        for name in FIELDS
        if getattr(derived, name) != getattr(executed, name)
    ]


@pytest.mark.parametrize("name", sorted(CONVERGING))
def test_derived_equals_executed_in_every_residue_class(plans, name):
    plan = plans(name)
    profile = seeded(plan)
    q = profile.converged_period
    assert q == CONVERGING[name]
    first = profile.converged_round + q
    targets = sorted({n + 2 * q for n in range(first, first + q)} | {200})
    for n in targets:
        derived = profile.derive(n)
        assert derived is not None, n
        executed = execute(plan, n)
        assert differing_fields(derived, executed) == [], n
        assert isinstance(derived.sink, NullSink)


def test_derived_signature_matches_full_unroll(plans):
    plan = plans("car")
    profile = seeded(plan)
    n = profile.converged_round + 5 * profile.converged_period + 1
    full = execute(plan, n, SimMode.FULL_UNROLL)
    assert profile.derive(n).aggregate_signature() == full.aggregate_signature()


def test_derived_traces_share_no_mutable_state(plans):
    plan = plans("flower")
    profile = seeded(plan)
    first = profile.derive(100)
    second = profile.derive(100)
    first.pes_used.add(10_000)
    first.stats.alu_ops += 1
    assert second.pes_used != first.pes_used
    assert second.stats != first.stats


@pytest.mark.parametrize("name", UNCONVERGED)
def test_unconverged_plans_never_seed_or_derive(plans, name):
    plan = plans(name)
    profile = SteadyProfile(plan.period)
    for n in (64, 100):
        trace = execute(plan, n)
        assert trace.cycle_delta is None
        assert not profile.seed(trace)
    assert profile.converged_period is None
    assert all(profile.derive(n) is None for n in (64, 100, 1000))


def test_below_the_base_never_derives(plans):
    plan = plans("car")
    probe = execute(plan, 64)
    profile = SteadyProfile(plan.period)
    assert profile.seed(probe)
    q = profile.converged_period
    # Only the probe's class has a base, and only the probe itself and
    # whole cycles beyond it derive.
    assert profile.derive(64 - q) is None
    assert all(profile.derive(64 + r) is None for r in range(1, q))
    assert profile.derive(64) is not None
    assert profile.derive(64 + 3 * q) is not None


def test_smaller_seed_becomes_the_base(plans):
    plan = plans("car")
    profile = SteadyProfile(plan.period)
    q = 6
    profile.seed(execute(plan, 64 + 2 * q))
    assert profile.derive(64) is None
    profile.seed(execute(plan, 64))
    assert profile.derive(64) is not None
    profile.seed(execute(plan, 64 + 4 * q))  # larger: the base stays
    assert differing_fields(profile.derive(64), execute(plan, 64)) == []


def test_other_engines_and_foreign_traces_are_refused(plans):
    plan = plans("flower")
    profile = SteadyProfile(plan.period)
    for mode in (SimMode.FULL_UNROLL, SimMode.STEADY_STATE, SimMode.COLUMNAR):
        assert not profile.seed(execute(plan, 64, mode))
    assert profile.converged_period is None
    assert profile.seed(execute(plan, 64))
    with pytest.raises(ValueError, match="another plan"):
        profile.seed(execute(plans("car"), 64))


def test_cycle_delta_is_recorded_only_on_a_splice(plans):
    plan = plans("flower")
    spliced = execute(plan, 64)
    assert spliced.rounds_fast_forwarded > 0
    assert spliced.cycle_delta is not None
    assert execute(plan, 5).cycle_delta is None
    assert execute(plan, 64, SimMode.FULL_UNROLL).cycle_delta is None
    # The object reference engine records the same delta.
    assert execute(plan, 64, SimMode.STEADY_STATE).cycle_delta == (
        spliced.cycle_delta
    )
