"""Tests for the full-vs-steady simulation differential check."""

import pytest

from repro.cnn import load_workload
from repro.core.paraconv import ParaConv
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.sim.profile import SteadyProfile
from repro.verify.differential_sim import (
    DEFAULT_SIM_ITERATIONS,
    SimDifferentialReport,
    SimMismatch,
    differential_simulate,
    sim_differential_battery,
)
from repro.verify.runner import verify_workload


@pytest.fixture(scope="module")
def machine():
    return PimConfig(num_pes=16)


@pytest.fixture(scope="module")
def flower_plan(machine):
    return ParaConv(machine).run(synthetic_benchmark("flower"))


class TestDifferentialSimulate:
    def test_engines_agree(self, machine, flower_plan):
        report = differential_simulate(
            flower_plan, config=machine, iterations=300
        )
        assert report.ok
        assert report.mismatches == []
        assert report.workload == "flower"
        assert "ok" in report.describe()

    def test_convergence_metadata_captured(self, machine, flower_plan):
        report = differential_simulate(
            flower_plan, config=machine, iterations=1000
        )
        assert report.converged_round is not None
        assert report.rounds_fast_forwarded > 0
        assert f"converged@{report.converged_round}" in report.describe()

    def test_profile_candidate_derives_every_residue_class(
        self, machine, monkeypatch
    ):
        # The registry's car on a fleet shard (8 vaults) has a 6-round
        # limit cycle, so the sweep must cover six residue classes.
        plan = ParaConv(machine).run(load_workload("car"))
        derived = []
        original = SteadyProfile.derive

        def recording(profile, iterations):
            trace = original(profile, iterations)
            derived.append((profile.converged_period, iterations))
            return trace

        monkeypatch.setattr(SteadyProfile, "derive", recording)
        report = differential_simulate(
            plan, config=machine, iterations=100, num_vaults=8,
            modes=("profile",),
        )
        assert report.ok, report.describe()
        assert {period for period, _ in derived} == {6}
        assert {n % 6 for _, n in derived} == set(range(6))
        assert 100 in {n for _, n in derived}

    def test_profile_candidate_catches_a_wrong_derivation(
        self, machine, flower_plan, monkeypatch
    ):
        original = SteadyProfile.derive

        def off_by_one(profile, iterations):
            trace = original(profile, iterations)
            trace.realized_makespan += 1
            return trace

        monkeypatch.setattr(SteadyProfile, "derive", off_by_one)
        report = differential_simulate(
            flower_plan, config=machine, iterations=300, modes=("profile",)
        )
        assert not report.ok
        assert all(
            m.field.startswith("profile:N=")
            and m.field.endswith(":realized_makespan")
            for m in report.mismatches
        )

    def test_battery_covers_every_count(self, machine, flower_plan):
        reports = sim_differential_battery(
            flower_plan, config=machine, iteration_counts=(1, 20)
        )
        assert [r.iterations for r in reports] == [1, 20]
        assert all(r.ok for r in reports)

    def test_default_counts_span_regimes(self):
        assert DEFAULT_SIM_ITERATIONS == (1, 20, 1000)

    def test_as_dict_round_trips_mismatches(self):
        report = SimDifferentialReport(workload="x", iterations=10)
        report.mismatches.append(
            SimMismatch(field="busy_units", full_value=10, steady_value=11)
        )
        assert not report.ok
        payload = report.as_dict()
        assert payload["ok"] is False
        assert payload["mismatches"][0]["field"] == "busy_units"
        assert "MISMATCH" in report.describe()
        assert "busy_units" in report.describe()


class TestRunnerIntegration:
    def test_verify_workload_runs_sim_stage(self, machine):
        outcome = verify_workload(
            synthetic_benchmark("cat"),
            machine,
            allocators=["dp", "greedy"],
            with_differential=False,
            with_faults=False,
            with_simulation=True,
            sim_iterations=[1, 20],
        )
        assert set(outcome.simulation) == {"dp", "greedy"}
        for battery in outcome.simulation.values():
            assert [r.iterations for r in battery] == [1, 20]
            assert all(r.ok for r in battery)
        assert outcome.ok
        payload = outcome.as_dict()
        assert set(payload["simulation"]) == {"dp", "greedy"}

    def test_sim_stage_failure_fails_workload(self, machine):
        outcome = verify_workload(
            synthetic_benchmark("cat"),
            machine,
            allocators=["dp"],
            with_differential=False,
            with_faults=False,
            with_simulation=True,
            sim_iterations=[1],
        )
        # Plant a mismatch: the workload verdict must flip to failing.
        outcome.simulation["dp"][0].mismatches.append(
            SimMismatch(field="busy_units", full_value=1, steady_value=2)
        )
        assert not outcome.ok

    def test_sim_stage_off_by_default(self, machine):
        outcome = verify_workload(
            synthetic_benchmark("cat"),
            machine,
            allocators=["dp"],
            with_differential=False,
            with_faults=False,
        )
        assert outcome.simulation == {}
