"""Every place that picks a simulation engine for the caller picks the
production engine, :data:`~repro.sim.modes.DEFAULT_SIM_MODE`."""

from __future__ import annotations

import json

import pytest

import repro.eval.__main__ as eval_cli
import repro.fleet.__main__ as fleet_cli
import repro.runtime.__main__ as runtime_cli
from repro.fleet.tenancy import TenantScheduler
from repro.fleet.worker import FleetWorker
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.pim.tenancy import TenantPlacement
from repro.runtime.server import BatchingServer
from repro.runtime.session import BatchResult, InferenceSession
from repro.sim.modes import DEFAULT_SIM_MODE, SimMode


def test_production_engine_is_columnar_steady():
    assert DEFAULT_SIM_MODE is SimMode.COLUMNAR_STEADY


def test_fast_alias_names_the_production_engine():
    assert SimMode.from_name("fast") is DEFAULT_SIM_MODE


class TestServingDefaults:
    def test_session(self, graph, config):
        session = InferenceSession(graph, config)
        assert session.sim_mode is DEFAULT_SIM_MODE
        batch = session.run(iterations=40)
        assert batch.sim_mode == "columnar_steady"

    def test_batch_result_field_default(self):
        field = BatchResult.__dataclass_fields__["sim_mode"]
        assert field.default == DEFAULT_SIM_MODE.value

    def test_server(self, config):
        server = BatchingServer(config, graph_loader=synthetic_benchmark)
        assert server.sim_mode is DEFAULT_SIM_MODE
        server.submit("flower")
        (result,) = server.drain()
        assert result.batch.sim_mode == "columnar_steady"

    def test_fleet_worker(self):
        (shard,) = PimConfig(num_pes=16).split(1, num_vaults=8)
        worker = FleetWorker("w", shard, graph_loader=synthetic_benchmark)
        assert worker.server.sim_mode is DEFAULT_SIM_MODE

    def test_tenant_scheduler(self):
        placement = TenantPlacement.even(PimConfig(num_pes=8), ["a", "b"])
        scheduler = TenantScheduler(placement, batch_window=2)
        for tenant in scheduler.tenants:
            assert scheduler.server_for(tenant).sim_mode is DEFAULT_SIM_MODE
        scheduler.submit("a", "cat")
        (served,) = scheduler.drain()
        assert served.result.batch.sim_mode == "columnar_steady"


class TestCliDefaults:
    def test_runtime_parser(self):
        args = runtime_cli.build_parser().parse_args(["bench", "cat"])
        assert args.sim_mode is DEFAULT_SIM_MODE

    def test_fleet_parser(self):
        args = fleet_cli.build_parser().parse_args(["bench"])
        assert args.sim_mode is DEFAULT_SIM_MODE

    def test_eval_engine_experiments_resolve_to_the_constant(self, monkeypatch):
        # The eval flag stays unset by default: for latency/table2/sweeps
        # setting it opts into executor-measured columns. Experiments that
        # always simulate fall back to the production engine.
        assert eval_cli.build_parser().parse_args(["validation"]).sim_mode is None
        seen = {}

        def fake_run_validation(config, sim_mode, **kwargs):
            seen["sim_mode"] = sim_mode
            return []

        monkeypatch.setattr(eval_cli, "run_validation", fake_run_validation)
        monkeypatch.setattr(eval_cli, "render_validation", lambda rows: "")
        assert eval_cli.main(["validation", "--benchmarks", "cat"]) == 0
        assert seen["sim_mode"] is DEFAULT_SIM_MODE

    @pytest.mark.parametrize("spelling, mode", [
        ("full", SimMode.FULL_UNROLL),
        ("steady", SimMode.STEADY_STATE),
        ("columnar", SimMode.COLUMNAR),
        ("columnar_steady", SimMode.COLUMNAR_STEADY),
        ("columnar-steady", SimMode.COLUMNAR_STEADY),
    ])
    def test_parsers_share_choices(self, spelling, mode):
        for parser, argv in (
            (runtime_cli.build_parser(), ["bench", "cat"]),
            (fleet_cli.build_parser(), ["bench"]),
            (eval_cli.build_parser(), ["validation"]),
        ):
            args = parser.parse_args(argv + ["--sim-mode", spelling])
            assert args.sim_mode is mode

    def test_unknown_mode_exits_2(self, capsys):
        for parser, argv in (
            (runtime_cli.build_parser(), ["bench", "cat"]),
            (eval_cli.build_parser(), ["validation"]),
        ):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(argv + ["--sim-mode", "turbo"])
            assert excinfo.value.code == 2
        assert "unknown sim mode 'turbo'" in capsys.readouterr().err

    def test_runtime_bench_reports_canonical_mode(self, capsys):
        rc = runtime_cli.main([
            "bench", "cat", "--requests", "2", "--pes", "16",
            "--sim-mode", "columnar-steady", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"]["sim_mode"] == "columnar_steady"
