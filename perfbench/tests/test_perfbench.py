"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import collections
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import workloads as wl
from repro.cnn import load_workload
import run
from traffic import make_trace

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small_spec(name: str, requests: int, pump_every: int) -> wl.ServeSpec:
    return dataclasses.replace(wl.SERVE_SPECS[name], requests=requests, pump_every=pump_every)


def test_same_seed_same_trace_and_exactly_uniform_mix():
    mix = ("a", "b", "c", "d")
    first = make_trace(mix, 400, 8, seed=3)
    assert first == make_trace(mix, 400, 8, seed=3)
    assert first != make_trace(mix, 400, 8, seed=4)
    assert collections.Counter(item.workload for item in first) == {name: 100 for name in mix}
    arrivals = [item.arrival_units for item in first]
    assert arrivals == sorted(arrivals)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == measure.END_TO_END
    assert per_layer == measure.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOAD_NAMES) == list(run.WORKLOADS)
    for name in [*end_to_end, *per_layer, *wl.WORKLOAD_NAMES]:
        assert NAME.fullmatch(name), name


def test_simulated_time_repeats_for_a_seed_and_differs_across_seeds(tmp_path):
    spec = small_spec("serve-converging", requests=1024, pump_every=256)

    def signature(seed: int, run: int):
        trace = wl.trace_for(spec, seed)
        result = wl.serve_pass(spec, trace, tmp_path / f"{seed}-{run}", load_workload)
        assert wl.check_accounting(result, len(trace)) == []
        return result.sim_signature()

    assert signature(5, 0) == signature(5, 1)
    assert signature(5, 0)[0] != signature(6, 0)[0]


def test_layer_self_times_sum_to_no_more_than_traced_wall(tmp_path):
    report = measure.run("serve-converging", seed=2, seconds=0.0, trace=True, out_dir=tmp_path)
    assert report.correct, report.problems
    values = {name: value for name, (value, _) in report.metrics.items()}
    layers = sum(values[f"layer.{name}.self_s"] for name in ("fleet", "runtime", "sim", "compiler", "graph"))
    assert layers <= values["traced_wall_s"]
    assert values["layer.other.self_s"] >= 0.0
    assert values["fleet.router.submit.calls"] == wl.SERVE_SPECS["serve-converging"].requests
    assert values["sim.execute.calls"] == values["runtime.server.step.calls"]
    assert (tmp_path / "trace-serve-converging-seed2.json").is_file()


@pytest.mark.parametrize("workload", wl.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == measure.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-converging", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
