"""The whole harness on a tiny world, traced and untraced, plus the run
script's refusal to run without the program's sources."""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import tracing

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = harness.World(regions=14, grid_side=4, communities=4, epochs=1)


def _run(tmp_path, trace):
    workdir = tmp_path / ("traced" if trace else "plain")
    workdir.mkdir()
    return harness.run(TINY, seed=3, seconds=0, trace=trace, workdir=workdir)


def _check_result(result, metric_specs):
    assert result["correct"] is True
    assert result["failed"] == 0
    # warm-up set-up and train call, at least one measured round, five checks
    assert result["attempted"] >= 2 + harness.ROUND_OPS + 5
    assert set(result["metrics"]) == {m["name"] for m in metric_specs}
    for spec in metric_specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    result = _run(tmp_path, trace=False)
    _check_result(result, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric_and_restores(tmp_path):
    originals = [
        [tracing._get(owner, attr) for owner, attr in places]
        for _, _, places in tracing.patch_table()
    ]
    result = _run(tmp_path, trace=True)
    _check_result(result, BENCHMARK["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["model.intra_calls_per_predicted_region"] == pytest.approx(2.0)
    assert metrics["layers.egat_calls_per_step"] > 0
    for name in ("layers.stack_egat.road_s", "layers.stack_hetero.region_s", "tensor.backward.self_s"):
        assert metrics[name] > 0
    after = [
        [tracing._get(owner, attr) for owner, attr in places]
        for _, _, places in tracing.patch_table()
    ]
    assert after == originals


def test_run_script_fails_without_program_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        harness.ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
