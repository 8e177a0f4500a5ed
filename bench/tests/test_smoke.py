"""Toy-size runs of every workload, untraced and traced, through the real CLI."""

import json
import os

import pytest

import run
from workloads import WORKLOADS, Shape

TOY = Shape(machines=40, days=1.0, normal_samples=300, traffic_samples=1500,
            stream_chunks=1, chunk_lines=40)


@pytest.fixture
def checkout(tmp_path):
    os.symlink(run.Path(__file__).resolve().parents[2] / "src", tmp_path / "src")
    return tmp_path


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_checks_out(checkout, capsys, name, trace):
    # traced runs get two traced iterations, so per-iteration figures must not add up
    code = run.run(checkout, name, seed=3, seconds=3.0 if trace else 0.1, trace=trace,
                   shape=TOY)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    if trace:
        assert list(metrics) == list(run.PER_LAYER)
        assert metrics["ocsvm.decision.calls"]["value"] > 0
        assert all(metrics[name]["value"] > 0 for name in run.TIMES.values())
        fits = metrics["pipeline.grid_search_cv.ocsvm_fit_useful_ratio"]["value"]
        trees = metrics["pipeline.grid_search_cv.tree_useful_ratio"]["value"]
        assert (fits, trees) == ((6 / 18, 600 / 1050) if name == "grid" else (1.0, 1.0))
    else:
        assert set(metrics) == set(run.GATED)
        assert all(m["value"] > 0 for m in metrics.values())


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((run.Path(run.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: run.UNITS[k] for k in run.GATED}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: run.unit_of(name) for name in run.PER_LAYER}


def test_missing_sources_fail_without_a_result(tmp_path, capsys):
    assert run.run(tmp_path, "chain", 1, 1.0, False, TOY) != 0
    assert capsys.readouterr().out == ""
