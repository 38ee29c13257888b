"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench/tests`` from the
repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import hoimix.experiment
import hoimix.model
from perfbench import run, trace, workloads
from perfbench.trace import PER_LAYER, Tracer, tail
from perfbench.worker import measure

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_traced_golden_run_keeps_the_trajectory_and_counts(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    result = measure("golden_run", 0, str(tmp_path), "selftest", str(spans_path))

    # check_golden raises on any digest or mAP mismatch at seed 0
    assert result["ok"], result.get("error")
    _, metrics_sha, ckpt_sha = result["fingerprint"]
    assert metrics_sha.startswith(workloads.GOLDEN_METRICS_SHA256)
    assert ckpt_sha.startswith(workloads.GOLDEN_CHECKPOINT_SHA256)
    assert result["map_full"] == workloads.GOLDEN_MAP_FULL

    layers = result["layers"]
    assert layers["model.forward_calls"] == 12000
    assert layers["model.backward_calls"] == 12000
    assert layers["optimizer.steps"] == 12000
    assert layers["loss.ws_calls"] == 8400
    assert layers["loss.fs_calls"] == 3600
    assert layers["batching.batches"] == 120
    assert layers["batching.iters_per_batch"] == 100
    assert layers["evaluation.predictions"] == 74232
    assert layers["evaluation.calls"] == 1
    assert set(layers) == set(PER_LAYER) - {"trace.overhead_frac"}
    # the training step is what golden_run was chosen to stress
    assert layers["model.share"] + layers["loss.share"] + layers["optimizer.share"] > 0.5

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert sum(s["name"] == "model.forward" for s in spans) == 12000
    assert {s["run"] for s in spans} == {"selftest"}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]

    # the tracer put every binding back
    assert hoimix.experiment.forward is hoimix.model.forward


def test_self_time_subtracts_children():
    tracer = Tracer("t")
    tracer.spans = [
        ["experiment.train", 0.0, 10.0, -1],
        ["model.forward", 1.0, 4.0, 0],
        ["loss.ws_loss", 5.0, 6.0, 0],
        ["evaluation.evaluate", 6.0, 9.0, 0],
        ["evaluation.collect_predictions", 6.0, 8.0, 3],
    ]
    m = tracer.metrics(wall_s=10.0)
    assert m["experiment.train_self_s"] == pytest.approx(3.0)
    assert m["experiment.share"] == pytest.approx(0.3)
    assert m["model.share"] == pytest.approx(0.3)
    assert m["loss.share"] == pytest.approx(0.1)
    assert m["evaluation.share"] == pytest.approx(0.3)
    assert m["evaluation.score_s"] == pytest.approx(2.0)


def test_tracer_restores_bindings_when_the_call_raises():
    original = hoimix.experiment.train
    with pytest.raises(ValueError):
        with Tracer("t") as tracer:
            hoimix.experiment.train([], hoimix.experiment.ExperimentConfig())
    assert hoimix.experiment.train is original
    assert [s[0] for s in tracer.spans] == ["experiment.train", "batching.batch_schedule"]


def test_runs_with_differing_outputs_or_counts_fail():
    counts = {name: 1 for name, unit in PER_LAYER.items() if unit in trace.EXACT_UNITS}
    runs = [
        {"ok": True, "fingerprint": ["a"], "layers": dict(counts)},
        {"ok": True, "fingerprint": ["a"]},
        {"ok": True, "fingerprint": ["b"]},
        {"ok": True, "fingerprint": ["a"], "layers": dict(counts, **{"model.forward_calls": 2})},
        {"ok": True, "fingerprint": ["a"], "layers": dict(counts)},
    ]
    run._mark_inconsistent(runs)
    assert [r["ok"] for r in runs] == [True, True, False, False, True]
    assert "model.forward_calls" in runs[3]["error"]


def test_tail_has_ten_samples_beyond_it():
    value, percentile, n = tail(range(12000))
    assert value == 11989 and n == 12000
    assert percentile == pytest.approx(100 * 11990 / 12000)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_metric_and_workload_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden_run", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
