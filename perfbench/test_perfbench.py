"""Tiny-size self-test of the benchmark: every metric BENCHMARK.json names is
emitted, layers report work where they run, computed counts repeat, tracing
leaves the package unpatched, and the command fails cleanly without sources.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

assert run.add_source_path()

import gestrec  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import REFERENCE, Extract, Loocv, Recognize  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = replace(REFERENCE, lstm_hidden=8, fc_out=8, head=(12, 8), epochs=1, batch_size=8)


def tiny(name):
    return {
        "recognize": lambda: Recognize(config=TINY, trials=1, train_epochs=1,
                                       min_samples=4, trace_rounds=1),
        "loocv": lambda: Loocv(config=TINY, subjects=2, trials=2),
        "extract": lambda: Extract(trials=1, min_samples=2, trace_rounds=1,
                                   lengths=(12, 13, 14, 15, 16, 17), sampled=2),
    }[name]()


# Per-layer metrics that must be non-zero on each workload (README.md table).
RUNS_ON = {
    "recognize": [
        "finger_motion.finger_features.busy_s", "finger_motion.frames",
        "global_motion.global_features.busy_s", "global_motion.dad_config_for_sequence.busy_s",
        "global_motion.dad_config_for_sequence.calls", "skeleton.validate_sequence.busy_s",
        "skeleton.normalize_skeleton_branch.busy_s", "features.extract_features.self_s",
        "network.forward.infer.busy_s", "network.predict.busy_s", "network.evaluate.busy_s",
        "network.pad_batch.busy_s", "network.forward.gflop", "network.save_checkpoint.busy_s",
        "network.load_checkpoint.busy_s", "synth.generate_dataset.busy_s",
    ],
    "loocv": [
        "network.forward.train.busy_s", "network.backward.busy_s", "network.adam_step.busy_s",
        "network.clip_gradients.busy_s", "network.pad_batch.busy_s", "network.steps",
        "network.evaluate.busy_s", "network.fit_normalization.busy_s",
        "evaluation.run_loocv.self_s", "network.forward.gflop", "network.backward.gflop",
        "synth.generate_dataset.busy_s",
    ],
    "extract": [
        "finger_motion.finger_features.busy_s", "finger_motion.frames",
        "global_motion.global_features.busy_s", "global_motion.dad_config_for_sequence.busy_s",
        "skeleton.validate_sequence.busy_s", "skeleton.normalize_skeleton_branch.busy_s",
        "features.extract_features.self_s", "dataset.scan_dataset.busy_s",
        "dataset.load_sequence.busy_s", "dataset.bytes_read", "features.write_feature_file.busy_s",
        "features.bytes_written", "synth.generate_dataset.busy_s", "synth.export_dhg_tree.busy_s",
    ],
}
COMPUTED = ("finger_motion.frames", "global_motion.dad_config_for_sequence.calls",
            "dataset.bytes_read", "features.bytes_written", "network.steps",
            "network.pad_efficiency", "network.forward.gflop", "network.backward.gflop")


def _run(name, trace, tmp_path):
    return run.run_workload(tiny(name), 3, 0, trace, tmp_path / "work", tmp_path,
                            setup_repeats=1)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == ["recognize", "loocv", "extract"]
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", ["recognize", "loocv", "extract"])
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(name, trace, tmp_path):
    result = _run(name, trace, tmp_path)
    assert result["correct"], result["info"]["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        for metric in RUNS_ON[name]:
            assert result["metrics"][metric]["value"] > 0, metric
        assert (tmp_path / "traces" / f"{name}-seed3-measure.json").is_file()


def test_computed_counts_repeat_and_tracing_is_removed(tmp_path):
    first = _run("loocv", True, tmp_path)["metrics"]
    second = _run("loocv", True, tmp_path)["metrics"]
    for name in COMPUTED:
        assert first[name] == second[name], name
    for module_name, attr, _, _ in LAYERS:
        fn = getattr(sys.modules[f"gestrec.{module_name}"], attr)
        assert not hasattr(fn, "__wrapped__"), f"{module_name}.{attr} is still wrapped"
    assert gestrec.features.extract_features is gestrec.extract_features


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "recognize", "--seed", "1", "--seconds", "1",
                            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
