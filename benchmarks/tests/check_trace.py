"""Checks of the benchmark's span recorder and of its coverage.

Run from the repository root:

    python3 -m pytest -q benchmarks/tests/check_trace.py

The file name keeps these checks out of the repository's own test run:
the expected call counts describe the code the benchmark was written
against, and a change that alters them alters what the benchmark
measures.  The counts come from the workload configs, so a binding the
recorder misses fails here instead of moving time into a parent span.
"""

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from coralign import coral, lda, linalg  # noqa: E402
from coralign import bench  # noqa: E402
from coralign.bench import runner  # noqa: E402

# Methods whose target model is the cross-validated SVM.
SVM_METHODS = ("NA", "CORAL-reg", "CORAL-analytical", "whiten-both",
               "target-recolor-source-direction")
CORAL_LDA_METHODS = ("CORAL-LDA", "CORAL-LDA-mismatched")


def traced_op(name):
    workload = workloads.WORKLOADS[name](0)
    with tracer.Tracer() as recorder:
        workload.op(0)
    return workload, recorder.spans, tracer.summarize(recorder.spans)


def test_every_binding_is_wrapped_and_restored():
    bindings = [
        (linalg, "sym_power"), (coral, "sym_power"), (lda, "sym_power"),
        (runner, "generate_shift"), (bench, "generate_shift"),
        (runner, "mean_and_covariance"), (runner, "run_experiment"),
    ]
    originals = [getattr(module, attr) for module, attr in bindings]
    with tracer.Tracer():
        for (module, attr), original in zip(bindings, originals):
            wrapped = getattr(module, attr)
            assert wrapped is not original and wrapped.__wrapped__ is original
    for (module, attr), original in zip(bindings, originals):
        assert getattr(module, attr) is original


def test_self_time_subtracts_direct_children():
    spans = [
        [0, -1, "root", 0.0, 10.0, None],
        [1, 0, "child", 1.0, 4.0, None],
        [2, 1, "leaf", 2.0, 3.0, 7.0],
        [3, 0, "child", 5.0, 6.0, None],
    ]
    table = tracer.summarize(spans)
    assert table["root"]["self_s"] == pytest.approx(6.0)
    assert table["child"] == pytest.approx(
        {"calls": 2, "total_s": 4.0, "self_s": 3.0, "count": 0.0})
    assert table["leaf"]["count"] == 7.0


def test_paper_grid_trial_call_counts():
    defaults = {f.name: f.default for f in dataclasses.fields(runner.ExperimentConfig)}
    fits_per_method = len(defaults["svm_grid"]) * defaults["svm_folds"] + 1
    workload, spans, table = traced_op("paper-grid")
    assert set(SVM_METHODS) <= set(workload.methods)
    assert table["classify.train_svm"]["calls"] == len(SVM_METHODS) * fits_per_method == 130
    assert table["classify.cross_validate_C"]["calls"] == len(SVM_METHODS)
    assert table["bench.runner.run_experiment"]["calls"] == 1
    metrics = tracer.layer_metrics(spans, ops=1, overhead=0.0)
    assert metrics["classify.final_fit_ratio"]["value"] == pytest.approx(1 / fits_per_method)


def test_lda_highdim_trial_call_counts():
    workload, _, table = traced_op("lda-highdim")
    K = workload.spec_args["K"]
    assert set(CORAL_LDA_METHODS) <= set(workload.methods)
    assert table["lda.fit_coral_lda"]["calls"] == len(CORAL_LDA_METHODS) * K == 20
    assert table["linalg.sym_power"]["calls"] == 2 * len(CORAL_LDA_METHODS) * K == 40
    assert "classify.train_svm" not in table and "deep.train_joint" not in table


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, kind):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[kind]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "paper-grid", "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_run_fails_without_the_package(tmp_path):
    """A directory with only BENCHMARK.json and the benchmark gives no result."""
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paper-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
