"""Smoke tests for the benchmark: every workload at reduced size, with its
output checks, untraced and traced; exact counts repeat across two traced
runs; BENCHMARK.json names what the harness reports; and the benchmark
refuses to run without the program's source.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("coauthor-1e5", "expr-corpus", "scholarly-cli")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


def test_spec_names_what_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == spans.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_run_passes_its_checks(workload):
    result = result_of(run(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(harness.END_TO_END)
    for name, m in result["metrics"].items():
        assert m["unit"] == harness.END_TO_END[name][0]
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(run(workload, trace=1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(spans.PER_LAYER)
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    for name in spans.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload != "coauthor-1e5":
        assert first["metrics"]["rewrite.trace_steps"]["value"] > 0
        assert first["metrics"]["tensor.matrix_calls"]["value"] > 0


def test_traced_run_restores_the_program():
    import pathweave.cli
    import pathweave.kernels
    import pathweave.tensor

    before = (
        pathweave.cli.evaluate,
        pathweave.kernels.matmul,
        pathweave.tensor.MultiRelTensor.__dict__["from_edges"],
        pathweave.tensor.MultiRelTensor.matrix,
    )
    rec = spans.Recorder()
    with rec.installed():
        assert pathweave.cli.evaluate is not before[0]
        assert pathweave.kernels.matmul is not before[1]
    after = (
        pathweave.cli.evaluate,
        pathweave.kernels.matmul,
        pathweave.tensor.MultiRelTensor.__dict__["from_edges"],
        pathweave.tensor.MultiRelTensor.matrix,
    )
    assert after == before


def test_refuses_to_run_without_the_program():
    bare = BENCH / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("coauthor-1e5", trace=0, cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
