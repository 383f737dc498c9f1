"""Smoke test of the benchmark: one small case per workload, traced and untraced.

    python3 -m pytest bench/test_smoke.py -q

It takes a few seconds and is not collected by the Tier-1 run, which only
looks under tests/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    path = run.OUT / f"smoke-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _process(workload, work, name, *extra):
    return run.run_workload_process(workload, 7, work / name, 120, "--cases", "1", *extra)


def _counts(child):
    trace = child["trace"]
    return {k: v[0] for k, v in trace["stats"].items()}, trace["sizes"]


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def test_reported_stats_are_traced():
    traced = {target[3] for target in tracer.TARGETS}
    assert set(run.CALLS_AND_SELF) | set(run.SELF_ONLY) <= traced
    assert {name.split(".")[0] for name in traced} == set(run.LAYERS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_case_traced_and_untraced(workload, work):
    plain, setup_s = _process(workload, work, "plain", "--trace", "0")
    traced1, _ = _process(workload, work, "traced1", "--trace", "1")
    traced2, _ = _process(workload, work, "traced2", "--trace", "1")
    assert setup_s > 0

    setups = [(setup_s, reference.probe())]
    metrics, record = run.summarize(plain, setups, trace=False)
    assert set(metrics) == set(run.END_TO_END)
    assert record["failed"] == 0 and metrics["pass_frac"]["value"] == 1
    assert record["case_samples"] == 1

    layer_metrics, traced_record = run.summarize(traced1, setups, trace=True)
    assert set(layer_metrics) == set(run.per_layer_units())
    assert traced_record["failed"] == 0
    assert traced_record["result_digest"] == record["result_digest"]
    assert layer_metrics["cli.main.calls"]["value"] == 1
    assert _counts(traced1) == _counts(traced2)
    spans = traced1["trace"]["spans"]
    assert [s[1] for s in spans if s[4] is None] == ["bench.case"]
    assert any(s[1] == "cli.main" for s in spans)


def test_correction_divides_out_the_reference_speed():
    timeline = reference.Timeline([(t, 2 * reference.NOMINAL_S) for t in range(10)])
    assert timeline.correct(4.0, 1.0) == 0.5
    timeline = reference.Timeline([(0.0, reference.NOMINAL_S), (10.0, 3 * reference.NOMINAL_S)])
    assert timeline.correct(0.0, 1.0) == 1.0 / 2


def test_tail_percentile():
    assert run.tail(range(1, 101)) == (90, 90)
    assert run.tail([3, 1, 2]) == (100, 3)


def test_refuses_a_checkout_without_sources(work):
    copy = work / "bare"
    shutil.copytree(HERE, copy / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", copy)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pentagon",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=copy, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
