"""Tests of the benchmark itself: every workload at a tiny size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
# Small enough that each workload runs a handful of items.
TINY_SECONDS = "0.3"


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", TINY_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_lists_every_workload_and_layer_metric():
    import workloads

    assert NAMES == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_printed_with_units(workload):
    done = _run(workload, trace=0)
    result = _result(done)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads(done.stdout.strip().splitlines()[-2])
    assert detail["failed_ratio"] == {"value": result["failed"] / result["attempted"], "unit": "1"}
    assert set(detail["env"]) >= {"python", "numpy", "scipy", "openblas_numpy", "nproc",
                                  "blas_threads", "seed"}
    assert detail["env"]["blas_threads"] == 1


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(workload):
    first = _result(_run(workload, trace=1))
    second = _result(_run(workload, trace=1))
    assert _units(first["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = {n: first["metrics"][n]["value"] for n in tracing.EXACT_COUNTS}
    assert counts == {n: second["metrics"][n]["value"] for n in tracing.EXACT_COUNTS}
    assert sum(counts.values()) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("verify-random-d2", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_gate_refuses_a_wrong_helstrom_error():
    import workloads
    from qudisc import campaign

    cfg = workloads.make_inputs(workloads.WORKLOADS["verify-random-d2"], 5)[0]
    report = campaign.run_campaign(cfg)
    text = campaign.render_report(report, "csv")
    ok = workloads.Outcome()
    workloads._check_campaign(cfg, report, text, ok)
    assert (ok.failed, ok.errors) == (0, [])

    bad_record = dataclasses.replace(report.records[0], helstrom_error=0.25)
    bad = dataclasses.replace(report, records=[bad_record, *report.records[1:]])
    outcome = workloads.Outcome()
    workloads._check_campaign(cfg, bad, campaign.render_report(bad, "csv"), outcome)
    assert outcome.failed == 1
    assert "helstrom_error" in outcome.errors[0]


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    # (id, parent, op, name, start_ns, end_ns); spans close children first.
    tracer.spans = [
        (1, 0, 0, "child", 10, 30),
        (2, 0, 0, "child", 40, 45),
        (0, -1, 0, "root", 0, 100),
    ]
    self_s = tracer.self_seconds()
    assert self_s["root"] == pytest.approx(75e-9)
    assert self_s["child"] == pytest.approx(25e-9)


def test_tracer_restores_wrapped_functions():
    from qudisc import campaign, measurement

    before = (campaign.helstrom_povm, measurement.Povm.validate)
    with tracing.Tracer():
        assert campaign.helstrom_povm is not before[0]
    assert (campaign.helstrom_povm, measurement.Povm.validate) == before
