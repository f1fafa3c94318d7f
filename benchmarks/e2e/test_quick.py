"""Smoke test of the end-to-end benchmark at ``--quick`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_quick.py

Not part of the tier-1 suite (``testpaths = ["tests"]``): it runs the
whole benchmark, about a minute on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, timeout=900):
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _printed(stdout):
    """``{section title: {metric: unit}}`` from the human-readable report."""
    sections = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("  ") and current is not None:
            fields = line.split()
            sections[current][fields[0]] = fields[-1]
        elif ": " in line and not line.startswith("{"):
            current = line.split(" (")[0]
            sections[current] = {}
    return sections


def test_quick_run_prints_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "results.json"
    done = _run("-m", "benchmarks.e2e", "--quick", "--seed", "0", "--out", str(out))
    assert done.returncode == 0, done.stderr[-3000:]
    printed = _printed(done.stdout)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["correct"] and doc["failed"] == 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        e2e = printed[f"{workload}: end to end"]
        layer = printed[f"{workload}: per layer"]
        for m in SPEC["end_to_end"]:
            assert e2e[m["name"]] == m["unit"], (workload, m["name"])
        for m in SPEC["per_layer"]:
            assert layer[m["name"]] == m["unit"], (workload, m["name"])
        entry = doc["workloads"][workload]
        assert entry["end_to_end"]["metrics"]["failed_frac"]["value"] == 0
        assert entry["per_layer"]["metrics"]["untimed_frac"]["value"] <= 0.05


def test_single_workload_run_ends_with_the_result_line():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(
            "benchmarks/e2e/run.py", "--workload", "sweep-grid", "--quick",
            "--seed", "1", "--seconds", "1", "--trace", str(trace),
        )
        assert done.returncode == 0, done.stderr[-3000:]
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
