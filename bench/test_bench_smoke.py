"""Smoke test of the benchmark: every workload at a tiny size, in both modes.

Checks that the result line names every metric BENCHMARK.json declares, with
its unit, that no task failed, and that the traced counts match what the
inputs fix. It never asserts on timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_metric(trace):
    proc = run_bench("--workload", "all", "--tiny", "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)

    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert len(metrics) == len(WORKLOADS) * len(declared)
    for workload in WORKLOADS:
        for m in declared:
            got = metrics[f"{workload}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    if trace:
        assert metrics["thermo_bath.protocol.step_channel.calls"]["value"] == 0
        assert metrics["thermo_bath.protocol.particles"]["value"] == 0
        assert metrics["sweep_qubit.conservation.embed.calls"]["value"] == 0
        # Two traced convergence sweeps over N = 10..160 at d=2 (D=3).
        assert metrics["sweep_qubit.protocol.particles"]["value"] == 2 * 310 * 3
        # Two traced battery runs, N = 24 and 25 at d=4 (D=15), three charges.
        assert metrics["battery_qudit.protocol.particles"]["value"] == 49 * 15
        assert metrics["battery_qudit.protocol.ledger_entries"]["value"] == 49 * 15 * 3
        assert metrics["cli_mix.cli.main.calls"]["value"] == 2
        assert metrics["cli_mix.cli.exit_nonzero"]["value"] == 0
    else:
        for workload in WORKLOADS:
            assert metrics[f"{workload}.ok_frac"]["value"] == 1.0
            full = json.loads((ROOT / ".bench_out" / "results" / f"{workload}-seed1-trace0.json").read_text())
            assert full["metrics"]["fail_frac"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
