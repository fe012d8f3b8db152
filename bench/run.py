"""Run the swapframe benchmark.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each workload runs in a fresh single-threaded
Python process (``worker.py``) with OMP, OpenBLAS and MKL pinned to one
thread; the load is a closed loop with one client. Without ``--trace`` the
run reports the end-to-end metrics in BENCHMARK.json, with ``setup_s`` the
median over several worker start-ups; ``--trace 1`` instead runs a fixed
number of tasks untraced and then traced and reports the per-layer metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` (the default) runs every
workload and prefixes each metric with its workload's name. Full results,
with the environment, go to ``.bench_out/results/``.

Seed 1 is the default and the development seed; seed 7919 is held out for
confirming a claimed gain.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5
# Set-up is dominated by importing numpy and scipy, whose start-up time
# follows the host's drifting speed. Each worker start-up is rescaled by a
# reference start-up that imports just those, timed before and after it, to
# the speed at which the reference takes REFERENCE_SETUP_S.
REFERENCE_CODE = "import numpy, scipy.linalg; print('ready', flush=True)"
REFERENCE_SETUP_S = 0.3
WORKLOAD_TIMEOUT_S = 170  # a run must end within 180 s
# Printed for people but not gated: zero on some workloads, which the
# benchmark contract does not allow for a gated metric.
REPORTED_ONLY = {"particles_per_s": "1/s", "fail_frac": "frac"}
NO_WAIT_NOTE = ("single-process closed loop with one client: there are no queues or waits, "
                "so no wait time is recorded")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start(argv: list[str]):
    """Spawn ``python argv``; return it with the seconds until it printed ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{' '.join(argv)} did not start (exit status {proc.returncode})")
    return proc, ready_s


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker timed out") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    return out


def reference_start_s(deadline: float) -> float:
    proc, ready_s = start(["-c", REFERENCE_CODE])
    finish(proc, deadline)
    return ready_s


def run_workload(name: str, args) -> dict:
    argv = [str(WORKER), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    walls, refs = [], []
    if not args.trace:
        refs.append(reference_start_s(deadline))
        for _ in range(1 if args.tiny else SETUP_REPEATS):
            proc, wall_s = start(argv + ["--setup-only"])
            finish(proc, deadline)
            walls.append(wall_s)
            refs.append(reference_start_s(deadline))
    proc, wall_s = start(argv)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    if not args.trace:
        setups = [w * 2 * REFERENCE_SETUP_S / (r0 + r1) for w, r0, r1 in zip(walls, refs, refs[1:])]
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["detail"].update(setup_samples_s=setups, wall_setup_samples_s=walls,
                                reference_setup_samples_s=refs, wall_setup_s_main=wall_s)
    return result


def report(result: dict, declared: list[dict]) -> dict:
    """Print a workload's metrics by name with units; return the gated ones."""
    metrics = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise WorkerError(f"{result['workload']}: no value for {', '.join(missing)}")
    detail = result["detail"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  digest {result['digest'][:16]}")
    print("   " + "  ".join(f"{k}={v}" for k, v in detail.items() if not isinstance(v, list)))
    gated = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    rows = list(gated.items())
    if not result["trace"]:
        rows += [(k, {"value": metrics[k], "unit": unit}) for k, unit in REPORTED_ONLY.items()]
    for name, m in rows:
        value = "n/a (no protocol runs)" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {name:<40} {value:>14} {m['unit']}")
    for message in result["failures"]:
        print(f"   FAILURE {message}")
    env = result["env"]
    print(f"   env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {(env['blas'] or {}).get('name')}, nproc {env['nproc']}, threads {env['threads']}, "
          f"commit {env['git_commit']}")
    return gated


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run the swapframe benchmark.")
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="four-task lists and one set-up, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "swapframe" / "__init__.py").is_file():
        print(f"error: no swapframe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    results_dir = ROOT / ".bench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    print(f"note: {NO_WAIT_NOTE}")

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in chosen:
            result = run_workload(name, args)
            gated = report(result, declared)
            result["note"] = NO_WAIT_NOTE
            result["units"] = {m["name"]: m["unit"] for m in declared}
            path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1) + "\n")
            summary["correct"] &= result["failed"] == 0
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = "" if len(chosen) == 1 else f"{name}."
            summary["metrics"].update({prefix + k: v for k, v in gated.items()})
    except (WorkerError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
