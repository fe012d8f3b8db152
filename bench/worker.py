"""One workload in its own single-threaded process; started by run.py.

The worker imports swapframe, builds the seeded task list and prints
``ready`` (the end of set-up). With ``--setup-only`` it stops there.
Otherwise it warms up, then either times tasks for ``--seconds`` (untraced)
or runs a fixed number of tasks, each once untraced and once with spans
(``--trace 1``). Every output is checked, digested and, for a seeded sample,
compared with the oracle; the last line of stdout is one JSON object of raw
measurements.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_TIMED_TASKS = 100  # so the p90 has at least ten samples beyond it
MAX_MESSAGES = 5


class Runner:
    """Runs tasks by index and keeps what the checks need across repeats."""

    def __init__(self, workload, tasks, sample):
        self.workload = workload
        self.tasks = tasks
        self.sample = set(sample)
        self.digests: dict[int, str] = {}
        self.kept: dict[int, object] = {}
        self.bad: set[int] = set()  # task indices that failed a deferred check
        self.messages: list[str] = []

    def note(self, i: int, message: str) -> None:
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"task {i}: {message}")

    def execute(self, i: int):
        """Run task i; return (seconds, passed, output or None)."""
        task = self.tasks[i]
        t0 = time.perf_counter()
        try:
            raw = self.workload.run(task)
        except Exception as exc:  # a failing task is counted, not fatal
            seconds = time.perf_counter() - t0
            self.note(i, f"raised {type(exc).__name__}: {exc}")
            return seconds, False, None
        seconds = time.perf_counter() - t0
        try:
            out = self.workload.finish(task, raw)
            fails = self.workload.check(task, out)
            dig = self.workload.digest(out)
        except Exception as exc:
            self.note(i, f"output check raised {type(exc).__name__}: {exc}")
            return seconds, False, None
        if i not in self.digests:
            self.digests[i] = dig
            if i in self.sample:
                self.kept[i] = out
        elif self.digests[i] != dig:
            fails.append("output differs from this task's earlier run")
        for message in fails:
            self.note(i, message)
        return seconds, not fails, out

    def run_oracle(self) -> None:
        for i, out in sorted(self.kept.items()):
            try:
                fails = self.workload.oracle(self.tasks[i], out)
            except Exception as exc:
                fails = [f"oracle raised {type(exc).__name__}: {exc}"]
            for message in fails:
                self.note(i, f"oracle: {message}")
            if fails:
                self.bad.add(i)

    def compare_stored_digests(self, key: str) -> None:
        """Check digests against earlier runs of the same inputs and library source."""
        path = OUT / "digests.json"
        stored = json.loads(path.read_text()) if path.is_file() else {}
        earlier = stored.setdefault(key, {})
        for i, dig in self.digests.items():
            if earlier.setdefault(str(i), dig) != dig:
                self.bad.add(i)
                self.note(i, "output differs from an earlier run with the same seed")
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        os.replace(tmp, path)

    def run_digest(self) -> str:
        return hashlib.sha256("".join(self.digests[i] for i in sorted(self.digests)).encode()).hexdigest()


def source_hash() -> str:
    """Hash of the library's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "swapframe").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """Commit of the checkout, read from .git; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
    }


def warm_up(runner, workload) -> None:
    for k in range(workload.warmup):
        runner.execute(k % workload.n_tasks)
    gc.collect()


def timed_pass(runner, workload, seconds: float, min_tasks: int):
    """Closed loop over the task list for ``seconds`` and at least ``min_tasks`` tasks.

    The calibration kernel runs before the first task and after every task;
    each task's wall time is rescaled by the mean of the two kernel times
    around it.
    """
    durations, indices, passed, kernels = [], [], [], [calibrate.kernel_s()]
    start = time.perf_counter()
    while len(durations) < min_tasks or time.perf_counter() - start < seconds:
        i = len(durations) % workload.n_tasks
        dt, ok, _ = runner.execute(i)
        kernels.append(calibrate.kernel_s())
        durations.append(dt)
        indices.append(i)
        passed.append(ok)
    scaled = [dt * 2 * calibrate.REFERENCE_S / (k0 + k1)
              for dt, k0, k1 in zip(durations, kernels, kernels[1:])]
    return scaled, durations, indices, passed, kernels


def untraced_metrics(workload, tasks, durations, indices, failed: int) -> dict:
    busy = sum(durations)
    particles = sum(workload.particles(tasks[i]) for i in indices)
    return {
        "tasks_per_s": len(durations) / busy,
        "task_s_p50": statistics.median(durations),
        "task_s_p90": statistics.quantiles(durations, n=10, method="inclusive")[8],
        "particles_per_s": particles / busy if particles else None,
        "fail_frac": failed / len(durations),
        "ok_frac": 1.0 - failed / len(durations),
    }


def traced_passes(runner, workload, indices, spans_path: Path):
    """Each task once untraced, then once with spans; returns per-layer metrics.

    Alternating the two keeps drift in the host's speed out of the overhead.
    """
    import spans

    tracer = spans.Tracer()
    plain, traced = [], []
    for k, i in enumerate(indices):
        plain.append(runner.execute(i))
        tracer.task = k
        tracer.install()
        try:
            traced.append(runner.execute(i))
        finally:
            tracer.uninstall()
    tracer.save(spans_path)

    plain_s = sum(dt for dt, _, _ in plain)
    traced_s = sum(dt for dt, _, _ in traced)
    outputs = [out for _, _, out in traced if out is not None]
    particles = sum(workload.particles(runner.tasks[i]) for i in indices)
    layer = tracer.summary()
    layer.update({
        "protocol.particles": particles,
        "protocol.ledger_entries": sum(workload.ledger_entries(runner.tasks[i]) for i in indices),
        "protocol.particles_per_s": particles / plain_s,
        "cli.out_bytes": sum(workload.out_bytes(o) for o in outputs) / max(layer["cli.main.calls"], 1),
        "cli.exit_nonzero": sum(workload.exit_nonzero(o) for o in outputs),
        "trace.overhead_s": traced_s - plain_s,
    })
    passed = [ok for _, ok, _ in plain + traced]
    detail = {"tasks": len(indices), "untraced_s": plain_s, "traced_s": traced_s,
              "spans": str(spans_path.relative_to(ROOT))}
    return layer, passed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    import swapframe
    import workloads

    if Path(swapframe.__file__).resolve().parent != ROOT / "src" / "swapframe":
        print(f"error: imported swapframe from {swapframe.__file__}, not this checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    workdir = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tasks = workload.setup(np.random.default_rng(args.seed), workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        runner = Runner(workload, tasks, workload.oracle_sample(np.random.default_rng([args.seed, 1])))
        warm_up(runner, workload)
        if args.trace:
            n_traced = 2 if args.tiny else max(2, round(args.seconds / (3 * workload.nominal_task_s)))
            indices = [k % workload.n_tasks for k in range(n_traced)]
            spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.npz"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            metrics, passed, detail = traced_passes(runner, workload, indices, spans_path)
            indices = indices + indices
        else:
            min_tasks = workload.n_tasks if args.tiny else max(workload.n_tasks, MIN_TIMED_TASKS)
            durations, wall, indices, passed, kernels = timed_pass(
                runner, workload, args.seconds, min_tasks)
            detail = {"timed_tasks": len(wall), "warmup_tasks": workload.warmup,
                      "wall_busy_s": sum(wall), "wall_task_s_p50": statistics.median(wall),
                      "kernel_s_p50": statistics.median(kernels),
                      "wall_task_s": wall, "kernel_s": kernels}
        runner.run_oracle()
        runner.compare_stored_digests(
            f"{args.workload}|seed={args.seed}|tasks={workload.n_tasks}|source={source_hash()}")
        # A deferred failure (oracle or stored digest) fails every run of that task.
        failed = sum(1 for i, ok in zip(indices, passed) if not ok or i in runner.bad)
        if not args.trace:
            metrics = untraced_metrics(workload, tasks, durations, indices, failed)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(indices),
        "failed": failed,
        "failures": runner.messages,
        "digest": runner.run_digest(),
        "metrics": metrics,
        "detail": detail,
        "env": environment(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
