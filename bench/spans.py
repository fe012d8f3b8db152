"""In-memory spans around calls into swapframe's public functions.

The tracer replaces each function in ``TARGETS`` in every ``swapframe``
namespace that binds it. Modules import these functions by name (for
example ``swapframe.protocol.partial_trace``), so patching only the defining
module would miss the calls between modules. A span records the function,
start, end, enclosing span and task id; spans stay in flat arrays until the
run ends. A function's self time is its spans' durations minus the time
their direct child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Public functions timed per layer, by module. A function a later version no
# longer defines reports zero calls.
TARGETS = {
    "protocol": ("step_channel", "collision_round", "run_protocol", "partial_swap"),
    "linalg": ("tensor", "partial_trace", "trace_norm", "operator_norm", "hermitian_eig",
               "principal_generator", "check_density", "check_unitary", "is_hermitian",
               "von_neumann_entropy"),
    "basis": ("build_state_basis", "decompose_generator"),
    "conservation": ("embed", "partial_sum", "lift_extensive"),
    "bounds": ("convergence_sweep", "fit_loglog_slope"),
    "thermo": ("work_accounting", "implicit_work", "battery_deviation_check"),
    "cli": ("main",),
}

NAMES = [f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns]


class Tracer:
    """Wraps the targets on ``install()`` and restores them on ``uninstall()``."""

    def __init__(self):
        self.function = array("i")
        self.parent = array("i")
        self.task_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.task = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers = {}
        for fid, name in enumerate(NAMES):
            module, fn = name.split(".")
            original = getattr(sys.modules.get(f"swapframe.{module}"), fn, None)
            if callable(original):
                self._wrappers[id(original)] = (original, self._wrap(fid, original))

    def _wrap(self, fid: int, fn):
        function, parent, task_of, start, end = (
            self.function, self.parent, self.task_of, self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            function.append(fid)
            parent.append(stack[-1] if stack else -1)
            task_of.append(self.task)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "swapframe" or name.startswith("swapframe.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """``<module>.<function>.calls`` and ``.self_s`` for every target."""
        fid = np.array(self.function, dtype=np.intp)
        parent = np.array(self.parent, dtype=np.intp)
        dur = np.array(self.end) - np.array(self.start)
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        calls = np.bincount(fid, minlength=len(NAMES))
        self_s = np.bincount(fid, weights=dur - covered, minlength=len(NAMES))
        metrics = {}
        for k, name in enumerate(NAMES):
            metrics[f"{name}.calls"] = int(calls[k])
            metrics[f"{name}.self_s"] = float(self_s[k])
        return metrics

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), function=np.array(self.function),
                 parent=np.array(self.parent), task=np.array(self.task_of),
                 start=np.array(self.start), end=np.array(self.end))
