"""A fixed calibration kernel that tracks the host's momentary speed.

On a shared machine the same code runs up to half again as fast or slow from
one minute to the next (measured on a 2-vCPU VM), which would swamp the
differences the benchmark must resolve. The worker runs this kernel next to
every timed task and rescales the task's wall time to the reference speed at
which the kernel takes ``REFERENCE_S``. The kernel mixes the same kinds of
work as the library's hot paths (interpreter loops, small-array numpy calls,
matrix products and a Hermitian eigensolve) and shares no code with
swapframe, so a change to the library cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.005
REPEATS = 60

_A = np.arange(16, dtype=float).reshape(4, 4) / 16 + 1j * np.eye(4)


def kernel_s() -> float:
    """Wall seconds for one pass of the fixed kernel."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        b = np.kron(_A, _A)
        c = b @ b.conj().T
        np.trace(b.reshape(4, 4, 4, 4), axis1=1, axis2=3)
        np.linalg.eigvalsh(c)
        max(abs(x) for x in _A.ravel().tolist())
    return time.perf_counter() - t0
