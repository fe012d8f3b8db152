"""Quantum reference frames from partial swaps.

Simulate arbitrary unitaries on a system using only charge-conserving
partial-swap collisions with copies of the system, verify the explicit
trace-norm error bounds, and use the frame as a battery for any number of
(possibly non-commuting) conserved quantities.
"""

from .linalg import (
    tensor,
    partial_trace,
    exp_neg_i,
    principal_generator,
    trace_norm,
    operator_norm,
    von_neumann_entropy,
    check_density,
    check_unitary,
    dagger,
)
from .basis import (
    OperatorBasis,
    DegenerateBasisError,
    build_state_basis,
    decompose_generator,
)
from .conservation import ExtensiveObservable
from .protocol import (
    ProtocolSpec,
    step_channel,
    run_protocol,
)
from .bounds import (
    single_step_bound,
    block_bound,
    total_bound,
    convergence_sweep,
    fit_loglog_slope,
)
from .thermo import (
    ThermalSpec,
    thermal_state,
    free_entropy,
    work_accounting,
    implicit_work,
    battery_deviation_check,
)

__version__ = "0.1.0"
