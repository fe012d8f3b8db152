import subprocess
import sys

# The names a fresh `import swapframe` exposes. Adding or removing one must
# change this list in the same commit.
PUBLIC_NAMES = [
    "BatteryCheck", "BatteryLedger", "CapacityError", "ConvergenceTable", "DegenerateBasisError",
    "ExtensiveObservable", "GeneratorDecomposition", "OperatorBasis", "ProtocolResult",
    "ProtocolSpec", "SweepRow", "ThermalSpec", "WorkRecord", "audit_evolution", "basis",
    "basis_from_states", "battery_deviation_check", "block_bound", "bounds", "build_state_basis",
    "check_density", "check_unitary", "commutator_norm", "conservation", "convergence_sweep",
    "dagger", "decompose_generator", "exp_neg_i", "fit_loglog_slope", "free_entropy",
    "hermitian_eig", "implicit_work", "lift_extensive", "linalg", "operator_norm", "partial_swap",
    "partial_trace", "principal_generator", "protocol", "run_protocol", "single_step_bound",
    "step_channel", "swap_operator", "tensor", "thermal_state", "thermo", "total_bound",
    "trace_norm", "two_subsystem_step", "von_neumann_entropy", "work_accounting",
]


def test_public_names_are_pinned():
    # a fresh interpreter: importing swapframe.cli or swapframe.rand elsewhere in the
    # suite adds those submodules to the package namespace
    proc = subprocess.run(
        [sys.executable, "-c",
         "import swapframe; print(*sorted(n for n in dir(swapframe) if not n.startswith('_')))"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 51
