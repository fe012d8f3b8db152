import ast
import subprocess
import sys
from pathlib import Path

import numpy as np

import swapframe as sf

# The names a fresh `import swapframe` exposes. Adding or removing one must
# change this list in the same commit.
PUBLIC_NAMES = [
    "DegenerateBasisError", "ExtensiveObservable", "OperatorBasis", "ProtocolSpec", "ThermalSpec",
    "basis", "battery_deviation_check", "block_bound", "bounds", "build_state_basis",
    "check_density", "check_unitary", "conservation", "convergence_sweep", "dagger",
    "decompose_generator", "exp_neg_i", "fit_loglog_slope", "free_entropy", "implicit_work",
    "linalg", "operator_norm", "partial_trace", "principal_generator", "protocol", "run_protocol",
    "single_step_bound", "step_channel", "tensor", "thermal_state", "thermo", "total_bound",
    "trace_norm", "von_neumann_entropy", "work_accounting",
]

# Each module's `from .x import` targets at module level, found by an AST walk. Adding one
# must change this table in the same commit. The one import made inside a function is
# DEFERRED_IMPORT: `protocol` imports `bounds`, so `bounds` reaches back only at call time.
MODULE_IMPORTS = {
    "__init__": ["basis", "bounds", "conservation", "linalg", "protocol", "thermo"],
    "basis": ["linalg"],
    "bounds": ["linalg"],
    "cli": ["basis", "bounds", "conservation", "linalg", "protocol", "rand", "thermo"],
    "conservation": ["linalg"],
    "linalg": [],
    "protocol": ["basis", "bounds", "conservation", "linalg"],
    "rand": ["linalg"],
    "thermo": ["conservation", "linalg"],
}
DEFERRED_IMPORT = ("bounds", "convergence_sweep", "protocol")


def test_public_names_are_pinned():
    # a fresh interpreter: importing swapframe.cli or swapframe.rand elsewhere in the
    # suite adds those submodules to the package namespace
    proc = subprocess.run(
        [sys.executable, "-c",
         "import swapframe; print(*sorted(n for n in dir(swapframe) if not n.startswith('_')))"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 35


def test_package_source_stays_under_its_line_cap():
    # the line budget of the north star, counted by the suite rather than by hand
    lines = sum(len(path.read_text().splitlines())
                for path in Path(sf.__file__).parent.glob("*.py"))
    assert lines < 1500


def _relative_imports(tree) -> list:
    """(enclosing function or None, module) of each `from .x import` in ``tree``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                found.append((scope, child.module))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else scope)

    visit(tree, None)
    return found


def test_internal_import_graph_is_pinned():
    graph, deferred = {}, []
    for path in sorted(Path(sf.__file__).parent.glob("*.py")):
        imports = _relative_imports(ast.parse(path.read_text()))
        graph[path.stem] = sorted({module for scope, module in imports if scope is None})
        deferred += [(path.stem, scope, module) for scope, module in imports if scope]
    assert graph == MODULE_IMPORTS
    assert deferred == [DEFERRED_IMPORT]
    # module level, the package imports in layers: no cycle
    done = set()
    while len(done) < len(graph):
        ready = {m for m, targets in graph.items() if m not in done and set(targets) <= done}
        assert ready, f"import cycle among {sorted(set(graph) - done)}"
        done |= ready


def test_dense_oracle_imports_no_swapframe_module():
    # the tests' joint-space references must not share code with what they check
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dense_oracle; "
         "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'swapframe'))"],
        capture_output=True, text=True, check=True, cwd=Path(__file__).parent,
    )
    assert proc.stdout.split() == []


def test_package_imports_no_scipy_module():
    # numpy is the one runtime dependency; scipy is a test-only reference
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, swapframe, swapframe.cli; "
         "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == []


def _array_holders():
    # one fresh build of each dataclass whose fields hold arrays
    z = sf.ExtensiveObservable(np.diag([1.0, -1.0]), "Z")
    basis = sf.build_state_basis(2)
    spec = sf.ProtocolSpec(target=np.eye(2), n_rounds=2, basis=basis, rho_s=np.eye(2) / 2,
                           charges=(z,))
    result = sf.run_protocol(spec)
    return [z, basis, sf.ThermalSpec(charges=(z,), betas=(0.5,)), spec, result, result.ledger]


def test_array_holding_dataclasses_compare_by_identity():
    first, second = _array_holders(), _array_holders()
    for x, y in zip(first, second):
        assert x == x
        assert x != y
        assert len({x, y}) == 2


def test_each_error_message_is_raised_at_one_site():
    # a rule written out twice drifts: the copies of the finite-alpha check once differed on bools
    sites = {}
    for path in sorted(Path(sf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                key = ast.dump(node.exc.args[0])
                sites.setdefault(key, []).append(f"{path.stem}:{node.lineno}")
    assert [where for where in sites.values() if len(where) > 1] == []
