#!/usr/bin/env python3
"""Implementing a full unitary with nothing but partial swaps.

Each round collides the system once with a fresh particle per basis state,
so the frame is consumed left to right. Errors against the exact target decay
like 1/N and never exceed the analytic bound once N clears the validity
threshold.
"""

import numpy as np

from swapframe import ProtocolSpec, build_state_basis, convergence_sweep, exp_neg_i

Z = np.diag([1.0, -1.0]).astype(complex)
basis = build_state_basis(2)
target = exp_neg_i(Z, np.pi / 4)
plus = np.full((2, 2), 0.5, dtype=complex)

print("target: quarter-turn rotation about the z axis, system starts in |+><+|")
spec = ProtocolSpec(target=target, n_rounds=50, basis=basis, rho_s=plus)
table = convergence_sweep(spec, [50, 100, 200, 400, 800])

print()
print(f"{'N':>6}  {'measured error':>14}  {'analytic bound':>14}  {'valid':>6}")
for row in table.rows:
    print(f"{row.n_rounds:>6}  {row.measured_error:>14.4e}  {row.analytic_bound:>14.4e}"
          f"  {str(row.valid):>6}")

print()
print(f"log-log fit: error ~ N^({table.slope:.3f})   (expected exponent -1)")
print(f"bound violations on valid rows: {len(table.violations())}")
