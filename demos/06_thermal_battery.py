#!/usr/bin/env python3
"""Thermodynamics with non-commuting charges and the frame as a battery.

A bath qubit in a generalized thermal state for charges Z and X (which do not
commute) obeys the weighted second law under any unitary. Running the
collision protocol with a ledger turns the frame into an explicit battery:
its charge gain tracks the implicit work to within the protocol's trace
error.
"""

import numpy as np

from swapframe import (
    ExtensiveObservable,
    ProtocolSpec,
    ThermalSpec,
    battery_deviation_check,
    build_state_basis,
    dagger,
    exp_neg_i,
    free_entropy,
    implicit_work,
    run_protocol,
    tensor,
    thermal_state,
    work_accounting,
)
from swapframe.rand import haar_unitary, random_density, rng_from_seed

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)

spec = ThermalSpec(
    charges=(ExtensiveObservable(Z, "Z"), ExtensiveObservable(X, "X")),
    betas=(1.0, 0.5),
)
tau, ln_z = thermal_state(spec)
print("=== Generalized thermal state for non-commuting charges Z, X ===")
print(f"betas = (1.0, 0.5), ln Z = {ln_z:.6f}")
print(f"free entropy of the thermal state: {free_entropy(tau, spec):+.6f} (= -ln Z)")

rng = rng_from_seed(6)
worst = np.inf
bath0 = tensor(tau, tau)
for _ in range(100):
    u = haar_unitary(4, rng)
    record = work_accounting(bath0, u @ bath0 @ dagger(u), [2, 2], bath=[0, 1], spec=spec)
    worst = min(worst, record.margin_bath_only)
print(f"100 random unitaries on a 2-qubit bath: worst -sum(beta_i W_i) = {worst:.4f} (>= 0)")

print()
print("=== Gibbs state minimizes free entropy ===")
gap = min(free_entropy(random_density(2, rng), spec) + ln_z for _ in range(100))
print(f"smallest F(rho) - F(tau) over 100 random states: {gap:.4f} (>= 0)")

print()
print("=== The frame as an explicit battery ===")
basis = build_state_basis(2)
target = exp_neg_i(X, np.pi / 4)
rho = (I2 + 0.3 * X + 0.2 * Y + 0.7 * Z) / 2
charge = ExtensiveObservable(Z, "Z")
works = implicit_work(rho, target @ rho @ dagger(target), (charge,))
print(f"target: quarter-turn about x; implicit type-Z work = {works['Z']:+.6f}")
print(f"{'N':>6}  {'trace error':>12}  {'|ledger - W|':>12}  {'eps*||Z||':>12}")
for n in (100, 400, 1600):
    run = ProtocolSpec(target=target, n_rounds=n, basis=basis, rho_s=rho,
                       charges=(charge,))
    result = run_protocol(run)
    check = battery_deviation_check(result, works, result.total_error, (charge,))["Z"]
    print(f"{n:>6}  {result.total_error:>12.3e}  {check.deviation:>12.3e}  {check.bound:>12.3e}")
print()
print("The battery's bookkeeping error shrinks with the implementation error.")
