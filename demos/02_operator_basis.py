#!/usr/bin/env python3
"""State bases, their duals, and the coefficient bound.

For a qubit the default construction lands on the pure states (1+P)/2 for
the three Pauli matrices; their duals are the Paulis themselves plus
(1-X-Y-Z)/2 for the identity slot. Any generator with spectrum in (-pi, pi]
decomposes with coefficients no larger than sqrt(D)·pi·max ||dual||_HS.
"""

import numpy as np

from swapframe import OperatorBasis, build_state_basis, decompose_generator, principal_generator
from swapframe.rand import haar_unitary, rng_from_seed

print("=== Qubit basis ===")
basis = build_state_basis(2)
for k, sigma in enumerate(basis.states, start=1):
    w = np.linalg.eigvalsh(sigma)
    print(f"sigma_{k}: eigenvalues ({w[0]:+.3f}, {w[1]:+.3f}), trace {np.trace(sigma).real:.3f}")
print(f"coefficient bound alpha_max = {basis.alpha_max:.6f}  (pi*sqrt(6) = {np.pi*np.sqrt(6):.6f})")

print()
print("=== Decomposing a rotation generator ===")
Z = np.diag([1.0, -1.0]).astype(complex)
dec = decompose_generator((np.pi / 2) * Z, basis)
print(f"H = (pi/2)·Z  ->  alphas = {tuple(round(a, 12) for a in dec.alphas)}")
print(f"identity component {dec.identity_coefficient:+.6f} (global phase, discarded)")
print(f"reconstruction residual {dec.residual:.2e}")

print()
print("=== Coefficient bound over random generators ===")
rng = rng_from_seed(2)
worst = 0.0
for _ in range(500):
    dec = decompose_generator(principal_generator(haar_unitary(2, rng)), basis)
    worst = max(worst, dec.max_alpha)
print(f"500 random generators: max |alpha_k| = {worst:.4f} <= {basis.alpha_max:.4f}")

print()
print("=== Qutrit basis and JSON round trip ===")
basis3 = build_state_basis(3)
restored = OperatorBasis.from_json(basis3.to_json())
same = all(np.array_equal(a, b) for a, b in zip(basis3.states, restored.states))
print(f"dimension 3: {basis3.size} states, duals rebuilt on import, "
      f"bit-identical round trip: {same}")
