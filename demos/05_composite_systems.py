#!/usr/bin/env python3
"""Two-subsystem interactions from simultaneous pairwise swaps.

Swapping subsystem A with its frame copy and B with its copy in one exponent
is one swap of the composite halves, so the collision is the ordinary one with
frame particle sigma_A ⊗ sigma_B. Its first-order action on the system is
generated by sigma_A ⊗ sigma_B, enough to build entangling evolutions while
conserving every extensive charge on all four subsystems.
"""

import numpy as np

from swapframe import (
    ExtensiveObservable,
    dagger,
    exp_neg_i,
    implicit_work,
    single_step_bound,
    step_channel,
    tensor,
    trace_norm,
)
from swapframe.rand import random_density, random_hermitian, rng_from_seed

rng = rng_from_seed(5)
I2 = np.eye(2, dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)

sigma = tensor((I2 + Z) / 2, (I2 + Z) / 2)   # frame pair sigma_A ⊗ sigma_B
alpha, n = 1.0, 100

print("frame pair in |0><0| ⊗ |0><0|, coupling alpha = 1, N = 100")
print()
print("=== Accuracy against conjugation by exp(-i(alpha/N) sigma_A⊗sigma_B) ===")
bound, _ = single_step_bound(alpha, n)
u = exp_neg_i(sigma, alpha / n)
worst = 0.0
for _ in range(10):
    rho = random_density(4, rng)
    out, _ = step_channel(rho, sigma, alpha, n)
    worst = max(worst, trace_norm(out - u @ rho @ dagger(u)))
print(f"worst trace error over 10 random two-qubit states: {worst:.3e}")
print(f"single-collision bound:                            {bound:.3e}")

print()
print("=== The collision conserves charges on all four subsystems ===")
rho = random_density(4, rng)
out, frame = step_channel(rho, sigma, alpha, n)
charges = tuple(ExtensiveObservable(random_hermitian(2, rng), f"A{i}") for i in range(3))
# each side's change of a charge total over its two slots is minus its implicit work
system, particle = implicit_work(rho, out, charges), implicit_work(sigma, frame, charges)
for name in system:
    print(f"delta <{name} total>: system {-system[name]:+.3e}, particle {-particle[name]:+.3e}, "
          f"sum {-(system[name] + particle[name]):+.2e}")
