#!/usr/bin/env python3
"""A single partial-swap collision and the algebra behind it.

Tracing one factor out of a swapped product gives operator products, which is
why a weak swap with a particle in state sigma rotates the system about
sigma. We check the two trace identities numerically, then compare one exact
collision against the small rotation it implements.
"""

import numpy as np

from swapframe import (
    dagger,
    exp_neg_i,
    partial_trace,
    single_step_bound,
    step_channel,
    tensor,
    trace_norm,
)
from swapframe.rand import rng_from_seed

rng = rng_from_seed(1)

print("=== Partial-trace identities for the swap ===")
for d in (2, 3):
    s = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, -1)  # |ij> -> |ji>
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lhs1 = partial_trace(s @ tensor(a, b), [d, d], 0)
    lhs2 = partial_trace(tensor(a, b) @ s, [d, d], 0)
    print(f"d={d}:  tr_2[SWAP (A⊗B)] - BA : {np.max(np.abs(lhs1 - b @ a)):.2e}")
    print(f"d={d}:  tr_2[(A⊗B) SWAP] - AB : {np.max(np.abs(lhs2 - a @ b)):.2e}")

print()
print("=== One collision vs the rotation it implements ===")
sigma = np.diag([1.0, 0.0]).astype(complex)   # frame particle state
rho = np.full((2, 2), 0.5, dtype=complex)     # system starts in |+><+|
alpha = 1.0

print(f"frame particle |0><0|, system |+><+|, coupling alpha = {alpha}")
print(f"{'N':>6}  {'trace error':>12}  {'analytic bound':>14}")
for n in (10, 30, 100, 300, 1000):
    out, _ = step_channel(rho, sigma, alpha, n)
    u = exp_neg_i(sigma, alpha / n)
    err = trace_norm(out - u @ rho @ dagger(u))
    bound, valid = single_step_bound(alpha, n)
    tag = "" if valid else "  (below validity threshold)"
    print(f"{n:>6}  {err:>12.3e}  {bound:>14.3e}{tag}")

print()
print("The error falls quadratically in 1/N and always sits under the bound.")
