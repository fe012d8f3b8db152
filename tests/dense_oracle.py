"""Dense joint-space references for the tests, in numpy alone.

Nothing here imports ``swapframe``. The SWAP gate, the partial-swap collision
unitary, the extensive total of a charge and the commutator norm are built the
slow, obvious way on the joint space, so a test that compares the library
against them does not check the library against itself. ``rounds_ld`` runs a
whole protocol from the closed-form slot maps in ``np.clongdouble``, one round
at a time, as a reference for the library's float64 rounding.
"""

import math

import numpy as np


def swap(d: int) -> np.ndarray:
    """Exchange |i j> -> |j i> of two d-dimensional factors, by permuting identity indices."""
    return np.eye(d * d, dtype=complex).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, -1)


def partial_swap(alpha: float, n: int, d: int) -> np.ndarray:
    """Collision unitary exp(-i(alpha/n)·SWAP) = cos·1 - i·sin·SWAP, exact since SWAP² = 1."""
    a = alpha / n
    return np.cos(a) * np.eye(d * d, dtype=complex) - 1j * np.sin(a) * swap(d)


def lift(a, n, slots=None) -> np.ndarray:
    """Extensive total of a charge, the sum of 1⊗…⊗a⊗…⊗1 over ``slots`` (default: every slot).

    ``n`` is a subsystem count, each of a's dimension, or a list of subsystem dimensions.
    """
    a = np.asarray(a, dtype=complex)
    dims = [a.shape[0]] * n if isinstance(n, int) else list(n)
    return sum(np.kron(np.kron(np.eye(math.prod(dims[:k])), a), np.eye(math.prod(dims[k + 1:])))
               for k in (range(len(dims)) if slots is None else slots))


def commutator_norm(v, a) -> float:
    """Largest singular value of [V, A]; zero means V conserves A exactly."""
    return float(np.linalg.norm(v @ a - a @ v, 2))


def slot_maps_ld(states, alphas, n: int) -> np.ndarray:
    """Each slot's closed-form maps on row-major vec(rho), in ``np.clongdouble``, (2, D, d², d²).

    With c, s = cos, sin of alpha_k/n taken in long double and K_k = i·c·s·(sigma_k⊗1 -
    1⊗sigma_kᵀ): [0] the system's S_k = c²·1 + s²·|sigma_k⟩⟨1| - K_k, and [1] the particle's
    F_k - |sigma_k⟩⟨1| = c²·|sigma_k⟩⟨1| + s²·1 + K_k - |sigma_k⟩⟨1|, whose image of a unit-trace
    state is the particle's change. Each is built densely from Kronecker products.
    """
    states = np.asarray(states).astype(np.clongdouble)
    d = states.shape[-1]
    one, eye = np.eye(d * d, dtype=np.clongdouble), np.eye(d, dtype=np.clongdouble)
    maps = []
    for sigma, alpha in zip(states, np.asarray(alphas, dtype=np.longdouble)):
        c, s = np.cos(alpha / n), np.sin(alpha / n)
        k = 1j * c * s * (np.kron(sigma, eye) - np.kron(eye, sigma.T))
        proj = np.outer(sigma.reshape(-1), eye.reshape(-1))
        maps.append((c * c * one + s * s * proj - k, c * c * proj + s * s * one + k - proj))
    return np.array(maps).swapaxes(0, 1)


def rounds_ld(states, alphas, n: int, rho, charges):
    """Final state and (2, n, D, K) ledger of n collision rounds, in ``np.clongdouble``.

    The round map M is the chain S_D···S_1 of ``slot_maps_ld``, applied n times directly, one
    round after another. Slot k's ledger functionals are vec(A_jᵀ)·(S_k - 1)·S_{k-1}···S_1 on the
    system and vec(A_jᵀ)·(F_k - |sigma_k⟩⟨1|)·S_{k-1}···S_1 on the particle, so a round's ledger
    row is those functionals at the state that starts it. Returns the real parts.
    """
    system, frame = slot_maps_ld(states, alphas, n)
    d, d2 = np.shape(states)[-1], system.shape[-1]
    rows = np.array([np.asarray(a).T.reshape(-1) for a in charges]).astype(np.clongdouble)
    chain, functionals = np.eye(d2, dtype=np.clongdouble), []
    for s_k, f_k in zip(system, frame):
        functionals.append([rows @ (s_k - np.eye(d2)) @ chain, rows @ f_k @ chain])
        chain = s_k @ chain
    starts = np.empty((n, d2), dtype=np.clongdouble)
    vec = np.asarray(rho).reshape(-1).astype(np.clongdouble)
    for t in range(n):
        starts[t] = vec
        vec = chain @ vec
    functionals = np.array(functionals)  # (D, 2, K, d²)
    ledger = (starts @ functionals.reshape(-1, d2).T).real  # (n, D·2·K)
    return vec.reshape(d, d), ledger.reshape(n, *functionals.shape[:3]).transpose(2, 0, 1, 3)
