"""Dense joint-space references for the tests, in numpy alone.

Nothing here imports ``swapframe``. The SWAP gate, the partial-swap collision
unitary, the extensive total of a charge and the commutator norm are built the
slow, obvious way on the joint space, so a test that compares the library
against them does not check the library against itself.
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
