"""Extensive conserved quantities and conservation audits.

A charge is a single-subsystem Hermitian observable; its extensive total on a
joint space is the sum of one copy per subsystem. Charges are arbitrary
user-supplied Hermitians, deliberately not tied to any symmetry group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _as_square, _reduce, is_hermitian, operator_norm, tensor

# Dense joint spaces beyond this dimension are refused rather than attempted.
DEFAULT_DIMENSION_CAP = 4096


class CapacityError(ValueError):
    """Raised when a lifted operator would exceed the dense-dimension cap."""


@dataclass(frozen=True)
class ExtensiveObservable:
    """A single-subsystem Hermitian charge with a label for reports."""

    matrix: np.ndarray
    label: str = "A"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if not is_hermitian(m):  # which also refuses a non-square or non-finite matrix
            raise ValueError(f"charge {self.label!r} is not Hermitian")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _charge_matrix(charge) -> np.ndarray:
    if isinstance(charge, ExtensiveObservable):
        return charge.matrix
    return np.asarray(charge, dtype=complex)


def lift_extensive(charge, n: int) -> np.ndarray:
    """Dense extensive total of a charge over n identical subsystems.

    Meant for commutator checks; expectations of the total go through
    ``extensive_expectation`` instead, which never forms this matrix. Raises
    CapacityError beyond ``DEFAULT_DIMENSION_CAP``.
    """
    a = _charge_matrix(charge)
    if n < 1:
        raise ValueError("need at least one subsystem")
    d = a.shape[0]
    if d**n > DEFAULT_DIMENSION_CAP:
        raise CapacityError(f"joint dimension {d}^{n} exceeds cap {DEFAULT_DIMENSION_CAP}")
    total = np.zeros((d**n, d**n), dtype=complex)
    for slot in range(n):
        total += tensor(np.eye(d**slot), a, np.eye(d ** (n - slot - 1)))
    return total


def extensive_expectation(charges, op, dims, slots) -> np.ndarray:
    """Sum over ``slots`` of tr(A_k · Tr_{not s} op), one value per charge A_k.

    Equals tr(A_total · op) for each charge summed over those slots of a joint
    space with subsystem ``dims``. Each slot is reduced once and contracted
    with the whole charge stack, so the cost does not grow with the count.
    """
    mats = np.array([_charge_matrix(c) for c in charges], dtype=complex)
    op = _as_square(op)
    if op.shape[0] != math.prod(dims):
        raise ValueError(f"subsystem dims {tuple(dims)} do not match matrix dimension {op.shape[0]}")
    d = mats.shape[-1]
    for slot in slots:
        if not 0 <= slot < len(dims) or dims[slot] != d:
            raise ValueError(
                f"charge of dimension {d} does not fit slot {slot} of dims {tuple(dims)}"
            )
    reduced = np.array([_reduce(op, dims, (slot,)) for slot in slots])
    return np.einsum("kij,sji->k", mats, reduced.reshape(-1, d, d))


def uniform_dims(total: int, d: int) -> list[int]:
    """Subsystem dims ``[d] * n`` of a joint space of dimension ``total == d**n``.

    Raises ValueError when ``total`` is not a power of ``d``.
    """
    n = max(1, round(math.log(total) / math.log(d))) if d > 1 else 1
    if d**n != total:
        raise ValueError(f"joint dimension {total} is not {d}^{n}")
    return [d] * n


def commutator_norm(v, a_tot) -> float:
    """Operator norm of [V, A_total]; zero means exact conservation."""
    v = np.asarray(v, dtype=complex)
    a_tot = np.asarray(a_tot, dtype=complex)
    if v.shape != a_tot.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {a_tot.shape}")
    return operator_norm(v @ a_tot - a_tot @ v)


def audit_evolution(before, after, charge: ExtensiveObservable) -> float:
    """Change of the extensive total of a charge across a joint evolution.

    The number of subsystems is inferred from the matrix dimension.
    Charge-conserving evolutions give deltas at fp-noise level.
    """
    before = np.asarray(before, dtype=complex)
    after = np.asarray(after, dtype=complex)
    if before.shape != after.shape:
        raise ValueError(f"dimension mismatch: {before.shape} vs {after.shape}")
    dims = uniform_dims(before.shape[0], charge.dim)
    return float(extensive_expectation((charge,), after - before, dims, range(len(dims)))[0].real)
