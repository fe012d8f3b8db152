"""Extensive conserved quantities and conservation audits.

A charge is a single-subsystem Hermitian observable; its extensive total on a
joint space is the sum of one copy per subsystem. Charges are arbitrary
user-supplied Hermitians, deliberately not tied to any symmetry group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import is_hermitian, operator_norm, partial_trace, tensor

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
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("charge must be a square matrix")
        if not is_hermitian(m):
            raise ValueError(f"charge {self.label!r} is not Hermitian")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _charge_matrix(charge) -> np.ndarray:
    if isinstance(charge, ExtensiveObservable):
        return charge.matrix
    return np.asarray(charge, dtype=complex)


def lift_extensive(charge, n: int, cap: int = DEFAULT_DIMENSION_CAP) -> np.ndarray:
    """Dense extensive total of a charge over n identical subsystems.

    Meant for commutator checks; expectations of the total go through
    ``extensive_expectation`` instead, which never forms this matrix.
    """
    a = _charge_matrix(charge)
    if n < 1:
        raise ValueError("need at least one subsystem")
    d = a.shape[0]
    if d**n > cap:
        raise CapacityError(f"joint dimension {d}^{n} exceeds cap {cap}")
    total = np.zeros((d**n, d**n), dtype=complex)
    for slot in range(n):
        total += tensor(np.eye(d**slot), a, np.eye(d ** (n - slot - 1)))
    return total


def extensive_expectation(charge, op, dims, slots) -> complex:
    """Sum over ``slots`` of tr(A · Tr_{not s} op), one charge copy per slot.

    Equals tr(A_total · op) for the charge summed over those slots of a joint
    space with subsystem ``dims``, computed from single-slot reduced operators.
    """
    a = _charge_matrix(charge)
    total = 0j
    for slot in slots:
        if dims[slot] != a.shape[0]:
            raise ValueError(
                f"charge of dimension {a.shape[0]} does not fit slot {slot} of dims {tuple(dims)}"
            )
        total += np.trace(a @ partial_trace(op, dims, slot))
    return complex(total)


def uniform_dims(total: int, d: int, n: int | None = None) -> list[int]:
    """Subsystem dims ``[d] * n`` of a joint space of dimension ``total``.

    ``n`` is inferred when omitted; raises ValueError unless total == d**n.
    """
    if n is None:
        n = max(1, int(round(np.log(total) / np.log(d)))) if d > 1 else 1
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


def audit_evolution(before, after, charge: ExtensiveObservable, n: int | None = None) -> float:
    """Change of the extensive total of a charge across a joint evolution.

    ``n`` is the number of subsystems; inferred from the matrix dimension when
    omitted. Charge-conserving evolutions give deltas at fp-noise level.
    """
    before = np.asarray(before, dtype=complex)
    after = np.asarray(after, dtype=complex)
    if before.shape != after.shape:
        raise ValueError(f"dimension mismatch: {before.shape} vs {after.shape}")
    dims = uniform_dims(before.shape[0], charge.dim, n)
    return extensive_expectation(charge, after - before, dims, range(len(dims))).real
