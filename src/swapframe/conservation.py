"""Extensive conserved quantities and their changes.

A charge is a single-subsystem Hermitian observable; its extensive total on a
joint space is the sum of one copy per subsystem. Charges are arbitrary
user-supplied Hermitians, deliberately not tied to any symmetry group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _as_square, _reduce, is_hermitian


@dataclass(frozen=True, eq=False)
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


def _charge_set(charges, d: int) -> tuple:
    """``charges`` as a tuple, checked to act on dimension ``d`` and to carry distinct labels."""
    charges = tuple(charges)
    for charge in charges:
        if charge.dim != d:
            raise ValueError(f"charge {charge.label!r} has dimension {charge.dim}, expected {d}")
    labels = [c.label for c in charges]
    if len(set(labels)) != len(labels):
        raise ValueError(f"charge labels are not distinct: {labels}")
    return charges


def _charge_matrix(charge) -> np.ndarray:
    if isinstance(charge, ExtensiveObservable):
        return charge.matrix
    return np.asarray(charge, dtype=complex)


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


def _charge_change(charges, before, after, dims, slots) -> np.ndarray:
    """Real change of each charge's total over ``slots`` from ``before`` to ``after``.

    Checks that the states share a shape; ``extensive_expectation`` checks the rest.
    """
    before = np.asarray(before, dtype=complex)
    after = np.asarray(after, dtype=complex)
    if before.shape != after.shape:
        raise ValueError(f"dimension mismatch: {before.shape} vs {after.shape}")
    return extensive_expectation(charges, after - before, dims, slots).real


def uniform_dims(total: int, d: int) -> list[int]:
    """Subsystem dims ``[d] * n`` of a joint space of dimension ``total == d**n``.

    Raises ValueError when ``total`` is not a power of ``d``.
    """
    n = max(1, round(math.log(total) / math.log(d))) if d > 1 else 1
    if d**n != total:
        raise ValueError(f"joint dimension {total} is not {d}^{n}")
    return [d] * n

