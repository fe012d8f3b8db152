"""Extensive conserved quantities and their changes.

A charge is a single-subsystem Hermitian observable; its extensive total on a
joint space is the sum of one copy per subsystem. Charges are arbitrary
user-supplied Hermitians, deliberately not tied to any symmetry group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _as_square, _integer, _singular_values, _subsystem_dims, is_hermitian


@dataclass(frozen=True, eq=False)
class ExtensiveObservable:
    """A single-subsystem Hermitian charge with a report label; taken once, here: ``matrix``, a
    checked read-only copy of the caller's, and ``norm``, ‖A‖, the unit of every exit-1 rule."""

    matrix: np.ndarray
    label: str = "A"
    norm: float = field(init=False, repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if not is_hermitian(m):  # which also refuses a non-square or non-finite matrix
            raise ValueError(f"charge {self.label!r} is not Hermitian")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "norm", float(np.max(_singular_values(m))))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _charge_set(charges, d: int | None = None) -> tuple:
    """``charges`` as a tuple, checked to carry distinct labels and to act on dimension ``d``,
    by default the first charge's, when there must be one."""
    charges = tuple(charges)
    if d is None and not charges:
        raise ValueError("need at least one charge")
    d = charges[0].dim if d is None else d
    for charge in charges:
        if charge.dim != d:
            raise ValueError(f"charge {charge.label!r} has dimension {charge.dim}, expected {d}")
    labels = [c.label for c in charges]
    if len(set(labels)) != len(labels):
        raise ValueError(f"charge labels are not distinct: {labels}")
    return charges


def _slot_values(charges, op, dims, slots) -> np.ndarray:
    """``(..., K, S)`` array of tr(A_k · Tr_{not s} op), one row per charge A_k and one column per
    slot s, for each matrix of a stack ``op`` (..., D, D); one matrix is a stack of no axes.

    One gather of ``op``, indexed by ``dims`` and ``slots`` alone, gives every marginal, so the
    numpy call count grows with neither; a slot that is the whole space takes ``op`` itself.
    Every check of the charge-change path is made here, once: ``op`` square and finite, each
    dim and slot an integer, ``dims`` against ``op``, and each slot's dimension.
    """
    mats = np.array([getattr(c, "matrix", c) for c in charges], dtype=complex)
    op, dims = _subsystem_dims(op, dims)
    total, d, lead = op.shape[-1], mats.shape[-1], op.shape[:-2]
    slots = [_integer(s, "slot", 0) for s in slots]
    for slot in slots:
        if slot >= len(dims) or dims[slot] != d:
            raise ValueError(
                f"charge of dimension {d} does not fit slot {slot} of dims {tuple(dims)}"
            )
    if total == d:  # the slot is the whole space: its marginal is op itself, with no index
        marginals = op.swapaxes(-1, -2).reshape(*lead, 1, d * d).repeat(len(slots), axis=-2)
    else:
        # rows[s, i] lists, ascending, the joint indices whose slot-s digit is i: with the
        # slot's stride t, the m-th is m + (m // t)·(d - 1)·t + i·t
        t = np.array([total // math.prod(dims[:s + 1]) for s in slots], dtype=int)[:, None, None]
        m = np.arange(total // d)
        rows = m + t * (m // t * (d - 1) + np.arange(d)[:, None])
        # entry (i, j) of slot s sums op[rows[s, j, m], rows[s, i, m]] over m: the transpose
        marginals = op[..., rows[:, None], rows[:, :, None]].sum(-1).reshape(*lead, -1, d * d)
    return mats.reshape(len(mats), d * d) @ marginals.swapaxes(-1, -2)


def _charge_change(charges, before, afters, dims, slots) -> np.ndarray:
    """Real ``(n, K, S)`` change of each charge on each of ``slots`` from the one matrix ``before``
    to each state of the stack ``afters`` (n, *before.shape); ``_slot_values`` checks the rest."""
    before, afters = np.asarray(before, dtype=complex), np.asarray(afters, dtype=complex)
    if before.shape != afters.shape[1:] or before.ndim != 2:
        _as_square(before)  # a stack or a non-matrix raises here, as one state's change would
        raise ValueError(f"dimension mismatch: {before.shape} vs {afters.shape[1:]}")
    op = afters - before[None]  # same shapes at n = 1: numpy's fast path
    return _slot_values(charges, op, dims, slots).real


def _uniform_dims(state, d: int) -> list[int]:
    """Dims ``[d] * n`` of a square matrix ``state`` of side d**n; any other shape raises first."""
    if np.ndim(state) != 2 or np.shape(state)[0] != np.shape(state)[1]:
        _as_square(state)  # raises
    total = len(state)
    n = max(1, round(math.log(total) / math.log(d))) if d > 1 and total > 0 else 1
    if d**n != total:
        raise ValueError(f"joint dimension {total} is not {d}^{n}")
    return [d] * n

