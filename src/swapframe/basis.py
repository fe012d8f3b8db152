"""Operator bases made of density operators.

A dimension-d system needs D = d^2 - 1 states which, together with the
identity, span the Hermitian operators. Every traceless Hermitian generator
can then be written as a real combination of the basis states (plus an
identity component that only contributes a global phase), and the combination
coefficients are read off with a dual basis obtained by Gram-matrix inversion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import hermitize, is_hermitian, operator_norm, check_density

GRAM_CONDITION_LIMIT = 1e12


class DegenerateBasisError(ValueError):
    """Raised when candidate basis elements are not linearly independent."""


def _gell_mann_generators(d: int) -> np.ndarray:
    """The d^2 - 1 generalized Gell-Mann matrices, as one (d^2 - 1, d, d) stack.

    Traceless, Hermitian, mutually orthogonal with tr(g_a g_b) = 2 delta_ab.
    Ordering: symmetric off-diagonal pairs, antisymmetric pairs, then diagonal.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    gens = []
    for j in range(d):
        for k in range(j + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[j, k] = g[k, j] = 1.0
            gens.append(g)
    for j in range(d):
        for k in range(j + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[j, k] = -1j
            g[k, j] = 1j
            gens.append(g)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        gens.append(np.sqrt(2.0 / (l * (l + 1))) * np.diag(diag).astype(complex))
    return np.array(gens)


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """D density operators spanning, with the identity, all Hermitian operators.

    ``states`` is one read-only (D, d, d) stack; ``dim`` and ``size`` are read
    off its shape, and ``duals``, a read-only (D+1, d, d) stack, is built from
    it once: slot 0 pairs with the identity, slot k >= 1 with ``states[k-1]``,
    under tr(e_k dual_l) = delta_kl.
    """

    states: np.ndarray
    duals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        states = np.array(self.states, dtype=complex)
        duals = _dual_basis([np.eye(states.shape[-1]), *states])
        states.flags.writeable = duals.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "duals", duals)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    @property
    def size(self) -> int:
        return len(self.states)

    @cached_property
    def alpha_max(self) -> float:
        """Upper bound sqrt(D)·pi·max_k ||dual_k||_HS on any |alpha_k|.

        Holds for every generator with spectrum inside (-pi, pi], by
        Cauchy-Schwarz on the Hilbert-Schmidt inner product.
        """
        hs_max = np.linalg.norm(self.duals[1:], axis=(-2, -1)).max()
        return float(np.sqrt(self.size) * np.pi * hs_max)

    def to_json(self) -> str:
        pairs = np.stack([self.states.real, self.states.imag], -1).tolist()
        return json.dumps({"schema": 1, "dimension": self.dim, "states": pairs}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "OperatorBasis":
        doc = json.loads(text)
        d = int(doc["dimension"])
        return basis_from_states(d, [_matrix_from_pairs(m) for m in doc["states"]])


def _matrix_from_pairs(pairs) -> np.ndarray:
    """Complex matrix from row-major [re, im] pairs; checks no shape, and no string is a number."""
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def _dual_basis(elements) -> np.ndarray:
    """Hermitian duals of ``elements`` under the Hilbert-Schmidt inner product.

    Inverts the Gram matrix G_kl = tr(e_k e_l); raises DegenerateBasisError if
    it is singular or has condition number beyond 1e12.
    """
    elems = np.asarray(elements, dtype=complex)
    gram = np.einsum("kij,lji->kl", elems, elems).real
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
        raise DegenerateBasisError(
            f"basis elements are (numerically) linearly dependent: Gram condition {cond:.3e}"
        )
    return hermitize(np.einsum("lm,mij->lij", np.linalg.inv(gram), elems))


def basis_from_states(d: int, states) -> OperatorBasis:
    """Assemble an OperatorBasis from d^2 - 1 density operators of shape (d, d)."""
    states = [check_density(s) for s in states]
    if len(states) != d * d - 1:
        raise ValueError(f"need {d * d - 1} states for dimension {d}, got {len(states)}")
    if any(s.shape != (d, d) for s in states):
        raise ValueError(f"states must have shape ({d}, {d}) for dimension {d}")
    return OperatorBasis(states)


def build_state_basis(d: int) -> OperatorBasis:
    """Default basis: sigma_k = (1 + r g_k)/d with Gell-Mann generators g_k.

    r is the largest scale keeping every sigma_k positive semidefinite. Since
    the smallest eigenvalue of (1 + r g)/d is linear in r, the critical scale
    is exactly 1/max_k |min-eig(g_k)|. For d=2 this lands on the pure states
    (1 + P)/2 with P the Pauli matrices.
    """
    gens = _gell_mann_generators(d)
    r = 1.0 / np.abs(np.linalg.eigvalsh(gens)[:, 0]).max()
    return basis_from_states(d, hermitize((np.eye(d, dtype=complex) + r * gens) / d))


@dataclass(frozen=True)
class GeneratorDecomposition:
    """Coefficients of a Hermitian generator over an OperatorBasis.

    ``identity_coefficient`` is the (discarded) global-phase component;
    ``residual`` is the operator-norm reconstruction error.
    """

    alphas: tuple
    identity_coefficient: float
    residual: float

    @property
    def max_alpha(self) -> float:
        return float(np.max(np.abs(self.alphas), initial=0.0))


def decompose_generator(h, basis: OperatorBasis) -> GeneratorDecomposition:
    """Write H = c0·1 + sum_k alpha_k sigma_k by tracing against the duals."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("generator must be Hermitian")
    c0, *alphas = np.einsum("ij,kji->k", h, basis.duals).real.tolist()
    recon = c0 * np.eye(basis.dim) + np.tensordot(alphas, basis.states, 1)
    residual = operator_norm(h - recon)
    return GeneratorDecomposition(alphas=tuple(alphas), identity_coefficient=c0, residual=residual)

