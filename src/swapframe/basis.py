"""Operator bases made of density operators.

A dimension-d system needs D = d^2 - 1 states which, together with the
identity, span the Hermitian operators. Every traceless Hermitian generator
can then be written as a real combination of the basis states (plus an
identity component that only contributes a global phase), and the combination
coefficients are read off with a dual basis obtained by Gram-matrix inversion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import hermitize, is_hermitian, operator_norm, check_density

GRAM_CONDITION_LIMIT = 1e12


class DegenerateBasisError(ValueError):
    """Raised when candidate basis elements are not linearly independent."""


def _gell_mann_generators(d: int) -> list[np.ndarray]:
    """The d^2 - 1 generalized Gell-Mann matrices.

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
    return gens


@dataclass(frozen=True)
class OperatorBasis:
    """D density operators spanning, with the identity, all Hermitian operators.

    ``duals`` has D+1 entries: slot 0 pairs with the identity, slot k >= 1 with
    ``states[k-1]``, under tr(e_k dual_l) = delta_kl.
    """

    dim: int
    states: tuple
    duals: tuple

    @property
    def size(self) -> int:
        return len(self.states)

    @cached_property
    def alpha_max(self) -> float:
        """Upper bound sqrt(D)·pi·max_k ||dual_k||_HS on any |alpha_k|.

        Holds for every generator with spectrum inside (-pi, pi], by
        Cauchy-Schwarz on the Hilbert-Schmidt inner product.
        """
        hs_max = max(np.linalg.norm(t, "fro") for t in self.duals[1:])
        return float(np.sqrt(self.size) * np.pi * hs_max)

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "dimension": self.dim,
            "states": [_matrix_to_pairs(s) for s in self.states],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "OperatorBasis":
        doc = json.loads(text)
        d = int(doc["dimension"])
        states = [_matrix_from_pairs(m, d) for m in doc["states"]]
        return basis_from_states(d, states)


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _matrix_from_pairs(pairs, d: int) -> np.ndarray:
    m = np.array([[complex(re, im) for re, im in row] for row in pairs])
    if m.shape != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match dimension {d}")
    return m


def _dual_basis(elements) -> list[np.ndarray]:
    """Hermitian duals of ``elements`` under the Hilbert-Schmidt inner product.

    Inverts the Gram matrix G_kl = tr(e_k e_l); raises DegenerateBasisError if
    it is singular or has condition number beyond 1e12.
    """
    elems = [np.asarray(e, dtype=complex) for e in elements]
    n = len(elems)
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = np.trace(elems[i] @ elems[j]).real
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
        raise DegenerateBasisError(
            f"basis elements are (numerically) linearly dependent: Gram condition {cond:.3e}"
        )
    ginv = np.linalg.inv(gram)
    return [hermitize(sum(ginv[l, m] * elems[m] for m in range(n))) for l in range(n)]


def basis_from_states(d: int, states) -> OperatorBasis:
    """Assemble an OperatorBasis from d^2 - 1 density operators."""
    states = [check_density(s) for s in states]
    if len(states) != d * d - 1:
        raise ValueError(f"need {d * d - 1} states for dimension {d}, got {len(states)}")
    duals = _dual_basis([np.eye(d, dtype=complex)] + list(states))
    return OperatorBasis(dim=d, states=tuple(states), duals=tuple(duals))


def build_state_basis(d: int) -> OperatorBasis:
    """Default basis: sigma_k = (1 + r g_k)/d with Gell-Mann generators g_k.

    r is the largest scale keeping every sigma_k positive semidefinite. Since
    the smallest eigenvalue of (1 + r g)/d is linear in r, the critical scale
    is exactly 1/max_k |min-eig(g_k)|. For d=2 this lands on the pure states
    (1 + P)/2 with P the Pauli matrices.
    """
    gens = _gell_mann_generators(d)
    floors = [abs(float(np.linalg.eigvalsh(g)[0])) for g in gens]
    r = 1.0 / max(floors)
    eye = np.eye(d, dtype=complex)
    states = [hermitize((eye + r * g) / d) for g in gens]
    return basis_from_states(d, states)


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
        return max(abs(a) for a in self.alphas) if self.alphas else 0.0


def decompose_generator(h, basis: OperatorBasis) -> GeneratorDecomposition:
    """Write H = c0·1 + sum_k alpha_k sigma_k by tracing against the duals."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("generator must be Hermitian")
    c0 = float(np.trace(h @ basis.duals[0]).real)
    alphas = tuple(float(np.trace(h @ t).real) for t in basis.duals[1:])
    recon = c0 * np.eye(basis.dim) + sum(a * s for a, s in zip(alphas, basis.states))
    residual = operator_norm(h - recon)
    return GeneratorDecomposition(alphas=alphas, identity_coefficient=c0, residual=residual)

