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

from .linalg import (_as_square, _density_spectrum, _integer, hermitize, is_hermitian,
                     operator_norm)

GRAM_CONDITION_LIMIT = 1e12


class DegenerateBasisError(ValueError):
    """Raised when candidate basis elements are not linearly independent."""


def _gell_mann_generators(d: int) -> np.ndarray:
    """The d^2 - 1 generalized Gell-Mann matrices, as one (d^2 - 1, d, d) stack.

    Traceless, Hermitian, mutually orthogonal with tr(g_a g_b) = 2 delta_ab.
    Ordering: symmetric off-diagonal pairs, antisymmetric pairs, then diagonal.
    """
    d = _integer(d, "dimension", 2)
    j, k = np.triu_indices(d, 1)
    m, pair = len(j), np.arange(len(j))
    gens = np.zeros((d * d - 1, d, d), dtype=complex)
    gens[pair, j, k] = gens[pair, k, j] = 1.0
    gens[pair + m, j, k], gens[pair + m, k, j] = -1j, 1j
    l, i = np.arange(1, d)[:, None], np.arange(d)  # diagonal l: (1, ..., 1, -l, 0, ...) scaled
    gens[2 * m:, i, i] = np.sqrt(2.0 / (l * (l + 1))) * np.where(i < l, 1.0, -l * (i == l))
    return gens


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """D = d^2 - 1 density operators spanning, with the identity, all Hermitian operators.

    ``states`` is one read-only (D, d, d) stack of checked density operators;
    ``dim`` and ``size`` are read off its shape, and ``duals``, a read-only
    (D+1, d, d) stack, is built from it once: slot 0 pairs with the identity,
    slot k >= 1 with ``states[k-1]``, under tr(e_k dual_l) = delta_kl.
    """

    states: np.ndarray
    duals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        states = _as_square(np.array(self.states, dtype=complex), stack=True)
        d = states.shape[-1]
        if d < 2 or states.shape != (d * d - 1, d, d):  # so no empty stack reaches the spectrum
            raise ValueError(
                f"need d^2 - 1 states of shape (d, d), d >= 2, got a stack of shape {states.shape}"
            )
        _density_spectrum(states)
        duals = _dual_basis([np.eye(d), *states])
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
        d = _integer(doc["dimension"], "basis dimension", 1)
        schema = doc.get("schema", 1)
        if type(schema) is not int or schema != 1:
            raise ValueError(f"basis schema must be 1, got {schema!r}")
        basis = cls([_matrix_from_pairs(m) for m in doc["states"]])
        if basis.dim != d:
            raise ValueError(f"states have dimension {basis.dim}, 'dimension' says {d}")
        return basis


def _matrix_from_pairs(pairs) -> np.ndarray:
    """Complex matrix from row-major [re, im] pairs, none a string or bool; checks no shape."""
    if any(type(x) is bool for row in pairs for pair in row for x in pair):
        raise TypeError("a matrix entry is true or false, not a number")
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


def build_state_basis(d: int) -> OperatorBasis:
    """Default basis: sigma_k = (1 + r g_k)/d with Gell-Mann generators g_k.

    r is the largest scale keeping every sigma_k positive semidefinite. Since
    the smallest eigenvalue of (1 + r g)/d is linear in r, the critical scale
    is exactly 1/max_k |min-eig(g_k)|. For d=2 this lands on the pure states
    (1 + P)/2 with P the Pauli matrices.
    """
    gens = _gell_mann_generators(d)
    r = 1.0 / np.abs(np.linalg.eigvalsh(gens)[:, 0]).max()
    return OperatorBasis(hermitize((np.eye(d, dtype=complex) + r * gens) / d))


@dataclass(frozen=True)
class GeneratorDecomposition:
    """Coefficients of a Hermitian generator over an OperatorBasis.

    ``identity_coefficient`` is the (discarded) global-phase component;
    ``residual`` is the operator-norm reconstruction error, which only the public
    ``decompose_generator`` computes: a protocol run reads the coefficients alone.
    """

    alphas: tuple
    identity_coefficient: float
    residual: float

    @property
    def max_alpha(self) -> float:
        return float(np.max(np.abs(self.alphas), initial=0.0))


def _coefficients(h: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Unchecked (c0, alpha_1, ..., alpha_D) of a Hermitian (d, d) complex ndarray over ``basis``."""
    return np.einsum("ij,kji->k", h, basis.duals).real


def decompose_generator(h, basis: OperatorBasis) -> GeneratorDecomposition:
    """Write H = c0·1 + sum_k alpha_k sigma_k by tracing against the duals."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("generator must be Hermitian")
    if h.shape != (basis.dim, basis.dim):
        raise ValueError(f"generator has dimension {h.shape[0]}, basis has dimension {basis.dim}")
    c0, *alphas = _coefficients(h, basis).tolist()
    recon = c0 * np.eye(basis.dim) + np.tensordot(alphas, basis.states, 1)
    residual = operator_norm(h - recon)
    return GeneratorDecomposition(alphas=tuple(alphas), identity_coefficient=c0, residual=residual)
