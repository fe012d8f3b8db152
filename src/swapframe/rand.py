"""Seeded random operators and states.

Unitaries are drawn Haar-like by QR-decomposing a complex Gaussian matrix and absorbing
the phases of R's diagonal; a stack of them takes one stacked QR of the stream that as many
single draws read. States come from normalized Gaussian purifications. Everything takes
a ``numpy.random.Generator`` so identical seeds reproduce bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger, hermitize


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def gaussian_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _haar_unitaries(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``(count, d, d)`` Haar unitaries: per draw a real, then an imaginary Gaussian block."""
    g = rng.standard_normal((count, 2, d, d))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[:, None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    return _haar_unitaries(d, 1, rng)[0]


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    return hermitize(gaussian_matrix(d, rng))


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = gaussian_matrix(d, rng)
    rho = g @ dagger(g)
    return rho / np.trace(rho).real
