"""Dense complex linear algebra for small multipartite quantum systems.

Operators are plain ``numpy.ndarray`` matrices (complex, square unless noted).
Multipartite spaces are described by a list of subsystem dimensions whose
product is the matrix dimension; factor 0 is the slowest (leftmost) index,
matching ``numpy.kron`` order.

All matrix functions of Hermitian or unitary operators go through explicit
eigendecompositions rather than series expansions, so results are exact to
solver precision. Each public function converts and checks its argument once,
at entry, and re-checks nothing built here; ``hermitize`` checks nothing.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Entrywise / operator-norm tolerance for validating Hermitian and unitary
# inputs; spectral round-trips are certified one order looser (1e-9).
HERMITIAN_ATOL = 1e-10
UNITARY_ATOL = 1e-10
BLOCK_ENTRIES = 2**16  # most entries per block of a stacked build (slot maps, draws): 1 MB


def _integer(n, what: str, low: int) -> int:
    """``n`` as an int, checked to be a Python or numpy integer (no bool) of at least ``low``."""
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, (int, np.integer))) or n < low:
        raise ValueError(f"{what} must be >= {low} and an integer, got {n!r}")
    return int(n)


def _finite_real(x, what: str, low: float | None = None):
    """``x`` as a float, or a float array for an array, checked real, finite and bool-free (one
    number by ``math.isfinite``, not numpy's reduction); with a ``low``, one number >= ``low``."""
    a = np.asarray(x)  # numpy reads [True, 0.5] as floats, so a list or tuple is read item by item
    if (a.dtype.kind not in "iuf" or not (np.isfinite(a).all() if a.ndim else math.isfinite(a))
            or isinstance(x, (list, tuple))
            and any(np.asarray(v).dtype == bool for v in np.asarray(x, dtype=object).flat)):
        raise ValueError(f"{what} must be finite and real, not a bool, got {x!r}")
    if low is not None and (a.ndim or float(a) < low):
        at_least = f" >= {low}" if low > -np.inf else ""
        raise ValueError(f"{what} must be one number{at_least}, got {x!r}")
    return float(a) if a.ndim == 0 else a.astype(float)


def _as_matrix(a, stack: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 and not (stack and a.ndim > 2):
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _as_square(a, stack: bool = False) -> np.ndarray:
    a = _as_matrix(a, stack)
    if a.shape[-1] != a.shape[-2] or not a.shape[-1]:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    return a


def dagger(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack (..., m, n)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def is_hermitian(a) -> bool:
    a = _as_square(a)
    return bool(np.abs(a - dagger(a)).max() <= HERMITIAN_ATOL)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A†)/2 of each library-built matrix; cleans fp drift, checks nothing."""
    return (a + dagger(a)) / 2


def check_unitary(u) -> np.ndarray:
    """Validate U·U† = 1 in operator norm; returns U as a complex ndarray."""
    u = _as_square(u)
    defect = float(np.max(_singular_values(u @ dagger(u) - np.eye(u.shape[0]))))
    if defect > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def _density_spectrum(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a finite square matrix, or of each matrix of such a stack
    (..., d, d), after the checks of ``check_density`` on every member; an error quotes the
    worst member. The caller converts and checks ``rho`` as ``_as_square`` does."""
    adjoint = dagger(rho)
    if np.abs(rho - adjoint).max() > HERMITIAN_ATOL:
        raise ValueError("density operator is not Hermitian")
    traces = rho.trace(0, -2, -1)
    off = np.abs(traces - 1.0)
    if off.max() > HERMITIAN_ATOL:
        raise ValueError(f"density operator has trace {traces.ravel()[off.argmax()]:.12g}, expected 1")
    w = np.linalg.eigvalsh((rho + adjoint) / 2)
    if w[..., 0].min() < -HERMITIAN_ATOL:
        raise ValueError(f"density operator has negative eigenvalue {w[..., 0].min():.3e}")
    return w


def check_density(rho) -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, eigenvalues >= -HERMITIAN_ATOL."""
    rho = _as_square(rho)
    _density_spectrum(rho)
    return rho


def tensor(a, *rest) -> np.ndarray:
    """Kronecker product of one or more factors, the first one's index slowest (one: a copy)."""
    return functools.reduce(np.kron, map(_as_matrix, rest), _as_matrix(a).copy())


def _reduce(op, dims, keep) -> np.ndarray:
    """Unchecked ``partial_trace`` of a stack onto sorted, distinct, in-range ``keep``:
    one einsum in which a traced factor shares its row and column label."""
    n, lead = len(dims), op.shape[:-2]
    cols = [n + i if i in keep else i for i in range(n)]
    d_keep = math.prod([dims[i] for i in keep])
    out = np.einsum(op.reshape(*lead, *dims, *dims), [..., *range(n), *cols],
                    [..., *keep, *(n + i for i in keep)])
    return out.reshape(*lead, d_keep, d_keep)


def _subsystem_dims(op, dims) -> tuple:
    """``op`` as a square matrix or stack, and ``dims`` as integers >= 1 of product its side."""
    op = _as_square(op, stack=True)
    dims = [_integer(d, "subsystem dim", 1) for d in dims]
    if (side := op.shape[-1]) != math.prod(dims):
        raise ValueError(f"subsystem dims {tuple(dims)} do not match matrix dimension {side}")
    return op, dims


def partial_trace(op, dims, keep) -> np.ndarray:
    """Trace out all subsystems except ``keep`` (an index or iterable of indices).

    ``dims`` lists the subsystem dimensions of ``op``; kept factors stay in
    their original relative order. Preserves the total trace. A stack of
    shape (..., D, D) is reduced matrix by matrix into (..., d_keep, d_keep).
    """
    op, dims = _subsystem_dims(op, dims)
    keep = sorted({_integer(k, "keep index", 0)
                   for k in (keep if np.iterable(keep) else [np.asarray(keep).item()])})
    if keep and keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")
    return _reduce(op, dims, keep)


def exp_neg_i(h, scale: float = 1.0) -> np.ndarray:
    """Unitary exp(-i * scale * H) for Hermitian H (checked at any scale), via eigh."""
    scale = _finite_real(scale, "scale", -np.inf)
    h = _as_square(h)
    adjoint = dagger(h)
    if np.abs(h - adjoint).max() > HERMITIAN_ATOL:
        raise ValueError("matrix is not Hermitian")
    if scale == 0:
        return np.eye(len(h), dtype=complex)
    w, v = np.linalg.eigh((h + adjoint) / 2)
    return (v * np.exp(-1j * scale * w)) @ dagger(v)


def _principal_generator(u: np.ndarray) -> np.ndarray:
    """Unchecked ``principal_generator`` of a unitary complex ndarray. ``eig`` returns unit vectors
    V that may be oblique within a (nearly) degenerate eigenspace. U is normal, so vectors of
    distinct eigenphases are orthogonal, and the QR factor Q of V mixes each column only with
    columns of the same eigenphase up to rounding: Q is an orthonormal eigenbasis. Q† rather than
    V⁻¹, because a cluster that the branch rule splits by 2·pi would have that jump amplified by
    cond(V)."""
    w, v = np.linalg.eig(u)
    theta = -np.angle(w)
    theta[theta <= -np.pi + 1e-12] += 2 * np.pi
    q = np.linalg.qr(v)[0]
    return hermitize((q * theta) @ dagger(q))


def principal_generator(u) -> np.ndarray:
    """Hermitian H with U = exp(-iH) and eigenvalues in (-pi, pi]. Eigenphases numerically at
    the branch cut (within 1e-12 of -pi) are mapped to +pi, so the interval is half-open at -pi."""
    return _principal_generator(check_unitary(u))


def _singular_values(op) -> np.ndarray:
    """Singular values of each matrix of a stack: |eigenvalues| when every one is Hermitian,
    else ``svd`` of every one."""
    adjoint = dagger(op)
    if (np.abs(op - adjoint).max(axis=(-2, -1)) <= HERMITIAN_ATOL).all():
        return np.abs(np.linalg.eigvalsh((op + adjoint) / 2))
    return np.linalg.svd(op, compute_uv=False)


def trace_norm(op):
    """Sum of singular values; sum of |eigenvalues| for Hermitian input.

    A stack of shape (..., d, d) gives an array of one norm per matrix: |eigenvalues| when
    every member is Hermitian, and singular values for every member otherwise.
    """
    op = _as_square(op, stack=True)
    norms = _singular_values(op).sum(axis=-1)
    return float(norms) if op.ndim == 2 else norms


def operator_norm(op) -> float:
    """Largest singular value; largest |eigenvalue| for Hermitian input."""
    return float(np.max(_singular_values(_as_square(op))))


def _entropy(rho: np.ndarray):
    """Entropy -tr(rho ln rho) in natural-log units, with 0·ln 0 := 0 and no warning, of each
    matrix of a finite square stack (..., d, d), checked by ``_density_spectrum``."""
    w = _density_spectrum(rho)
    w = np.where(w > 0, w, 1.0)  # 1·ln 1 = 0 stands in for each eigenvalue <= 0
    return -(w * np.log(w)).sum(axis=-1)


def von_neumann_entropy(rho) -> float:
    """Entropy -tr(rho ln rho) in natural-log units, with 0·ln 0 := 0."""
    return float(_entropy(_as_square(rho)))
