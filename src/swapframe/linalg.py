"""Dense complex linear algebra for small multipartite quantum systems.

Operators are plain ``numpy.ndarray`` matrices (complex, square unless noted).
Multipartite spaces are described by a list of subsystem dimensions whose
product is the matrix dimension; factor 0 is the slowest (leftmost) index,
matching ``numpy.kron`` order.

All matrix functions of Hermitian or unitary operators go through explicit
eigendecompositions rather than series expansions, so results are exact to
solver precision.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Entrywise / operator-norm tolerance for validating Hermitian and unitary
# inputs; spectral round-trips are certified one order looser (1e-9).
HERMITIAN_ATOL = 1e-10
UNITARY_ATOL = 1e-10


def _as_matrix(a, stack: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 and not (stack and a.ndim > 2):
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def _as_square(a, stack: bool = False) -> np.ndarray:
    a = _as_matrix(a, stack)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def is_hermitian(a, atol: float = HERMITIAN_ATOL) -> bool:
    a = _as_square(a)
    return bool(np.max(np.abs(a - dagger(a))) <= atol)


def hermitize(a) -> np.ndarray:
    """Hermitian part (A + A†)/2; used to clean fp drift on known-Hermitian results."""
    a = _as_square(a)
    return (a + dagger(a)) / 2


def check_unitary(u, atol: float = UNITARY_ATOL) -> np.ndarray:
    """Validate U·U† = 1 in operator norm; returns U as a complex ndarray."""
    u = _as_square(u)
    defect = operator_norm(u @ dagger(u) - np.eye(u.shape[0]))
    if defect > atol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def check_density(rho, dims=None, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, eigenvalues >= -atol.

    If ``dims`` is given, also checks that the subsystem dimensions multiply to
    the matrix dimension.
    """
    rho = _as_square(rho)
    if dims is not None and int(np.prod(dims)) != rho.shape[0]:
        raise ValueError(
            f"subsystem dims {tuple(dims)} do not match matrix dimension {rho.shape[0]}"
        )
    if not is_hermitian(rho, atol):
        raise ValueError("density operator is not Hermitian")
    tr = np.trace(rho)
    if abs(tr - 1.0) > atol:
        raise ValueError(f"density operator has trace {tr:.12g}, expected 1")
    lo = float(np.linalg.eigvalsh(hermitize(rho))[0])
    if lo < -atol:
        raise ValueError(f"density operator has negative eigenvalue {lo:.3e}")
    return rho


def tensor(a, b, *rest) -> np.ndarray:
    """Kronecker product with the first factor's index slowest."""
    out = np.kron(_as_matrix(a), _as_matrix(b))
    for m in rest:
        out = np.kron(out, _as_matrix(m))
    return out


def partial_trace(op, dims, keep) -> np.ndarray:
    """Trace out all subsystems except ``keep`` (an index or iterable of indices).

    ``dims`` lists the subsystem dimensions of ``op``; kept factors stay in
    their original relative order. Preserves the total trace.
    """
    op = _as_square(op)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if op.shape[0] != total:
        raise ValueError(
            f"subsystem dims {tuple(dims)} do not match matrix dimension {op.shape[0]}"
        )
    if np.isscalar(keep):
        keep = [int(keep)]
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    work = op.reshape(dims + dims)
    cur = list(dims)
    for ax in sorted((i for i in range(len(dims)) if i not in keep), reverse=True):
        work = np.trace(work, axis1=ax, axis2=ax + len(cur))
        cur.pop(ax)
    d_keep = int(np.prod(cur)) if cur else 1
    return work.reshape(d_keep, d_keep)


def swap_operator(d: int) -> np.ndarray:
    """Exchange unitary on two d-dimensional factors: |i j> -> |j i|.

    Hermitian, unitary, and an involution.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return np.eye(d * d, dtype=complex).reshape(d, d, -1).transpose(1, 0, 2).reshape(d * d, -1)


def hermitian_eig(h):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary ``v``
    such that ``h = v @ diag(w) @ v†``.
    """
    h = _as_square(h)
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh(hermitize(h))
    return w, v


def exp_neg_i(h, scale: float = 1.0) -> np.ndarray:
    """Unitary exp(-i * scale * H) for Hermitian H, via eigendecomposition."""
    h = _as_square(h)
    if scale == 0:
        return np.eye(h.shape[0], dtype=complex)
    w, v = hermitian_eig(h)
    return (v * np.exp(-1j * scale * w)) @ dagger(v)


def principal_generator(u) -> np.ndarray:
    """Hermitian H with U = exp(-iH) and eigenvalues in (-pi, pi].

    Eigenphases numerically at the branch cut (within 1e-12 of -pi) are mapped
    to +pi, so the interval is half-open at -pi.
    """
    u = check_unitary(u)
    # Schur form of a normal matrix is diagonal, with orthonormal vectors even
    # in degenerate eigenspaces.
    t, z = scipy.linalg.schur(u, output="complex")
    theta = -np.angle(np.diagonal(t))
    theta[theta <= -np.pi + 1e-12] += 2 * np.pi
    return hermitize((z * theta) @ dagger(z))


def _singular_values(op) -> np.ndarray:
    """Per matrix of a stack: |eigenvalues| if Hermitian, else singular values."""
    adj = op.conj().swapaxes(-1, -2)
    herm = np.max(np.abs(op - adj), axis=(-2, -1)) <= HERMITIAN_ATOL
    values = np.empty(op.shape[:-1])
    values[herm] = np.abs(np.linalg.eigvalsh((op[herm] + adj[herm]) / 2))
    values[~herm] = np.linalg.svd(op[~herm], compute_uv=False)
    return values


def trace_norm(op):
    """Sum of singular values; sum of |eigenvalues| for Hermitian input.

    A stack of shape (..., d, d) gives an array of one norm per matrix; each
    member takes the Hermitian or the singular-value branch on its own.
    """
    op = _as_square(op, stack=True)
    norms = _singular_values(op).sum(axis=-1)
    return float(norms) if op.ndim == 2 else norms


def operator_norm(op) -> float:
    """Largest singular value; largest |eigenvalue| for Hermitian input."""
    return float(np.max(_singular_values(_as_square(op))))


def hs_norm(op) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(tr(O†O))."""
    return float(np.linalg.norm(_as_matrix(op), "fro"))


def von_neumann_entropy(rho) -> float:
    """Entropy -tr(rho ln rho) in natural-log units, with 0·ln 0 := 0."""
    rho = check_density(rho)
    w = np.linalg.eigvalsh(hermitize(rho))
    w = np.clip(w, 0.0, None)
    nz = w[w > 0]
    return float(-np.sum(nz * np.log(nz)))
