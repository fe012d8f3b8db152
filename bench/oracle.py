"""Independent numpy-only reference for checking benchmark outputs.

Nothing here imports ``swapframe``. A collision is computed the slow, obvious
way: a dense Kronecker product of system and particle, conjugation by
``cos(a)·1 - i·sin(a)·SWAP``, and partial traces taken by reshaping. Work is
``-tr(A_tot·Δρ)`` with ``A_tot`` lifted here by explicit Kronecker products.
The benchmark compares the library against these functions on a seeded
sample of tasks, outside the timed region.
"""

from __future__ import annotations

import numpy as np


def swap(d: int) -> np.ndarray:
    """Exchange of two d-dimensional factors, built by permuting identity indices."""
    return np.eye(d * d, dtype=complex).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)


def collision(rho: np.ndarray, sigma: np.ndarray, a: float):
    """Reduced system and particle states after exp(-i·a·SWAP) on rho ⊗ sigma."""
    d = rho.shape[0]
    u = np.cos(a) * np.eye(d * d) - 1j * np.sin(a) * swap(d)
    joint = (u @ np.kron(rho, sigma) @ u.conj().T).reshape(d, d, d, d)
    return np.einsum("ijkj->ik", joint), np.einsum("ijil->jl", joint)


def principal_generator(u: np.ndarray) -> np.ndarray:
    """Hermitian H with U = exp(-iH) and eigenvalues in (-pi, pi].

    Eigenvectors come from a generic real combination of U's Hermitian and
    anti-Hermitian parts, which commute with U and have distinct eigenvalues
    whenever U's eigenphases are distinct.
    """
    k = 0.5 * (u + u.conj().T) + 0.7548776662466927 * (u - u.conj().T) / 2j
    _, v = np.linalg.eigh(k)
    diag = v.conj().T @ u @ v
    if np.max(np.abs(diag - np.diag(np.diagonal(diag)))) > 1e-12:
        raise ValueError("oracle cannot separate the target's eigenvectors")
    theta = -np.angle(np.diagonal(diag))
    theta[theta <= -np.pi + 1e-12] += 2 * np.pi
    return (v * theta) @ v.conj().T


def default_basis(d: int) -> list[np.ndarray]:
    """States (1 + r·g)/d over the generalized Gell-Mann matrices g, r the PSD edge."""
    gens = []
    for j in range(d):
        for k in range(j + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[j, k] = g[k, j] = 1.0
            gens.append(g)
    for j in range(d):
        for k in range(j + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[j, k], g[k, j] = -1j, 1j
            gens.append(g)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l], diag[l] = 1.0, -l
        gens.append(np.sqrt(2.0 / (l * (l + 1))) * np.diag(diag).astype(complex))
    r = 1.0 / max(abs(np.linalg.eigvalsh(g)[0]) for g in gens)
    return [(np.eye(d) + r * g) / d for g in gens]


def coefficients(h: np.ndarray, states) -> np.ndarray:
    """Real alphas with H = c0·1 + sum_k alphas[k]·states[k], via the Gram inverse."""
    elems = [np.eye(h.shape[0], dtype=complex)] + list(states)
    gram = np.array([[np.trace(a @ b).real for b in elems] for a in elems])
    overlaps = np.array([np.trace(h @ e).real for e in elems])
    return np.linalg.solve(gram, overlaps)[1:]


def run_protocol(target, rho0, n_rounds: int, charges=()):
    """Dense N-round protocol: final state and the frame's total gain of each charge."""
    d = rho0.shape[0]
    states = default_basis(d)
    alphas = coefficients(principal_generator(target), states)
    gains = np.zeros(len(charges))
    rho = rho0
    for _ in range(n_rounds):
        for alpha, sigma in zip(alphas, states):
            rho, frame = collision(rho, sigma, alpha / n_rounds)
            for c, a in enumerate(charges):
                gains[c] += np.trace(a @ (frame - sigma)).real
    return rho, gains


def trace_norm(h: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (h + h.conj().T)))))


def protocol_error(target, rho0, n_rounds: int) -> float:
    """Trace distance of the dense protocol's final state from U·rho·U†."""
    rho, _ = run_protocol(target, rho0, n_rounds)
    return trace_norm(rho - target @ rho0 @ target.conj().T)


def lift(a: np.ndarray, n_slots: int, slots) -> np.ndarray:
    """Sum over ``slots`` of ``a`` acting on that slot of n identical subsystems."""
    d = a.shape[0]
    total = np.zeros((d**n_slots,) * 2, dtype=complex)
    for slot in slots:
        term = np.ones((1, 1))
        for s in range(n_slots):
            term = np.kron(term, a if s == slot else np.eye(d))
        total += term
    return total


def work(a_tot: np.ndarray, before: np.ndarray, after: np.ndarray) -> float:
    return -float(np.trace(a_tot @ (after - before)).real)


def log_partition(charges, betas) -> float:
    """ln tr exp(-sum_i beta_i A_i)."""
    w = np.linalg.eigvalsh(sum(b * a for b, a in zip(betas, charges)))
    return float(np.log(np.sum(np.exp(-(w - w[0])))) - w[0])


def loglog_slope(n_values, errors) -> float:
    """Least-squares slope of ln(error) against ln(N) over errors above 1e-14, in closed form."""
    pts = [(n, e) for n, e in zip(n_values, errors) if e > 1e-14]
    x = np.log([float(n) for n, _ in pts])
    y = np.log([e for _, e in pts])
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


def state_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """(|tr ρ - 1|, max |ρ - ρ†|, -min eigenvalue) of a claimed density operator."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    return abs(np.trace(rho) - 1.0), herm, -lo
