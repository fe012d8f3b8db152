"""Implementing unitaries with partial-swap collisions against a frame of system copies.

One collision couples the system to a fresh frame particle through exp(-i(alpha/N)·SWAP),
which commutes with every extensive charge. A round of D collisions, one per basis state,
effects exp(-iH/N) with H decomposed over the basis; N rounds build up an arbitrary target
unitary with O(1/N) trace-norm error. Each particle is touched once, so the frame is never
materialized; as a battery, it books every collision's charge flow in a ledger.

A collision's reduced action (``step_channel``, arXiv:1307.0401) is linear in rho, so each slot
is a fixed d²×d² map on vec(rho). One ``_slot_sweep`` writes the D slot maps of every round count
in that closed form, each term on its nonzeros alone, and chains them into M and the ledger
functionals; per N, ``_protocol_runs`` doubles the N + 1 round-start states in ⌈log₂(N + 1)⌉
products, and ``run_protocol`` its ideal trajectory beside them. A ``ProtocolSpec`` is checked
once and read-only, so a run re-checks neither its target, the generator it decomposes, nor the
states it builds and takes one stacked norm of.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _coefficients
from .bounds import _n_min, total_bound
from .conservation import _charge_set
from .linalg import (BLOCK_ENTRIES, _as_square, _finite_real, _integer, _principal_generator,
                     _singular_values, check_density, check_unitary, dagger)


def step_channel(rho, sigma, alpha, n_rounds: int):
    """Exact effect of one collision: conjugate by the partial swap, trace out.

    Returns ``(system_out, frame_out)``, the reduced states of the system and
    of the consumed particle; the system's loss of any extensive charge is the
    particle's gain. Closed form (arXiv:1307.0401), with c, s = cos, sin of
    alpha/N and K = i·c·s·(sigma·rho - rho·sigma): c²·rho + s²·tr(rho)·sigma - K
    and c²·tr(rho)·sigma + s²·rho + K. The tr(rho) factors, the exact partial
    traces, make both outputs linear in rho. ``rho`` may be a stack (..., d, d);
    ``sigma`` and ``alpha`` broadcast against it. SWAP_AA'·SWAP_BB' is one swap of
    the composite halves, so a two-part system colliding with a two-part particle
    is this collision with sigma = sigma_A ⊗ sigma_B.
    """
    a = np.asarray(_finite_real(alpha, "alpha"))
    rho, sigma = _as_square(rho, stack=True), _as_square(sigma, stack=True)
    if sigma.shape[-1] != rho.shape[-1]:
        raise ValueError(f"dimension mismatch: system {rho.shape} vs frame particle {sigma.shape}")
    n_rounds = _integer(n_rounds, "round count", 1)
    a = a[..., None, None] / n_rounds
    c, s = np.cos(a), np.sin(a)
    k = (1j * c * s) * (sigma @ rho - rho @ sigma)
    tr = np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
    return c * c * rho + s * s * tr * sigma - k, c * c * tr * sigma + s * s * rho + k


@dataclass(eq=False)
class BatteryLedger:
    """Charge deltas of every collision, on the system and on its particle.

    ``system[t, k, j]`` and ``frame[t, k, j]``: charge j, slot k, round t + 1.
    """

    charges: tuple
    system: np.ndarray
    frame: np.ndarray

    def cumulative(self) -> dict:
        """Total charge absorbed by the frame, per charge label."""
        return dict(zip(self.charges, self.frame.sum(axis=(0, 1)).tolist()))

    def max_closure_residual(self) -> float:
        """Worst per-collision |system + particle| charge delta: rounding only, as
        F_k - |sigma_k⟩⟨1| = -(S_k - 1) whenever c² + s² = 1, whatever K_k and sigma_k. The tests
        check the physics against ``step_channel`` per slot, and it against the dense oracle."""
        return float(np.max(np.abs(self.system + self.frame), initial=0.0))


def _slot_sweep(states, alphas, n_list, charges):
    """M on vec(rho) per round count, (r, d², d²), and its complex ledger functionals[N, side,
    column, slot, charge] (side 0 the system, 1 the particle), chaining the frame's ``states``
    (D, d, d) at coefficients ``alphas`` from the identity. With c, s = cos, sin of alpha_k/N and
    K_k = i·c·s·(sigma_k⊗1 - 1⊗sigma_kᵀ) in row-major vec, ``step_channel`` is S_k = c²·1 +
    s²·|sigma_k⟩⟨1| - K_k and, on the particle, F_k = c²·|sigma_k⟩⟨1| + s²·1 + K_k, each term
    written on its nonzeros alone: 1 on the diagonal, |sigma_k⟩⟨1| as vec(sigma_k) on the columns
    (a, a), K_k on two strided diagonals. A group of round counts holds at most BLOCK_ENTRIES // d⁴
    (4096 at d = 2, one from d = 16) and a chunk of slots' maps at most that many entries or one
    (slot, N) pair, so up to d = 16 the arrays stay near 1 MB. One stacked product per slot chains
    a group; one product per side, broadcast over (slot, N), takes S_k - 1 and F_k - |sigma_k⟩⟨1|,
    so no ledger entry depends on how the slots are chunked."""
    (size, d, _), r = states.shape, len(n_list)
    d2 = d * d
    angles = np.asarray(alphas, dtype=float) / np.array(n_list, dtype=float)[:, None]
    rows = np.array([c.matrix.T.reshape(-1) for c in charges]).reshape(-1, d2)  # vec(A_j^T)
    round_maps = np.empty((r, d2, d2), dtype=complex)
    functionals = np.empty((r, 2, d2, size, len(rows)), dtype=complex)
    group = max(1, BLOCK_ENTRIES // d2 ** 2)
    for g0 in range(0, r, group):
        g = min(group, r - g0)
        chunk = max(1, BLOCK_ENTRIES // (g * d2 ** 2))
        ins = np.empty((min(chunk, size) + 1, g, d2, d2), dtype=complex)  # ins[t + 1] = S_t·ins[t]
        ins[0] = np.eye(d2)
        for lo in range(0, size, chunk):
            sigmas, theta = states[lo:lo + chunk], angles[g0:g0 + g, lo:lo + chunk].T
            m, c, s = len(sigmas), np.cos(theta)[..., None, None], np.sin(theta)[..., None, None]
            comm = np.zeros((m, d, d, d, d), dtype=complex)  # sigma_k⊗1 - 1⊗sigma_kᵀ
            np.einsum("kijaj->kija", comm)[...] = sigmas[:, :, None]  # sigma[i, a] at (i, j, a, j)
            np.einsum("kijib->kijb", comm)[...] -= sigmas.swapaxes(1, 2)[:, None]  # sigma[b, j]
            k, sigmas = (1j * c * s) * comm.reshape(m, 1, d2, d2), sigmas.reshape(m, 1, d2, 1)
            maps = np.zeros((m, g, d2, d2), dtype=complex)  # S_k, then F_k - |sigma_k⟩⟨1|, in place
            diagonal, columns = maps.reshape(m, g, 1, -1)[..., ::d2 + 1], maps[..., ::d + 1]
            diagonal += c * c
            columns += s * s * sigmas
            maps -= k
            for t in range(m):
                np.matmul(maps[t], ins[t], out=ins[t + 1])
            if charges:
                maps.fill(0)
                diagonal += s * s
                columns += c * c * sigmas
                maps += k
                columns -= sigmas
                out = functionals[g0:g0 + g, :, :, lo:lo + m].transpose(1, 3, 0, 4, 2)
                out[0] = rows @ (ins[1:m + 1] - ins[:m])  # out[side, slot, N, charge, column]
                out[1] = rows @ maps @ ins[:m]
            ins[0] = ins[m]
        round_maps[g0:g0 + g] = ins[0]
    return round_maps, functionals


@dataclass(frozen=True, eq=False)
class ProtocolSpec:
    """Target unitary, round count, ``OperatorBasis``, initial state, and audited charges.

    ``target`` and ``rho_s`` are read-only copies of the caller's arrays, checked once here, so a
    run trusts them: changing the caller's arrays later changes no run.
    """

    target: np.ndarray
    n_rounds: int
    basis: object
    rho_s: np.ndarray
    charges: tuple = ()

    def __post_init__(self):
        target = check_unitary(np.array(self.target, dtype=complex))
        rho = check_density(np.array(self.rho_s, dtype=complex))
        object.__setattr__(self, "n_rounds", _integer(self.n_rounds, "round count", 1))
        d = self.basis.dim
        if target.shape != (d, d) or rho.shape != (d, d):
            raise ValueError(
                f"dimension mismatch: basis dim {d}, target {target.shape}, state {rho.shape}"
            )
        object.__setattr__(self, "charges", _charge_set(self.charges, d))
        target.flags.writeable = rho.flags.writeable = False
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "rho_s", rho)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome of a full protocol run.

    ``round_errors[t-1]`` is the trace distance after round t from the ideal
    t-fold small rotation; ``total_error`` compares the final state against
    direct conjugation by the target. ``bound_valid`` flags whether the round
    count cleared the analytic bound's validity threshold ``n_min``.
    """

    final_state: np.ndarray
    round_errors: tuple
    total_error: float
    total_bound: float
    bound_valid: bool
    n_min: float
    ledger: BatteryLedger


def _protocol_runs(spec: ProtocolSpec, n_list, trajectory: bool = False) -> list:
    """``run_protocol`` at each round count in ``n_list``, from one slot sweep, ledgers as real
    copies (empty, with no product taken, when no charge is audited). A ``trajectory`` run doubles
    the ideal states beside the real ones for ``round_errors``; else they are ``()`` and one stacked
    norm gives every total error, its stacks unchecked: they are built here, so finite."""
    basis, d, labels = spec.basis, spec.basis.dim, tuple(c.label for c in spec.charges)
    h = _principal_generator(spec.target)  # the spec checked its read-only target once
    alphas = _coefficients(h, basis)[1:]
    final_ideal = spec.target @ spec.rho_s @ dagger(spec.target)
    n_min = _n_min(basis.size, basis.alpha_max)
    if trajectory:  # h is exactly Hermitian, so no check or hermitize is needed
        w, v = np.linalg.eigh(h)
    bounds = [total_bound(basis.size, basis.alpha_max, n) for n in n_list]  # raises for n < 1
    round_maps, functionals = _slot_sweep(basis.states, alphas, n_list, spec.charges)
    finals, errors, ledgers = np.empty((len(n_list), d, d), dtype=complex), [], []
    for i, (n, round_map) in enumerate(zip(n_list, round_maps)):
        states = np.empty((1 + trajectory, n + 1, d * d), dtype=complex)  # real, then ideal
        states[:, 0], real = spec.rho_s.reshape(-1), states[0]
        steps = [2**j for j in range(int(n).bit_length())]  # rows m..2m-1 = rows 0..m-1 · (M^m)ᵀ
        if trajectory:  # each U^m from the eigenphases: squaring U⊗U* would compound rounding
            u = (v * np.exp(np.outer(steps, w * (-1j / n)))[:, None]) @ dagger(v)
            ideals = (u.swapaxes(1, 2)[:, :, None, :, None] * dagger(u)[:, None, :, None]).reshape(
                len(steps), d * d, d * d)  # (U^m⊗U^m*)ᵀ = U^mᵀ⊗U^m†, every step in one broadcast
        for j, m in enumerate(steps):
            power = round_map.T if m == 1 else power @ power
            np.matmul(real[:min(m, n + 1 - m)], power, out=real[m:2 * m])
            if trajectory:
                np.matmul(states[1, :min(m, n + 1 - m)], ideals[j], out=states[1, m:2 * m])
        ledgers.append((real[:-1] @ functionals[i].reshape(2, d * d, -1)).real.copy().reshape(
            2, n, basis.size, -1) if labels else np.empty((2, n, basis.size, 0)))
        finals[i] = real[-1].reshape(d, d)
        if trajectory:  # row t >= 1: round t against the ideal; row 0: the end against the target
            states[:, 0] = real[-1], final_ideal.reshape(-1)
            errors.append(_singular_values((states[0] - states[1]).reshape(n + 1, d, d)).sum(-1))
    if not trajectory:
        errors = _singular_values(finals - final_ideal).sum(-1)[:, None]
    return [ProtocolResult(final_state=final, round_errors=tuple(e[1:].tolist()),
                           total_error=float(e[0]), total_bound=bound, bound_valid=valid,
                           n_min=n_min, ledger=BatteryLedger(labels, *ledger))
            for final, e, (bound, valid), ledger in zip(finals, errors, bounds, ledgers)]


def run_protocol(spec: ProtocolSpec) -> ProtocolResult:
    """Drive the system through N collision rounds toward the target unitary.

    Every round is the same linear map M on vec(rho), built with its ledger functionals by
    ``_slot_sweep``; doubling gives the round-start states, and one contraction with them the
    ledger. The ideal states exp(-iHt/N)·rho·exp(+iHt/N) take the same doubling, each step's
    U^m⊗U^m* built in one broadcast from one eigendecomposition; one stacked trace norm gives the
    N round errors and the total error. Identical specs give identical results.
    """
    return _protocol_runs(spec, (spec.n_rounds,), trajectory=True)[0]

