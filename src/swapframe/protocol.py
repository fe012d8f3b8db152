"""Implementing unitaries with partial-swap collisions against a frame of system copies.

One collision couples the system to a fresh frame particle through
exp(-i(alpha/N)·SWAP), which commutes with every extensive charge. A round of
D collisions, one per basis state, effects the small rotation exp(-iH/N) with
H decomposed over the basis; N rounds build up an arbitrary target unitary
with O(1/N) trace-norm error. Frame particles double as a battery: every
collision's charge flow into its particle is recorded in a ledger.

Each frame particle starts in product form and is touched exactly once, so
the frame is never materialized; the protocol consumes one fresh particle per
collision, which is mathematically identical to acting on the full
tensor-power frame state.

Collisions use the exact closed form of their reduced action, the
density-matrix exponentiation identity (Lloyd, Mohseni, Rebentrost,
arXiv:1307.0401): with c, s = cos, sin of alpha/N and K = i·c·s·[sigma, rho],
the system leaves as c²·rho + s²·tr(rho)·sigma - K and the particle as
c²·sigma + s²·rho + K. The tr(rho) factor, 1 for any state, makes a round
one fixed linear map M on vec(rho), swept once over the d² matrix units; N
mat-vecs follow, and the ledger comes from one more round over the stack of
round-start states. A target is prepared once per sweep over round counts:
each N adds only its map, mat-vecs and error stack. The dense d²×d² gate
``partial_swap`` is kept only as the reference that tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import GeneratorDecomposition, OperatorBasis, decompose_generator
from .bounds import total_bound
from .linalg import (
    check_density,
    check_unitary,
    dagger,
    principal_generator,
    swap_operator,
    trace_norm,
)


def partial_swap(alpha: float, n_rounds: int, d: int) -> np.ndarray:
    """Collision unitary exp(-i(alpha/N)·SWAP) on two d-dimensional factors.

    SWAP is an involution, so this is exactly cos(a)·1 - i·sin(a)·SWAP with
    a = alpha/N; no series truncation is involved.
    """
    if n_rounds < 1:
        raise ValueError("round count must be >= 1")
    a = alpha / n_rounds
    eye = np.eye(d * d, dtype=complex)
    return np.cos(a) * eye - 1j * np.sin(a) * swap_operator(d)


def step_channel(rho, sigma, alpha, n_rounds: int):
    """Exact effect of one collision: conjugate by the partial swap, trace out.

    Returns ``(system_out, frame_out)``, the reduced states of the system and
    of the consumed particle; the system's loss of any extensive charge is the
    particle's gain. Closed form (arXiv:1307.0401), with c, s = cos, sin of
    alpha/N and K = i·c·s·(sigma·rho - rho·sigma): c²·rho + s²·tr(rho)·sigma - K
    and c²·sigma + s²·rho + K. The tr(rho) factor, the exact partial trace,
    makes the system output linear in rho. ``rho`` may be a stack (..., d, d);
    ``sigma`` and ``alpha`` broadcast against it.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if (rho.ndim < 2 or sigma.ndim < 2 or rho.shape[-1] != rho.shape[-2]
            or sigma.shape[-2:] != rho.shape[-2:]):
        raise ValueError(f"dimension mismatch: system {rho.shape} vs frame particle {sigma.shape}")
    if n_rounds < 1:
        raise ValueError("round count must be >= 1")
    if not (np.isfinite(rho).all() and np.isfinite(sigma).all()):
        raise ValueError("matrix has non-finite entries")
    a = np.asarray(alpha, dtype=float)[..., None, None] / n_rounds
    c, s = np.cos(a), np.sin(a)
    k = (1j * c * s) * (sigma @ rho - rho @ sigma)
    tr = np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
    return c * c * rho + s * s * tr * sigma - k, c * c * sigma + s * s * rho + k


@dataclass
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
        """Worst per-collision violation of system+particle charge conservation."""
        return float(np.max(np.abs(self.system + self.frame), initial=0.0))

    def to_json_dict(self) -> dict:
        system, frame = self.system.tolist(), self.frame.tolist()
        entries = [
            {"round": t + 1, "slot": k, "charge": self.charges[j],
             "system_delta": system[t][k][j], "frame_delta": frame[t][k][j]}
            for t, k, j in np.ndindex(self.frame.shape)
        ]
        return {"cumulative": self.cumulative(),
                "max_closure_residual": self.max_closure_residual(), "entries": entries}


def collision_round(rho, basis: OperatorBasis, alphas, n_rounds: int,
                    charges=(), ledger: BatteryLedger | None = None):
    """One sweep of collisions, slot k against a fresh particle in basis state k.

    Approximates conjugation by exp(-iH/N) where H = sum_k alphas[k]·sigma_k,
    on one state or a stack (..., d, d), and returns the result. When given,
    ``ledger`` (arrays rho.shape[:-2] + (D, K), or (1, D, K) for one state)
    receives each slot's charge deltas.
    """
    if len(alphas) != basis.size:
        raise ValueError(f"need {basis.size} coefficients, got {len(alphas)}")
    mats = np.array([c.matrix for c in charges], dtype=complex)
    for slot, (alpha, sigma) in enumerate(zip(alphas, basis.states)):
        rho_next, frame_out = step_channel(rho, sigma, alpha, n_rounds)
        if ledger is not None and charges:
            ledger.system[..., slot, :] = np.einsum("kij,...ji->...k", mats, rho_next - rho).real
            ledger.frame[..., slot, :] = np.einsum("kij,...ji->...k", mats, frame_out - sigma).real
        rho = rho_next
    return rho


@dataclass(frozen=True)
class ProtocolSpec:
    """Target unitary, round count, basis, initial state, and audited charges."""

    target: np.ndarray
    n_rounds: int
    basis: OperatorBasis
    rho_s: np.ndarray
    charges: tuple = ()

    def __post_init__(self):
        target = check_unitary(self.target)
        rho = check_density(self.rho_s)
        if self.n_rounds < 1:
            raise ValueError("round count must be >= 1")
        d = self.basis.dim
        if target.shape != (d, d) or rho.shape != (d, d):
            raise ValueError(
                f"dimension mismatch: basis dim {d}, target {target.shape}, state {rho.shape}"
            )
        for charge in self.charges:
            if charge.dim != d:
                raise ValueError(f"charge {charge.label!r} has dimension {charge.dim}, expected {d}")
        labels = [c.label for c in self.charges]
        if len(set(labels)) != len(labels):
            raise ValueError(f"charge labels are not distinct: {labels}")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "rho_s", rho)
        object.__setattr__(self, "charges", tuple(self.charges))


@dataclass(frozen=True)
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
    decomposition: GeneratorDecomposition


def _protocol_runs(spec: ProtocolSpec, n_list):
    """``run_protocol`` at each round count in ``n_list``, preparing what no N changes once."""
    basis, d = spec.basis, spec.basis.dim
    h = principal_generator(spec.target)
    dec = decompose_generator(h, basis)
    w, v = np.linalg.eigh(h)  # h is exactly Hermitian, so no check or hermitize is needed
    rho_eig = dagger(v) @ spec.rho_s @ v
    final_ideal = spec.target @ spec.rho_s @ dagger(spec.target)
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    labels = tuple(c.label for c in spec.charges)

    for n in n_list:
        bound, valid = total_bound(basis.size, basis.alpha_max, n)  # raises for n < 1
        round_map = collision_round(units, basis, dec.alphas, n).reshape(d * d, d * d).T
        states = np.empty((n + 1, d * d), dtype=complex)
        states[0] = spec.rho_s.reshape(-1)
        for t in range(n):
            np.dot(round_map, states[t], out=states[t + 1])
        states = states.reshape(n + 1, d, d)

        shape = (n, basis.size, len(spec.charges))
        ledger = BatteryLedger(labels, np.zeros(shape), np.zeros(shape))
        if spec.charges:
            collision_round(states[:-1], basis, dec.alphas, n, spec.charges, ledger)

        phases = np.exp(-1j * np.subtract.outer(w, w) * (np.arange(1, n + 1) / n)[:, None, None])
        ideal = v @ (rho_eig * phases) @ dagger(v)
        yield ProtocolResult(
            final_state=states[-1].copy(),
            round_errors=tuple(trace_norm(states[1:] - ideal).tolist()),
            total_error=trace_norm(states[-1] - final_ideal),
            total_bound=bound,
            bound_valid=valid,
            n_min=4.0 * basis.size * basis.alpha_max,
            ledger=ledger,
            decomposition=dec,
        )


def run_protocol(spec: ProtocolSpec) -> ProtocolResult:
    """Drive the system through N collision rounds toward the target unitary.

    Every round is the same linear map M on vec(rho): one round swept over the
    d² matrix units gives M, and N mat-vecs give the round-start states. With
    charges, one more round swept over that stack fills the ledger. Ideal
    states exp(-iHt/N)·rho·exp(+iHt/N) for every t come from one
    eigendecomposition of the generator. Identical specs produce bit-identical
    results.
    """
    return next(_protocol_runs(spec, (spec.n_rounds,)))


def two_subsystem_step(rho_ab, sigma_a, sigma_b, alpha: float, n_rounds: int) -> np.ndarray:
    """One collision coupling a two-part system to a two-part frame particle.

    Joint ordering is (system A, system B, frame A, frame B); the gate is
    exp(-i(alpha/N)·SWAP_AA'·SWAP_BB'). The two simultaneous exchanges equal
    one exchange of the composite halves, so this reduces to a partial swap on
    the composite space; its first-order action on the system is generated by
    sigma_a ⊗ sigma_b.
    """
    rho_out, _ = step_channel(rho_ab, np.kron(sigma_a, sigma_b), alpha, n_rounds)
    return rho_out
