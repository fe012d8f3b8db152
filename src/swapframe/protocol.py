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
the system leaves as c²·rho + s²·sigma - K and the particle as
c²·sigma + s²·rho + K. The dense d²×d² gate ``partial_swap`` is kept only as
the reference that tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .basis import GeneratorDecomposition, OperatorBasis, decompose_generator
from .bounds import total_bound
from .linalg import (
    check_density,
    check_unitary,
    dagger,
    hermitian_eig,
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


def step_channel(rho, sigma, alpha: float, n_rounds: int):
    """Exact effect of one collision: conjugate by the partial swap, trace out.

    Returns ``(system_out, frame_out)``, the reduced states of the system and
    of the consumed frame particle. Extensive charges are conserved: the
    system's loss of any charge expectation is the particle's gain. Evaluated
    in closed form (arXiv:1307.0401), without the joint space: with
    c, s = cos, sin of alpha/N and K = i·c·s·(sigma·rho - rho·sigma), the
    outputs are c²·rho + s²·sigma - K and c²·sigma + s²·rho + K. The dense
    gate ``partial_swap`` is kept only as the reference.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or sigma.shape != rho.shape:
        raise ValueError(f"dimension mismatch: system {rho.shape} vs frame particle {sigma.shape}")
    if n_rounds < 1:
        raise ValueError("round count must be >= 1")
    if not (np.isfinite(rho).all() and np.isfinite(sigma).all()):
        raise ValueError("matrix has non-finite entries")
    c, s = np.cos(alpha / n_rounds), np.sin(alpha / n_rounds)
    k = (1j * c * s) * (sigma @ rho - rho @ sigma)
    return c * c * rho + s * s * sigma - k, c * c * sigma + s * s * rho + k


@dataclass(frozen=True)
class LedgerEntry:
    """Charge flow of one collision: deltas of one charge on system and particle."""

    round: int
    slot: int
    charge: str
    system_delta: float
    frame_delta: float

    @property
    def closure_residual(self) -> float:
        return abs(self.system_delta + self.frame_delta)


@dataclass
class BatteryLedger:
    """Per-collision record of charge expectation changes in the frame particles."""

    charges: tuple = ()
    entries: list = field(default_factory=list)

    def record(self, round_index: int, slot: int, label: str,
               system_delta: float, frame_delta: float) -> None:
        self.entries.append(LedgerEntry(round_index, slot, label, system_delta, frame_delta))

    def cumulative(self) -> dict:
        """Total charge absorbed by the frame, per charge label."""
        totals = {label: 0.0 for label in self.charges}
        for e in self.entries:
            totals[e.charge] += e.frame_delta
        return totals

    def max_closure_residual(self) -> float:
        """Worst per-collision violation of system+particle charge conservation."""
        return max((e.closure_residual for e in self.entries), default=0.0)

    def to_json_dict(self) -> dict:
        return {
            "cumulative": self.cumulative(),
            "max_closure_residual": self.max_closure_residual(),
            "entries": [
                {
                    "round": e.round,
                    "slot": e.slot,
                    "charge": e.charge,
                    "system_delta": e.system_delta,
                    "frame_delta": e.frame_delta,
                }
                for e in self.entries
            ],
        }


def collision_round(rho, basis: OperatorBasis, alphas, n_rounds: int,
                    charges=(), ledger: BatteryLedger | None = None,
                    round_index: int = 0, *, frames: list | None = None):
    """One sweep of collisions, slot k against a fresh particle in basis state k.

    Approximates conjugation by exp(-iH/N) where H = sum_k alphas[k]·sigma_k.
    Returns the updated system state; ledger entries (one per slot and charge)
    are appended to ``ledger`` and the consumed particles' states to
    ``frames`` when given.
    """
    if len(alphas) != basis.size:
        raise ValueError(f"need {basis.size} coefficients, got {len(alphas)}")
    for slot, (alpha, sigma) in enumerate(zip(alphas, basis.states)):
        rho_next, frame_out = step_channel(rho, sigma, alpha, n_rounds)
        if frames is not None:
            frames.append(frame_out)
        if ledger is not None:
            for charge in charges:
                a = charge.matrix
                sys_delta = float(np.trace(a @ (rho_next - rho)).real)
                frame_delta = float(np.trace(a @ (frame_out - sigma)).real)
                ledger.record(round_index, slot, charge.label, sys_delta, frame_delta)
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

    def with_rounds(self, n_rounds: int) -> "ProtocolSpec":
        return replace(self, n_rounds=n_rounds)


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
    frame_states: tuple | None = None



def run_protocol(spec: ProtocolSpec, keep_frame_states: bool = False) -> ProtocolResult:
    """Drive the system through N collision rounds toward the target unitary.

    Ideal comparison states exp(-iHt/N)·rho·exp(+iHt/N) are computed from one
    eigendecomposition of the generator, so the measured errors are against
    exact evolution. Identical specs produce bit-identical results.
    """
    basis = spec.basis
    n = spec.n_rounds
    h = principal_generator(spec.target)
    dec = decompose_generator(h, basis)

    bound, valid = total_bound(basis.size, basis.alpha_max, n)
    n_min = max(2.0 * dec.max_alpha, 4.0 * basis.size * basis.alpha_max)

    w, v = hermitian_eig(h)
    rho0 = spec.rho_s

    ledger = BatteryLedger(charges=tuple(c.label for c in spec.charges))
    frame_states = [] if keep_frame_states else None

    rho = rho0
    round_errors = []
    for t in range(1, n + 1):
        rho = collision_round(rho, basis, dec.alphas, n, spec.charges, ledger, t,
                              frames=frame_states)
        u_t = (v * np.exp(-1j * w * (t / n))) @ dagger(v)
        round_errors.append(trace_norm(rho - u_t @ rho0 @ dagger(u_t)))

    ideal_final = spec.target @ rho0 @ dagger(spec.target)
    return ProtocolResult(
        final_state=rho,
        round_errors=tuple(round_errors),
        total_error=trace_norm(rho - ideal_final),
        total_bound=bound,
        bound_valid=valid,
        n_min=n_min,
        ledger=ledger,
        decomposition=dec,
        frame_states=None if frame_states is None else tuple(frame_states),
    )


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
