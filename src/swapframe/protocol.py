"""Implementing unitaries with partial-swap collisions against a frame of system copies.

One collision couples the system to a fresh frame particle through exp(-i(alpha/N)·SWAP),
which commutes with every extensive charge. A round of D collisions, one per basis state,
effects exp(-iH/N) with H decomposed over the basis; N rounds build up an arbitrary target
unitary with O(1/N) trace-norm error. Each particle is touched once, so the frame is never
materialized; as a battery, it books every collision's charge flow in a ledger.

A collision's reduced action (``step_channel``, arXiv:1307.0401) is linear in rho, so each slot
is a fixed d²×d² map on vec(rho). Per round count, ``_protocol_runs`` chains the D slot maps from
the identity into M and the ledger functionals (one broadcast kernel call over slots × matrix
units; a few of bounded size from d = 7), takes N mat-vecs and contracts them for the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .basis import OperatorBasis, decompose_generator
from .bounds import _n_min, total_bound
from .conservation import _charge_set
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
    a = alpha/N; no series truncation is involved. Only a dense test reference.
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
    and c²·tr(rho)·sigma + s²·rho + K. The tr(rho) factors, the exact partial
    traces, make both outputs linear in rho. ``rho`` may be a stack (..., d, d);
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


def _slot_sweep(basis: OperatorBasis, alphas, n_rounds: int, charges=()):
    """M on vec(rho) and its complex ledger functionals[side, column, slot, charge] (side 0 the
    system, 1 the particle) for ``_protocol_runs``: the slot chain starts from the identity. One
    kernel call per chunk of slots whose outputs hold at most 2^16 entries (1 MB) or one slot:
    all D slots in one call up to d = 6, one slot per call from d = 14."""
    d, d2, size = basis.dim, basis.dim ** 2, basis.size
    units = np.eye(d2, dtype=complex).reshape(d2, d, d)
    sigmas, alphas = basis.states, np.asarray(alphas, dtype=float)
    rows = np.array([c.matrix.T.reshape(-1) for c in charges]).reshape(-1, d2)  # vec(A_j^T)
    functionals = np.empty((2, d2, size, len(rows)), dtype=complex)
    x = np.eye(d2)
    chunk = max(1, 2**16 // d2 ** 2)
    for lo in range(0, size, chunk):
        part = slice(lo, lo + chunk)
        outs = step_channel(units, sigmas[part, None], alphas[part, None], n_rounds)
        # column u of slot k's map is vec of unit u's output: S_k on the system, F_k on the particle
        slot_maps, frame_maps = (out.reshape(-1, d2, d2).transpose(0, 2, 1) for out in outs)
        ins = np.array(list(accumulate(slot_maps, lambda y, m: m @ y, initial=x)))  # slot chain
        x = ins[-1]
        if charges:
            frame_maps = frame_maps - sigmas[part].reshape(-1, d2, 1) * np.eye(d).reshape(-1)
            sides = np.stack([rows @ (ins[1:] - ins[:-1]), rows @ frame_maps @ ins[:-1]])
            functionals[:, :, part] = sides.transpose(0, 3, 1, 2)
    return x, functionals


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "charges", _charge_set(self.charges, d))
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


def _protocol_runs(spec: ProtocolSpec, n_list):
    """``run_protocol`` at each round count in ``n_list``, preparing what no N changes once."""
    basis, d = spec.basis, spec.basis.dim
    h = principal_generator(spec.target)
    dec = decompose_generator(h, basis)
    w, v = np.linalg.eigh(h)  # h is exactly Hermitian, so no check or hermitize is needed
    rho_eig = dagger(v) @ spec.rho_s @ v
    final_ideal = spec.target @ spec.rho_s @ dagger(spec.target)
    n_min = _n_min(basis.size, basis.alpha_max)

    for n in n_list:
        bound, valid = total_bound(basis.size, basis.alpha_max, n)  # raises for n < 1
        round_map, functionals = _slot_sweep(basis, dec.alphas, n, spec.charges)
        states = np.empty((n + 1, d * d), dtype=complex)
        states[0] = spec.rho_s.reshape(-1)
        for t in range(n):
            np.dot(round_map, states[t], out=states[t + 1])
        ledger = np.zeros((2, n, basis.size, 0)) if not spec.charges else (
            states[:-1] @ functionals.reshape(2, d * d, -1)).real.reshape(2, n, basis.size, -1)
        states = states.reshape(n + 1, d, d)

        phases = np.exp(-1j * np.subtract.outer(w, w) * (np.arange(1, n + 1) / n)[:, None, None])
        ideal = v @ (rho_eig * phases) @ dagger(v)
        yield ProtocolResult(
            final_state=states[-1].copy(),
            round_errors=tuple(trace_norm(states[1:] - ideal).tolist()),
            total_error=trace_norm(states[-1] - final_ideal),
            total_bound=bound,
            bound_valid=valid,
            n_min=n_min,
            ledger=BatteryLedger(tuple(c.label for c in spec.charges), *ledger),
        )


def run_protocol(spec: ProtocolSpec) -> ProtocolResult:
    """Drive the system through N collision rounds toward the target unitary.

    Every round is the same linear map M on vec(rho), built with its ledger functionals by
    ``_slot_sweep`` (one kernel call up to d = 6); N mat-vecs give the round-start states, and one
    contraction with them the ledger. Ideal states exp(-iHt/N)·rho·exp(+iHt/N) come from
    one eigendecomposition of the generator. Identical specs give bit-identical results.
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
