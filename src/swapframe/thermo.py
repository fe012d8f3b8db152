"""Generalized thermal states, work accounting, and the frame as a battery.

A bath subsystem sits in tau = exp(-sum_i beta_i A_i)/Z where the charges A_i
need not commute; the summed exponent is handled with a single
eigendecomposition, so no operator-splitting error enters the inequality
tests. Work of type A_i is the negative change of that charge in the bath
(and system, when one is present); the weighted works are bounded by the drop
in the system's free entropy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .conservation import extensive_expectation, uniform_dims
from .linalg import _reduce, hermitize, operator_norm, von_neumann_entropy
from .protocol import ProtocolResult

# Absorbs fp noise in inequality checks; violations beyond this are real.
SECOND_LAW_SLACK = 1e-9
# Ledger cumulants are long fp sums; deviations within this of the bound pass.
BATTERY_FP_SLACK = 1e-12


@dataclass(frozen=True)
class ThermalSpec:
    """Charges with their inverse generalized temperatures."""

    charges: tuple
    betas: tuple

    def __post_init__(self):
        charges = tuple(self.charges)
        betas = tuple(float(b) for b in self.betas)
        if len(charges) != len(betas):
            raise ValueError("need one inverse temperature per charge")
        if not charges:
            raise ValueError("need at least one charge")
        dims = {c.dim for c in charges}
        if len(dims) != 1:
            raise ValueError(f"charges act on mixed dimensions {sorted(dims)}")
        labels = [c.label for c in charges]
        if len(set(labels)) != len(labels):
            raise ValueError(f"charge labels are not distinct: {labels}")
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN, inf or overflowing beta
            exponent = hermitize(sum(b * c.matrix for b, c in zip(betas, charges)))
        if not np.isfinite(exponent).all():
            raise ValueError(f"betas {list(betas)} give a non-finite sum_i beta_i A_i")
        exponent.flags.writeable = False
        object.__setattr__(self, "charges", charges)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "_exponent", exponent)

    @property
    def dim(self) -> int:
        return self.charges[0].dim

    def exponent(self) -> np.ndarray:
        """The weighted charge sum sum_i beta_i A_i, built and checked once at construction."""
        return self._exponent


def thermal_state(spec: ThermalSpec, d: int):
    """Generalized Gibbs state exp(-sum beta_i A_i)/Z on dimension d.

    Returns ``(tau, ln_z)``. The exponent is diagonalized once; weights are
    shifted by the smallest eigenvalue to avoid overflow.
    """
    if spec.dim != d:
        raise ValueError(f"charges act on dimension {spec.dim}, expected {d}")
    w, v = np.linalg.eigh(spec.exponent())  # Hermitian, and finite by ThermalSpec
    shift = float(w[0])
    weights = np.exp(-(w - shift))
    z_shifted = float(np.sum(weights))
    tau = hermitize((v * (weights / z_shifted)) @ v.conj().T)
    ln_z = float(np.log(z_shifted) - shift)
    return tau, ln_z


def free_entropy(rho, spec: ThermalSpec) -> float:
    """F = sum_i beta_i <A_i total> - S(rho) for a state on n charge-sized subsystems.

    n is inferred from the state dimension, which must be a power of the
    charge dimension. For n = 1 the thermal state minimizes F at -ln Z.
    """
    entropy = von_neumann_entropy(rho)
    dims = uniform_dims(len(rho), spec.dim)
    totals = extensive_expectation(spec.charges, rho, dims, range(len(dims))).real
    return float(np.dot(spec.betas, totals)) - entropy


@dataclass(frozen=True)
class WorkRecord:
    """Per-charge extracted work and the two second-law margins.

    ``margin_bath_only`` is -sum_i beta_i W_i (nonnegative for any unitary on
    a thermal bath); ``margin_with_system`` is -dF_S - sum_i beta_i W_i
    (nonnegative when a system rides along and starts in product with the
    bath).
    """

    works: dict
    delta_free_entropy: float
    margin_bath_only: float
    margin_with_system: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def work_accounting(before, after, dims, bath, spec: ThermalSpec, system=()) -> WorkRecord:
    """Charge bookkeeping for a joint evolution over ``dims`` subsystems.

    ``bath`` and ``system`` list the slots in each partition block (the system
    block may be empty). Work of type A_i is -d<A_i on system slots>
    - d<A_i on bath slots>; the free-entropy change is evaluated on the
    reduced system state.
    """
    before = np.asarray(before, dtype=complex)
    after = np.asarray(after, dtype=complex)
    dims = [int(d) for d in dims]
    total = math.prod(dims)
    if before.shape != (total, total) or after.shape != (total, total):
        raise ValueError(f"joint states do not match dims {tuple(dims)}")
    bath = tuple(int(s) for s in bath)
    system = tuple(int(s) for s in system)
    if len({*bath, *system}) != len(bath) + len(system):
        raise ValueError(f"bath {bath} and system {system} slots overlap or repeat a slot")
    if not bath:
        raise ValueError("need at least one bath slot")
    for slot in (*bath, *system):
        if slot < 0 or slot >= len(dims):
            raise ValueError(f"slot {slot} out of range for {len(dims)} subsystems")
        if dims[slot] != spec.dim:
            raise ValueError(f"slot {slot} has dimension {dims[slot]}, charges need {spec.dim}")

    # extensive_expectation checks after - before, which is finite only when both states are
    deltas = extensive_expectation(spec.charges, after - before, dims, (*system, *bath)).real
    works = {c.label: -float(delta) for c, delta in zip(spec.charges, deltas)}

    delta_f = 0.0
    if system:
        rho_before, rho_after = _reduce(np.stack([before, after]), dims, sorted(system))
        delta_f = free_entropy(rho_after, spec) - free_entropy(rho_before, spec)

    weighted = sum(b * works[c.label] for b, c in zip(spec.betas, spec.charges))
    return WorkRecord(
        works=works,
        delta_free_entropy=delta_f,
        margin_bath_only=-weighted,
        margin_with_system=-delta_f - weighted,
    )


def implicit_work(before, after, charges) -> dict:
    """Work each charge type would register if the evolution were ideal: -d<A>.

    ``before`` and ``after`` are states of the single system the charges act on.
    """
    charges = tuple(charges)
    diff = np.asarray(after, dtype=complex) - np.asarray(before, dtype=complex)
    deltas = extensive_expectation(charges, diff, [diff.shape[0]], [0]).real
    return {c.label: -float(delta) for c, delta in zip(charges, deltas)}


@dataclass(frozen=True)
class BatteryCheck:
    """One charge's ledger-vs-work deviation against its trace-norm bound."""

    deviation: float
    bound: float
    passed: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def battery_deviation_check(result: ProtocolResult, works: dict, epsilon: float,
                            charges, n_sys_bath: int = 1) -> dict:
    """Check that frame charge gains track the implicit work to within precision.

    For each charge: |ledger cumulative - W| must not exceed epsilon times the
    operator norm of the charge lifted over the system+bath slots, with
    epsilon the measured trace error of the same run.
    """
    if result.ledger.frame.size == 0:
        raise ValueError("protocol result carries no battery ledger")
    cumulative = result.ledger.cumulative()
    checks = {}
    for charge in charges:
        if charge.label not in cumulative:
            raise ValueError(f"ledger has no entries for charge {charge.label!r}")
        deviation = abs(cumulative[charge.label] - works[charge.label])
        # The lifted total's extreme eigenvalues are n·λ_max and n·λ_min.
        bound = epsilon * n_sys_bath * operator_norm(charge.matrix)
        checks[charge.label] = BatteryCheck(
            deviation, bound, deviation <= bound + BATTERY_FP_SLACK
        )
    return checks
