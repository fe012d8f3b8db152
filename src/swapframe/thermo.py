"""Generalized thermal states, work accounting, and the frame as a battery.

A bath subsystem sits in tau = exp(-sum_i beta_i A_i)/Z where the charges A_i
need not commute; the summed exponent is handled with a single
eigendecomposition, so no operator-splitting error enters the inequality
tests. Work of type A_i is the negative change of that charge in the bath
(and system, when one is present); the weighted works are bounded by the drop
in the system's free entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conservation import _charge_change, _charge_set, extensive_expectation, uniform_dims
from .linalg import _reduce, hermitize, operator_norm, von_neumann_entropy
from .protocol import ProtocolResult

# Absorbs fp noise in inequality checks; violations beyond this are real.
SECOND_LAW_SLACK = 1e-9
# Ledger cumulants are long fp sums; deviations within this of the bound pass.
BATTERY_FP_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class ThermalSpec:
    """Charges of one dimension and distinct labels, with their inverse generalized temperatures.

    ``exponent``, sum_i beta_i A_i, is built, checked finite and made read-only at construction.
    """

    charges: tuple
    betas: tuple
    exponent: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        charges = tuple(self.charges)
        betas = tuple(float(b) for b in self.betas)
        if len(charges) != len(betas):
            raise ValueError("need one inverse temperature per charge")
        if not charges:
            raise ValueError("need at least one charge")
        charges = _charge_set(charges, charges[0].dim)
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN, inf or overflowing beta
            exponent = hermitize(sum(b * c.matrix for b, c in zip(betas, charges)))
        if not np.isfinite(exponent).all():
            raise ValueError(f"betas {list(betas)} give a non-finite sum_i beta_i A_i")
        exponent.flags.writeable = False
        object.__setattr__(self, "charges", charges)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "exponent", exponent)

    @property
    def dim(self) -> int:
        return self.charges[0].dim


def thermal_state(spec: ThermalSpec):
    """Generalized Gibbs state exp(-sum beta_i A_i)/Z on the charges' dimension ``spec.dim``.

    Returns ``(tau, ln_z)``. The spec's stored exponent is diagonalized once;
    weights are shifted by the smallest eigenvalue to avoid overflow.
    """
    w, v = np.linalg.eigh(spec.exponent)  # Hermitian, and finite by ThermalSpec
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


def work_accounting(before, after, dims, bath, spec: ThermalSpec, system=()) -> WorkRecord:
    """Charge bookkeeping for a joint evolution over ``dims`` subsystems.

    ``bath`` and ``system`` list the slots in each partition block (the system
    block may be empty). Work of type A_i is -d<A_i on system slots>
    - d<A_i on bath slots>; the free-entropy change is evaluated on the
    reduced system state.

    ``conservation``'s charge-change helper checks the states and slots (same
    shape, square, finite, ``dims``, slot range and dimension); only a
    repeated or shared slot and an empty bath are checked here.
    """
    dims = [int(d) for d in dims]
    bath = tuple(int(s) for s in bath)
    system = tuple(int(s) for s in system)
    if len({*bath, *system}) != len(bath) + len(system):
        raise ValueError(f"bath {bath} and system {system} slots overlap or repeat a slot")
    if not bath:
        raise ValueError("need at least one bath slot")

    # the helper checks after - before, which is finite only when both states are
    deltas = _charge_change(spec.charges, before, after, dims, (*system, *bath))
    works = {c.label: -float(delta) for c, delta in zip(spec.charges, deltas)}

    delta_f = 0.0
    if system:
        pair = np.array([before, after], dtype=complex)
        rho_before, rho_after = _reduce(pair, dims, sorted(system))
        delta_f = free_entropy(rho_after, spec) - free_entropy(rho_before, spec)

    weighted = sum(b * works[c.label] for b, c in zip(spec.betas, spec.charges))
    return WorkRecord(
        works=works,
        delta_free_entropy=delta_f,
        margin_bath_only=-weighted,
        margin_with_system=-delta_f - weighted,
    )


def implicit_work(before, after, charges) -> dict:
    """Work each charge type would register if the evolution were ideal: -d<A total>.

    ``before`` and ``after`` are same-shape states on n >= 1 subsystems of the
    charges' one dimension, n inferred as in ``free_entropy``; the charges pass
    the specs' charge-set check. A charge's conservation audit is
    ``-implicit_work(before, after, (c,))[c.label]``.
    """
    charges = tuple(charges)
    if not charges:
        raise ValueError("need at least one charge")
    charges = _charge_set(charges, charges[0].dim)
    dims = uniform_dims(len(before), charges[0].dim)
    deltas = _charge_change(charges, before, after, dims, range(len(dims)))
    return {c.label: -float(delta) for c, delta in zip(charges, deltas)}


@dataclass(frozen=True)
class BatteryCheck:
    """One charge's ledger-vs-work deviation against its trace-norm bound."""

    deviation: float
    bound: float
    passed: bool


def battery_deviation_check(result: ProtocolResult, works: dict, epsilon: float, charges) -> dict:
    """Check that frame charge gains track the implicit work to within precision.

    For each charge: |ledger cumulative - W| must not exceed epsilon times the
    operator norm of the charge, with epsilon the measured trace error of the
    same run.
    """
    if result.ledger.frame.size == 0:
        raise ValueError("protocol result carries no battery ledger")
    cumulative = result.ledger.cumulative()
    checks = {}
    for charge in charges:
        if charge.label not in cumulative:
            raise ValueError(f"ledger has no entries for charge {charge.label!r}")
        deviation = abs(cumulative[charge.label] - works[charge.label])
        bound = epsilon * operator_norm(charge.matrix)
        checks[charge.label] = BatteryCheck(
            deviation, bound, deviation <= bound + BATTERY_FP_SLACK
        )
    return checks
