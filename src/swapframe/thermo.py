"""Generalized thermal states, work accounting, and the frame as a battery.

A bath subsystem sits in tau = exp(-sum_i beta_i A_i)/Z where the charges A_i
need not commute; the summed exponent is handled with a single
eigendecomposition, so no operator-splitting error enters the inequality
tests. Work of type A_i is the negative change of that charge in the bath
(and system, when one is present); the weighted works are bounded by the drop
in the system's free entropy.

Each input is checked once: ``conservation._uniform_dims`` the shape and side of a single state,
``conservation._slot_values`` the dims, the slots and a finite after - before (so finite states
and marginals), this module the partition, and ``linalg._density_spectrum`` the system marginals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .conservation import _charge_change, _charge_set, _slot_values, _uniform_dims
from .linalg import _entropy, _finite_real, _reduce, hermitize

# Absorbs fp noise in inequality checks; violations beyond this are real.
SECOND_LAW_SLACK = 1e-9
# Ledger cumulants are long fp sums; deviations within this times ‖A‖ of the bound pass.
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
        betas = _finite_real(tuple(self.betas), "betas")  # no bool, NaN or inf, at any depth
        if betas.shape != (len(charges),):
            raise ValueError("need one inverse temperature per charge")
        charges, betas = _charge_set(charges), tuple(betas.tolist())
        with np.errstate(over="ignore", invalid="ignore"):  # finite betas whose sum overflows
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

    The weighted sum is one contraction with the spec's stored exponent. n is
    inferred from the state dimension, which must be a power of the charge
    dimension. For n = 1 the thermal state minimizes F at -ln Z.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = _uniform_dims(rho, spec.dim)
    value = _slot_values((spec.exponent,), rho, dims, range(len(dims)))  # the one finiteness check
    return float(value.sum().real) - float(_entropy(rho))


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
    - d<A_i on bath slots>. The free-entropy change is the system slots' share
    of that change, weighted by beta_i, minus the entropy change of the reduced
    system state. It is the record of a stack of one ``after`` (one gather, one spectrum).

    Slots and dims must be integers. Each input is checked once: ``conservation``'s charge-change
    helper checks the states, dims and slots (same shape, square, finite, integers, slot range
    and dimension); a repeated or shared slot and an empty bath are checked here, and the system
    marginals as density operators by the entropy step, which finite states make finite.
    """
    return _work_records(before, np.asarray(after, dtype=complex)[None], dims, bath, spec, system)[0]


def _work_records(before, afters, dims, bath, spec: ThermalSpec, system=()) -> list:
    """``work_accounting`` from ``before`` to each state of the stack ``afters``, in order."""
    before, dims, bath, system = np.asarray(before, dtype=complex), [*dims], (*bath,), (*system,)
    # the helper checks every dim and slot (an integer that fits), and after - before, finite only
    # when both states are: the partition is checked on integers, and the marginals are finite
    changes = _charge_change(spec.charges, before, afters, dims, (*system, *bath))
    if len({*bath, *system}) != len(bath) + len(system):
        raise ValueError(f"bath {tuple(map(int, bath))} and system {tuple(map(int, system))} "
                         "slots overlap or repeat a slot")
    if not bath:
        raise ValueError("need at least one bath slot")
    if system:  # entropies of the system before, then after each state
        states = np.concatenate((before[None], afters))
        entropies = _entropy(_reduce(states, dims, sorted(system))).tolist()
    records, k = [], len(system)
    for i, deltas in enumerate(changes.tolist()):
        works = {c.label: -sum(row) for c, row in zip(spec.charges, deltas)}
        weighted = sum(map(mul, spec.betas, works.values()))
        delta_f = (sum(map(mul, spec.betas, [sum(row[:k]) for row in deltas]))
                   - (entropies[i + 1] - entropies[0])) if system else 0.0
        records.append(WorkRecord(works=works, delta_free_entropy=delta_f,
                                  margin_bath_only=-weighted, margin_with_system=-delta_f - weighted))
    return records


def implicit_work(before, after, charges) -> dict:
    """Work each charge type would register if the evolution were ideal: -d<A total>.

    ``before`` and ``after`` are same-shape states on n >= 1 subsystems of the
    charges' one dimension, n inferred as in ``free_entropy``; the charges pass
    the specs' charge-set check. A charge's conservation audit is
    ``-implicit_work(before, after, (c,))[c.label]``.
    """
    charges = _charge_set(charges)
    dims = _uniform_dims(before, charges[0].dim)
    deltas = _charge_change(charges, before, np.asarray(after)[None], dims, range(len(dims)))[0]
    return {c.label: -float(delta) for c, delta in zip(charges, deltas.sum(axis=1))}


@dataclass(frozen=True)
class BatteryCheck:
    """One charge's ledger-vs-work deviation against its trace-norm bound."""

    deviation: float
    bound: float
    passed: bool


def battery_deviation_check(result, works: dict, epsilon: float, charges) -> dict:
    """Check that frame charge gains track the implicit work to within precision.

    For each charge: |ledger cumulative - W| must not exceed epsilon times the
    operator norm of the charge, with epsilon the measured trace error of the
    same run, ``result`` (a ``protocol.ProtocolResult``): one finite number >= 0, not a bool.
    The charges pass the specs' charge-set check at the run's dimension.
    """
    if result.ledger.frame.size == 0:
        raise ValueError("protocol result carries no battery ledger")
    epsilon = _finite_real(epsilon, "epsilon", 0)  # one number, no bool, NaN or inf
    cumulative, charges = result.ledger.cumulative(), _charge_set(charges, len(result.final_state))
    checks = {}
    for charge in charges:
        if charge.label not in cumulative:
            raise ValueError(f"ledger has no entries for charge {charge.label!r}")
        if charge.label not in works:
            raise ValueError(f"works has no entry for charge {charge.label!r}")
        deviation = abs(cumulative[charge.label] - works[charge.label])
        passed = deviation <= (epsilon + BATTERY_FP_SLACK) * charge.norm  # the slack in A's units
        checks[charge.label] = BatteryCheck(deviation, epsilon * charge.norm, passed)
    return checks
