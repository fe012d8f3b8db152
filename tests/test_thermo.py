from dataclasses import asdict

import numpy as np
import pytest

from swapframe.basis import build_state_basis
from swapframe.conservation import ExtensiveObservable, lift_extensive
from swapframe.linalg import dagger, exp_neg_i, operator_norm, swap_operator, tensor
from swapframe.protocol import ProtocolSpec, run_protocol
from swapframe.rand import haar_unitary, random_density, random_hermitian, rng_from_seed
from swapframe.thermo import (
    ThermalSpec,
    battery_deviation_check,
    free_entropy,
    implicit_work,
    thermal_state,
    work_accounting,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)

CHARGE_Z = ExtensiveObservable(Z, "Z")
CHARGE_X = ExtensiveObservable(X, "X")
# non-commuting charge pair used throughout
ZX_SPEC = ThermalSpec(charges=(CHARGE_Z, CHARGE_X), betas=(1.0, 0.5))


def test_thermal_spec_validation():
    with pytest.raises(ValueError):
        ThermalSpec(charges=(CHARGE_Z,), betas=(1.0, 2.0))
    with pytest.raises(ValueError):
        ThermalSpec(charges=(), betas=())
    with pytest.raises(ValueError):
        ThermalSpec(charges=(CHARGE_Z, ExtensiveObservable(np.eye(3), "I3")), betas=(1.0, 1.0))


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
def test_thermal_spec_rejects_non_finite_betas(beta):
    with pytest.raises(ValueError, match="betas"):
        ThermalSpec(charges=(CHARGE_Z, CHARGE_X), betas=(0.5, beta))
    # refused before work accounting could return a NaN margin
    with pytest.raises(ValueError, match="betas"):
        work_accounting(np.eye(4) / 4, np.eye(4) / 4, [2, 2], bath=[0, 1],
                        spec=ThermalSpec((CHARGE_Z,), [beta]))


def test_thermal_spec_rejects_overflowing_exponent():
    # finite betas whose weighted charge sum overflows are refused at construction
    with pytest.raises(ValueError, match="betas"):
        ThermalSpec(charges=(ExtensiveObservable(10 * Z, "A"),), betas=[1e308])


def test_thermal_spec_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        ThermalSpec(charges=(ExtensiveObservable(X, "A"), ExtensiveObservable(Z, "A")),
                    betas=(0.3, 0.7))


def test_thermal_state_infinite_temperature():
    tau, ln_z = thermal_state(ThermalSpec(charges=(CHARGE_Z,), betas=(0.0,)))
    np.testing.assert_allclose(tau, I2 / 2, atol=1e-12)
    assert ln_z == pytest.approx(np.log(2.0))


def test_thermal_state_single_charge_closed_form():
    tau, ln_z = thermal_state(ThermalSpec(charges=(CHARGE_Z,), betas=(1.0,)))
    z = np.e + 1.0 / np.e
    np.testing.assert_allclose(tau, np.diag([np.exp(-1.0), np.exp(1.0)]) / z, atol=1e-12)
    assert ln_z == pytest.approx(np.log(z))


def test_thermal_state_noncommuting_charges():
    tau, ln_z = thermal_state(ZX_SPEC)
    # the weighted exponent Z + X/2 has eigenvalues +-sqrt(1.25)
    assert ln_z == pytest.approx(np.log(2 * np.cosh(np.sqrt(1.25))))
    exponent = Z + 0.5 * X
    np.testing.assert_allclose(exponent @ tau, tau @ exponent, atol=1e-12)
    assert np.trace(tau).real == pytest.approx(1.0)
    assert np.all(np.linalg.eigvalsh(tau) > 0)


def test_free_entropy_maximally_mixed():
    spec = ThermalSpec(charges=(CHARGE_Z,), betas=(0.0,))
    assert free_entropy(I2 / 2, spec) == pytest.approx(-np.log(2.0))


def test_free_entropy_pure_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert free_entropy(rho, ZX_SPEC) == pytest.approx(1.0, abs=1e-12)


def test_free_entropy_additive_on_product_states():
    rng = rng_from_seed(74)
    rho = random_density(2, rng)
    sigma = random_density(2, rng)
    assert free_entropy(tensor(rho, sigma), ZX_SPEC) == pytest.approx(
        free_entropy(rho, ZX_SPEC) + free_entropy(sigma, ZX_SPEC), abs=1e-12
    )


def test_free_entropy_rejects_non_power_dimension():
    with pytest.raises(ValueError):
        free_entropy(np.eye(3) / 3, ZX_SPEC)


def test_thermal_state_minimizes_free_entropy():
    tau, ln_z = thermal_state(ZX_SPEC)
    assert free_entropy(tau, ZX_SPEC) == pytest.approx(-ln_z, abs=1e-10)
    rng = rng_from_seed(70)
    for _ in range(100):
        assert free_entropy(random_density(2, rng), ZX_SPEC) >= -ln_z - 1e-9


def test_work_accounting_identity_evolution():
    tau, _ = thermal_state(ZX_SPEC)
    joint = tensor(tau, tau)
    record = work_accounting(joint, joint, [2, 2], bath=[0, 1], spec=ZX_SPEC)
    assert record.works == {"Z": 0.0, "X": 0.0}
    assert record.margin_bath_only == 0.0
    assert record.margin_with_system == 0.0


def test_second_law_on_random_bath_unitaries():
    tau, _ = thermal_state(ZX_SPEC)
    bath0 = tensor(tau, tau)
    rng = rng_from_seed(71)
    for _ in range(200):
        u = haar_unitary(4, rng)
        record = work_accounting(bath0, u @ bath0 @ dagger(u), [2, 2], bath=[0, 1], spec=ZX_SPEC)
        assert record.margin_bath_only >= -1e-9


def test_swap_with_bath_qubit_work_and_margin():
    # exchanging an excited system qubit with one thermal qubit moves charge
    # between the blocks but extracts no work; free entropy drops by ln Z - 1
    tau, ln_z = thermal_state(ZX_SPEC)
    excited = np.diag([0.0, 1.0]).astype(complex)
    before = tensor(excited, tau)
    s = swap_operator(2)
    after = s @ before @ dagger(s)
    record = work_accounting(before, after, [2, 2], bath=[1], spec=ZX_SPEC, system=[0])
    assert record.works["Z"] == pytest.approx(0.0, abs=1e-12)
    assert record.works["X"] == pytest.approx(0.0, abs=1e-12)
    assert record.delta_free_entropy == pytest.approx(-ln_z - (-1.0), abs=1e-10)
    assert record.margin_with_system >= -1e-9


def test_with_system_margin_on_random_unitaries():
    tau, _ = thermal_state(ZX_SPEC)
    rng = rng_from_seed(72)
    for _ in range(100):
        before = tensor(random_density(2, rng), tau)
        u = haar_unitary(4, rng)
        record = work_accounting(before, u @ before @ dagger(u), [2, 2],
                                 bath=[1], spec=ZX_SPEC, system=[0])
        assert record.margin_with_system >= -1e-9


def test_work_accounting_matches_dense_lift_for_noncommuting_charges():
    rng = rng_from_seed(74)
    charges = (CHARGE_X, ExtensiveObservable(Y, "Y"), CHARGE_Z)
    spec = ThermalSpec(charges=charges, betas=(0.3, 0.5, 0.7))
    tau, _ = thermal_state(spec)
    before = tensor(random_density(2, rng), tau, tau)
    u = haar_unitary(8, rng)
    after = u @ before @ dagger(u)
    record = work_accounting(before, after, [2, 2, 2], bath=[1, 2], spec=spec, system=[0])
    for charge in charges:
        lift = sum(np.kron(np.kron(np.eye(2**slot), charge.matrix), np.eye(2 ** (2 - slot)))
                   for slot in range(3))
        expected = -np.trace(lift @ (after - before)).real
        assert abs(expected) > 1e-3
        assert record.works[charge.label] == pytest.approx(expected, abs=1e-12)


def test_work_accounting_validates_partition():
    joint = np.eye(4) / 4
    with pytest.raises(ValueError):
        work_accounting(joint, joint, [2, 2], bath=[0], spec=ZX_SPEC, system=[0])
    with pytest.raises(ValueError):
        work_accounting(joint, joint, [2, 2], bath=[], spec=ZX_SPEC)
    with pytest.raises(ValueError):
        work_accounting(joint, joint, [2, 2], bath=[3], spec=ZX_SPEC)
    with pytest.raises(ValueError):
        work_accounting(joint, np.eye(8) / 8, [2, 2], bath=[0, 1], spec=ZX_SPEC)
    with pytest.raises(ValueError, match="repeat a slot"):
        work_accounting(joint, joint, [2, 2], bath=[1, 1], spec=ZX_SPEC)
    with pytest.raises(ValueError, match="repeat a slot"):
        work_accounting(joint, joint, [2, 2], bath=[1], spec=ZX_SPEC, system=[0, 0])


def test_work_accounting_rejects_non_finite_states():
    joint = np.eye(4, dtype=complex) / 4
    for bad in (np.nan, np.inf):
        broken = joint.copy()
        broken[0, 1] = bad
        for before, after in ((broken, joint), (joint, broken)):
            with pytest.raises(ValueError, match="non-finite"):
                work_accounting(before, after, [2, 2], bath=[1], spec=ZX_SPEC, system=[0])


def test_work_accounting_checks_the_reduced_system_states():
    # trace 1 and Hermitian, but the system marginal has eigenvalue -0.5
    tau, _ = thermal_state(ZX_SPEC)
    before = tensor(np.diag([1.5, -0.5]).astype(complex), tau)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        work_accounting(before, before, [2, 2], bath=[1], spec=ZX_SPEC, system=[0])
    # the bath-only path books works and never forms a system state
    record = work_accounting(before, before, [2, 2], bath=[1], spec=ZX_SPEC)
    assert record.works == {"Z": 0.0, "X": 0.0}


def test_implicit_work_single_slot():
    rho = np.diag([1.0, 0.0]).astype(complex)
    u = exp_neg_i(X, np.pi / 4)
    works = implicit_work(rho, u @ rho @ dagger(u), (CHARGE_Z,))
    # <Z> falls from 1 to cos(pi/2) = 0, so type-Z work of 1 is extracted
    assert works["Z"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("after", [np.array([[0.5, 0.5]]), np.array([0.5, 0.5]), np.eye(4) / 4],
                         ids=["1x2", "2", "4x4"])
def test_implicit_work_rejects_a_misshaped_after(after):
    with pytest.raises(ValueError, match="dimension mismatch"):
        implicit_work(np.diag([1.0, 0.0]), after, (CHARGE_Z,))


def test_implicit_work_rejects_an_invalid_charge_set():
    with pytest.raises(ValueError, match="at least one charge"):
        implicit_work(I2 / 2, I2 / 2, ())
    # a repeated label would drop one charge's work from the returned dict
    with pytest.raises(ValueError, match="not distinct"):
        implicit_work(I2 / 2, I2 / 2, (ExtensiveObservable(X, "A"), ExtensiveObservable(Z, "A")))


def _battery_run(n_rounds):
    basis = build_state_basis(2)
    target = exp_neg_i(X, np.pi / 4)
    rho = (I2 + 0.3 * X + 0.2 * Y + 0.7 * Z) / 2
    spec = ProtocolSpec(target=target, n_rounds=n_rounds, basis=basis,
                        rho_s=rho, charges=(CHARGE_Z,))
    result = run_protocol(spec)
    works = implicit_work(rho, target @ rho @ dagger(target), (CHARGE_Z,))
    return result, works


def test_battery_deviation_within_bound():
    result, works = _battery_run(200)
    checks = battery_deviation_check(result, works, result.total_error, (CHARGE_Z,))
    check = checks["Z"]
    assert check.bound == pytest.approx(result.total_error)  # ||Z|| = 1
    assert check.deviation <= check.bound
    assert check.passed
    assert asdict(check) == {"deviation": check.deviation, "bound": check.bound,
                                    "passed": True}


def test_battery_deviation_identity_target():
    basis = build_state_basis(2)
    rho = random_density(2, rng_from_seed(73))
    spec = ProtocolSpec(target=I2, n_rounds=10, basis=basis, rho_s=rho,
                        charges=(CHARGE_Z,))
    result = run_protocol(spec)
    works = implicit_work(rho, rho, (CHARGE_Z,))
    checks = battery_deviation_check(result, works, result.total_error, (CHARGE_Z,))
    assert checks["Z"].deviation <= 1e-12
    assert checks["Z"].passed


def test_battery_deviation_requires_ledger():
    basis = build_state_basis(2)
    spec = ProtocolSpec(target=I2, n_rounds=5, basis=basis, rho_s=I2 / 2)
    result = run_protocol(spec)  # no charges -> empty ledger
    with pytest.raises(ValueError):
        battery_deviation_check(result, {"Z": 0.0}, 0.0, (CHARGE_Z,))


@pytest.mark.parametrize("n", [1])
def test_battery_bound_matches_dense_lift(n):
    rng = rng_from_seed(75)
    charge = ExtensiveObservable(random_hermitian(2, rng), "A")
    spec = ProtocolSpec(target=exp_neg_i(X, 0.4), n_rounds=5, basis=build_state_basis(2),
                        rho_s=random_density(2, rng), charges=(charge,))
    epsilon = 0.0123
    checks = battery_deviation_check(run_protocol(spec), {"A": 0.0}, epsilon, (charge,))
    expected = epsilon * operator_norm(lift_extensive(charge, n))
    assert abs(checks["A"].bound - expected) <= 1e-12
