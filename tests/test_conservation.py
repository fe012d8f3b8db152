import numpy as np
import pytest

from swapframe.conservation import (
    CapacityError,
    ExtensiveObservable,
    commutator_norm,
    extensive_expectation,
    lift_extensive,
)
from swapframe.linalg import dagger, exp_neg_i, tensor
from swapframe.protocol import partial_swap
from swapframe.rand import gaussian_matrix, random_density, random_hermitian, rng_from_seed
from swapframe.thermo import implicit_work

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_extensive_observable_validates():
    ExtensiveObservable(Z, "Z")
    with pytest.raises(ValueError):
        ExtensiveObservable(np.array([[0.0, 1.0], [0.0, 0.0]]), "bad")
    with pytest.raises(ValueError, match="square"):
        ExtensiveObservable(np.ones((2, 3)), "wide")
    with pytest.raises(ValueError, match="non-finite"):
        ExtensiveObservable(np.diag([1.0, np.nan]), "nan")


def test_lift_single_slot_is_identity_map():
    np.testing.assert_array_equal(lift_extensive(Z, 1), Z)


def test_lift_two_qubits_spectrum():
    total = lift_extensive(ExtensiveObservable(Z, "Z"), 2)
    np.testing.assert_allclose(np.linalg.eigvalsh(total), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_lift_expectation_on_opposite_pair():
    ket01 = np.zeros(4)
    ket01[1] = 1.0
    rho = np.outer(ket01, ket01)
    total = lift_extensive(Z, 2)
    assert np.trace(total @ rho).real == pytest.approx(0.0, abs=1e-14)


def test_lift_linear_and_additive():
    rng = rng_from_seed(40)
    a = random_hermitian(2, rng)
    b = random_hermitian(2, rng)
    np.testing.assert_allclose(
        lift_extensive(2.0 * a - 0.5 * b, 3),
        2.0 * lift_extensive(a, 3) - 0.5 * lift_extensive(b, 3),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        lift_extensive(a, 2),
        np.kron(a, I2) + np.kron(I2, a),
        atol=1e-14,
    )


def test_lift_capacity_cap():
    with pytest.raises(CapacityError):
        lift_extensive(Z, 20)


def test_commutator_norm_identity():
    assert commutator_norm(np.eye(4), lift_extensive(Z, 2)) == 0.0


def test_partial_swap_conserves_any_charge():
    rng = rng_from_seed(41)
    for _ in range(20):
        alpha = float(rng.uniform(-3, 3))
        a = random_hermitian(2, rng)
        v = partial_swap(alpha, 7, 2)
        assert commutator_norm(v, lift_extensive(a, 2)) <= 1e-12


def test_local_rotation_breaks_conservation():
    # [exp(-i pi/4 X), Z] has operator norm 2 sin(pi/4) = sqrt(2)
    v = tensor(exp_neg_i(X, np.pi / 4), np.eye(2))
    assert commutator_norm(v, lift_extensive(Z, 2)) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_audit_no_evolution():
    rho = random_density(4, rng_from_seed(42))
    assert -implicit_work(rho, rho, (ExtensiveObservable(Z, "Z"),))["Z"] == 0.0


def test_audit_collision_conserves():
    rng = rng_from_seed(43)
    charge = ExtensiveObservable(random_hermitian(2, rng), "A")
    for _ in range(20):
        joint = tensor(random_density(2, rng), random_density(2, rng))
        v = partial_swap(float(rng.uniform(0, 2)), 11, 2)
        after = v @ joint @ dagger(v)
        assert abs(-implicit_work(joint, after, (charge,))[charge.label]) <= 1e-10


def test_audit_local_rotation_closed_form():
    # <Z> of |0><0| under exp(-i theta X) becomes cos(2 theta)
    theta = np.pi / 8
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    joint = tensor(rho0, np.eye(2) / 2)
    u = tensor(exp_neg_i(X, theta), np.eye(2))
    after = u @ joint @ dagger(u)
    delta = -implicit_work(joint, after, (ExtensiveObservable(Z, "Z"),))["Z"]
    assert delta == pytest.approx(np.cos(2 * theta) - 1.0, abs=1e-12)


def test_simultaneous_noncommuting_charges():
    # one collision conserves arbitrarily many non-commuting charges at once
    rng = rng_from_seed(44)
    charges = [ExtensiveObservable(random_hermitian(2, rng), f"A{i}") for i in range(5)]
    v = partial_swap(1.3, 5, 2)
    joint = tensor(random_density(2, rng), random_density(2, rng))
    after = v @ joint @ dagger(v)
    for charge in charges:
        assert commutator_norm(v, lift_extensive(charge, 2)) <= 1e-12
        assert abs(-implicit_work(joint, after, (charge,))[charge.label]) <= 1e-10


def test_audit_dimension_mismatch():
    with pytest.raises(ValueError):
        implicit_work(np.eye(4) / 4, np.eye(8) / 8, (ExtensiveObservable(Z, "Z"),))
    with pytest.raises(ValueError):
        implicit_work(np.eye(3) / 3, np.eye(3) / 3, (ExtensiveObservable(Z, "Z"),))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_extensive_expectation_matches_dense_lift(d, n):
    rng = rng_from_seed(45 + 10 * d + n)
    a = random_hermitian(d, rng)
    dims = [d] * n
    for x in (random_hermitian(d**n, rng), gaussian_matrix(d**n, rng)):
        dense = np.trace(lift_extensive(a, n) @ x)
        assert abs(extensive_expectation((a,), x, dims, range(n))[0] - dense) <= 1e-12
        # a proper subset of the slots: every slot but the first
        subset = np.zeros((d**n, d**n), dtype=complex)
        for slot in range(1, n):
            subset += np.kron(np.kron(np.eye(d**slot), a), np.eye(d ** (n - slot - 1)))
        got = extensive_expectation((ExtensiveObservable(a, "A"),), x, dims, range(1, n))[0]
        assert abs(got - np.trace(subset @ x)) <= 1e-12
        # a stack of three charges, one value per charge
        stack = (a, random_hermitian(d, rng), ExtensiveObservable(random_hermitian(d, rng), "C"))
        values = extensive_expectation(stack, x, dims, range(n))
        assert values.shape == (3,)
        for charge, value in zip(stack, values):
            assert abs(value - np.trace(lift_extensive(charge, n) @ x)) <= 1e-12
    # implicit_work infers n from the state dimension and gives minus the change of the total
    before, after = random_density(d**n, rng), random_density(d**n, rng)
    work = implicit_work(before, after, (ExtensiveObservable(a, "A"),))["A"]
    assert abs(work + np.trace(lift_extensive(a, n) @ (after - before)).real) <= 1e-12


def test_extensive_expectation_rejects_misfit_slot():
    with pytest.raises(ValueError):
        extensive_expectation((Z,), np.eye(6) / 6, [2, 3], [1])


def test_extensive_expectation_rejects_bad_input():
    for bad in (np.nan, np.inf):
        op = np.eye(4, dtype=complex)
        op[3, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            extensive_expectation((Z,), op, [2, 2], [0, 1])
    with pytest.raises(ValueError, match="does not fit slot 2"):
        extensive_expectation((Z,), np.eye(4), [2, 2], [2])
    with pytest.raises(ValueError, match="do not match"):
        extensive_expectation((Z,), np.eye(4), [2, 2, 2], [0])
