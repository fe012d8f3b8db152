import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_oracle import commutator_norm, lift, partial_swap
from swapframe import conservation
from swapframe.conservation import ExtensiveObservable
from swapframe.linalg import dagger, exp_neg_i, partial_trace, tensor
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


def test_extensive_observable_keeps_a_read_only_copy():
    # a charge checked at construction cannot be made non-Hermitian through the caller's array
    source = Z.copy()
    obs = ExtensiveObservable(source, "Z")
    source[0, 1] = 5.0
    assert np.array_equal(obs.matrix, Z) and not obs.matrix.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        obs.matrix[0, 1] = 5.0


def test_lift_single_slot_is_identity_map():
    np.testing.assert_array_equal(lift(Z, 1), Z)


def test_lift_two_qubits_spectrum():
    total = lift(Z, 2)
    np.testing.assert_allclose(np.linalg.eigvalsh(total), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_lift_expectation_on_opposite_pair():
    ket01 = np.zeros(4)
    ket01[1] = 1.0
    rho = np.outer(ket01, ket01)
    total = lift(Z, 2)
    assert np.trace(total @ rho).real == pytest.approx(0.0, abs=1e-14)


def test_lift_linear_and_additive():
    rng = rng_from_seed(40)
    a = random_hermitian(2, rng)
    b = random_hermitian(2, rng)
    np.testing.assert_allclose(
        lift(2.0 * a - 0.5 * b, 3),
        2.0 * lift(a, 3) - 0.5 * lift(b, 3),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        lift(a, 2),
        np.kron(a, I2) + np.kron(I2, a),
        atol=1e-14,
    )


def test_commutator_norm_identity():
    assert commutator_norm(np.eye(4), lift(Z, 2)) == 0.0


def test_partial_swap_conserves_any_charge():
    rng = rng_from_seed(41)
    for _ in range(20):
        alpha = float(rng.uniform(-3, 3))
        a = random_hermitian(2, rng)
        v = partial_swap(alpha, 7, 2)
        assert commutator_norm(v, lift(a, 2)) <= 1e-12


def test_local_rotation_breaks_conservation():
    # [exp(-i pi/4 X), Z] has operator norm 2 sin(pi/4) = sqrt(2)
    v = tensor(exp_neg_i(X, np.pi / 4), np.eye(2))
    assert commutator_norm(v, lift(Z, 2)) == pytest.approx(np.sqrt(2.0), abs=1e-12)


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
        assert commutator_norm(v, lift(charge.matrix, 2)) <= 1e-12
        assert abs(-implicit_work(joint, after, (charge,))[charge.label]) <= 1e-10


def test_audit_dimension_mismatch():
    with pytest.raises(ValueError):
        implicit_work(np.eye(4) / 4, np.eye(8) / 8, (ExtensiveObservable(Z, "Z"),))
    with pytest.raises(ValueError):
        implicit_work(np.eye(3) / 3, np.eye(3) / 3, (ExtensiveObservable(Z, "Z"),))
    # a stack of states is refused: implicit_work reads one state before and one after
    pair = np.stack((np.eye(2), np.diag([1.0, 0.0]))).astype(complex)
    with pytest.raises(ValueError, match="expected a matrix"):
        implicit_work(pair, pair[::-1], (ExtensiveObservable(Z, "Z"),))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_slot_values_matches_dense_lift(d, n):
    rng = rng_from_seed(45 + 10 * d + n)
    a = random_hermitian(d, rng)
    dims = [d] * n
    for x in (random_hermitian(d**n, rng), gaussian_matrix(d**n, rng)):
        dense = np.trace(lift(a, n) @ x)
        total = conservation._slot_values((a,), x, dims, range(n)).sum(axis=-1)
        assert abs(total[0] - dense) <= 1e-12
        # a proper subset of the slots: every slot but the first
        subset = np.zeros((d**n, d**n), dtype=complex)
        for slot in range(1, n):
            subset += np.kron(np.kron(np.eye(d**slot), a), np.eye(d ** (n - slot - 1)))
        got = conservation._slot_values((ExtensiveObservable(a, "A"),), x, dims, range(1, n))
        got = got.sum(axis=-1)[0]
        assert abs(got - np.trace(subset @ x)) <= 1e-12
        # a stack of three charges, one value per charge
        b, c = random_hermitian(d, rng), random_hermitian(d, rng)
        values = conservation._slot_values((a, b, ExtensiveObservable(c, "C")), x, dims, range(n))
        values = values.sum(axis=-1)
        assert values.shape == (3,)
        for m, value in zip((a, b, c), values):
            assert abs(value - np.trace(lift(m, n) @ x)) <= 1e-12
    # implicit_work infers n from the state dimension and gives minus the change of the total
    before, after = random_density(d**n, rng), random_density(d**n, rng)
    work = implicit_work(before, after, (ExtensiveObservable(a, "A"),))["A"]
    assert abs(work + np.trace(lift(a, n) @ (after - before)).real) <= 1e-12


@pytest.mark.parametrize("dims, slots", [([2, 3, 2], [2, 0]), ([2], [0, 0]), ([2, 2, 2], [1])],
                         ids=["mixed-dims", "one-slot-whole-space", "uniform"])
def test_stacked_slot_values_equal_each_member(dims, slots):
    rng = rng_from_seed(46)
    total = math.prod(dims)
    charges = [ExtensiveObservable(random_hermitian(2, rng), f"A{i}") for i in range(3)]
    ops = np.array([[gaussian_matrix(total, rng) for _ in range(4)] for _ in range(2)])
    values = conservation._slot_values(charges, ops, dims, slots)
    assert values.shape == (2, 4, 3, len(slots))
    for op, value in zip(ops.reshape(-1, total, total), values.reshape(-1, 3, len(slots))):
        np.testing.assert_allclose(value, conservation._slot_values(charges, op, dims, slots),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_charge_change_equals_each_member(n):
    rng = rng_from_seed(47 + n)
    charges = [ExtensiveObservable(random_hermitian(2, rng), f"A{i}") for i in range(2)]
    dims = [2] * n
    before = random_density(2**n, rng)
    afters = np.array([random_density(2**n, rng) for _ in range(5)])
    changes = conservation._charge_change(charges, before, afters, dims, range(n))
    assert changes.shape == (5, 2, n)
    for after, change in zip(afters, changes):
        works = implicit_work(before, after, charges)
        for charge, row in zip(charges, change):
            assert abs(-row.sum() - works[charge.label]) <= 1e-12
    # a non-finite member and a member of another shape are refused with the one-state messages
    broken = afters.copy()
    broken[3, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        conservation._charge_change(charges, before, broken, dims, range(n))
    with pytest.raises(ValueError, match=r"dimension mismatch: \(\d+, \d+\) vs \(5, \d+, \d+\)"):
        conservation._charge_change(charges, before, afters[None], dims, range(n))
    with pytest.raises(ValueError, match="dimension mismatch"):
        conservation._charge_change(charges, before, afters[:, :1], dims, range(n))


def test_slot_values_rejects_misfit_slot():
    with pytest.raises(ValueError):
        conservation._slot_values((Z,), np.eye(6) / 6, [2, 3], [1])


def test_slot_values_rejects_bad_input():
    for bad in (np.nan, np.inf):
        op = np.eye(4, dtype=complex)
        op[3, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            conservation._slot_values((Z,), op, [2, 2], [0, 1])
    with pytest.raises(ValueError, match="does not fit slot 2"):
        conservation._slot_values((Z,), np.eye(4), [2, 2], [2])
    with pytest.raises(ValueError, match="do not match"):
        conservation._slot_values((Z,), np.eye(4), [2, 2, 2], [0])


def test_slot_values_reads_dims_and_slots_as_integers():
    # a float slot raised a TypeError, and a bool slot was read as slot 0 or 1
    op = np.eye(4, dtype=complex) / 4
    for dims, slots in (([2, 2], [1.5]), ([2, 2], [True]), ([2.9, 2], [0]), ([2, 2], [-1])):
        with pytest.raises(ValueError, match="and an integer"):
            conservation._slot_values((Z,), op, dims, slots)
    values = conservation._slot_values((Z,), op, np.array([2, 2]), [np.int64(1)])
    np.testing.assert_allclose(values.sum(axis=-1), [0.0], rtol=0, atol=1e-15)


# no slot has to fit the charges when there are none: dims [3] and [3, 3] hold no qubit
@pytest.mark.parametrize("dims", [[2], [2, 2, 2], [3], [3, 3]])
def test_slot_values_of_no_slots_is_zero_per_charge(dims):
    op = random_density(math.prod(dims), rng_from_seed(46))
    values = conservation._slot_values((Z, X, I2), op, dims, []).sum(axis=-1)
    assert values.shape == (3,)
    assert not values.any()


def _fit_in_64(dims):
    """The longest prefix of ``dims`` whose joint dimension is at most 64."""
    kept = []
    for d in dims:
        if math.prod(kept) * d > 64:
            break
        kept.append(d)
    return kept


@given(st.data())
def test_slot_values_is_the_sum_of_slot_marginals(data):
    dims = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=6).map(_fit_in_64))
    d = data.draw(st.sampled_from(dims))
    # any slot list: a subset, in any order, with repeats, or empty
    slots = data.draw(st.lists(st.sampled_from([i for i, x in enumerate(dims) if x == d]),
                               max_size=6))
    rng = rng_from_seed(data.draw(st.integers(0, 2**16)))
    op = gaussian_matrix(math.prod(dims), rng)
    charges = [random_hermitian(d, rng) for _ in range(data.draw(st.integers(1, 3)))]
    values = conservation._slot_values(charges, op, dims, slots).sum(axis=-1)
    expected = [sum((np.trace(a @ partial_trace(op, dims, s)) for s in slots), 0j) for a in charges]
    assert values.shape == (len(charges),)
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)
