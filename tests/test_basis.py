import dataclasses
import json

import numpy as np
import pytest

from swapframe.basis import (
    DegenerateBasisError,
    OperatorBasis,
    build_state_basis,
    _dual_basis,
    _gell_mann_generators,
    decompose_generator,
)
from swapframe.linalg import check_density, operator_norm, principal_generator
from swapframe.rand import haar_unitary, rng_from_seed

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_gell_mann_generators_orthogonality():
    for d in (2, 3, 4):
        gens = _gell_mann_generators(d)
        assert len(gens) == d * d - 1
        for i, g in enumerate(gens):
            assert abs(np.trace(g)) < 1e-14
            np.testing.assert_allclose(g, g.conj().T, atol=1e-14)
            for j, h in enumerate(gens):
                expected = 2.0 if i == j else 0.0
                assert np.trace(g @ h).real == pytest.approx(expected, abs=1e-12)


def test_qubit_basis_is_pure_pauli_states():
    basis = build_state_basis(2)
    assert basis.size == 3
    for sigma, pauli in zip(basis.states, (X, Y, Z)):
        np.testing.assert_allclose(sigma, (I2 + pauli) / 2, atol=1e-12)
        check_density(sigma)
        # purity -> rank one
        assert np.trace(sigma @ sigma).real == pytest.approx(1.0, abs=1e-12)


def test_qubit_duals_hand_computed():
    basis = build_state_basis(2)
    np.testing.assert_allclose(basis.duals[0], (I2 - X - Y - Z) / 2, atol=1e-10)
    for dual, pauli in zip(basis.duals[1:], (X, Y, Z)):
        np.testing.assert_allclose(dual, pauli, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_duality_relations(d):
    basis = build_state_basis(d)
    elements = [np.eye(d, dtype=complex)] + list(basis.states)
    for k, e in enumerate(elements):
        for l, dual in enumerate(basis.duals):
            expected = 1.0 if k == l else 0.0
            assert np.trace(e @ dual).real == pytest.approx(expected, abs=1e-10)


def test_qutrit_basis_valid_and_independent():
    basis = build_state_basis(3)
    assert basis.size == 8
    for sigma in basis.states:
        check_density(sigma)
    elements = [np.eye(3, dtype=complex)] + list(basis.states)
    gram = np.array([[np.trace(a @ b).real for b in elements] for a in elements])
    assert np.linalg.matrix_rank(gram) == 9
    assert np.isfinite(np.linalg.cond(gram))


def test_dual_basis_orthonormal_self_dual():
    elements = [I2 / np.sqrt(2), X / np.sqrt(2), Y / np.sqrt(2), Z / np.sqrt(2)]
    duals = _dual_basis(elements)
    for e, t in zip(elements, duals):
        np.testing.assert_allclose(t, e, atol=1e-12)


def test_dual_basis_rejects_duplicates():
    with pytest.raises(DegenerateBasisError):
        _dual_basis([I2, X, X, Z])


def test_decompose_zero_generator():
    basis = build_state_basis(2)
    dec = decompose_generator(np.zeros((2, 2)), basis)
    assert dec.alphas == (0.0, 0.0, 0.0)
    assert dec.identity_coefficient == 0.0
    assert dec.residual < 1e-12


def test_decompose_z_rotation():
    # tr((pi/2) Z · P_k) gives (0, 0, pi); identity part is -pi/2
    basis = build_state_basis(2)
    dec = decompose_generator((np.pi / 2) * Z, basis)
    np.testing.assert_allclose(dec.alphas, (0.0, 0.0, np.pi), atol=1e-12)
    assert dec.identity_coefficient == pytest.approx(-np.pi / 2, abs=1e-12)
    assert dec.residual < 1e-9


def test_decompose_rejects_a_generator_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="generator has dimension 3, basis has dimension 2"):
        decompose_generator(np.eye(3), build_state_basis(2))


def test_decompose_rejects_a_non_hermitian_generator():
    with pytest.raises(ValueError, match="generator must be Hermitian"):
        decompose_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), build_state_basis(2))


def test_build_state_basis_refuses_dimension_1():
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        build_state_basis(1)


@pytest.mark.parametrize("d", [2.0, True, np.True_, "3"],
                         ids=["float", "bool", "numpy-bool", "str"])
def test_build_state_basis_reads_its_dimension_as_an_integer(d):
    # 2.0 once raised numpy's TypeError, and True read as 1
    with pytest.raises(ValueError, match="dimension must be >= 2 and an integer"):
        build_state_basis(d)
    assert build_state_basis(np.int64(3)).dim == 3


def test_decompose_basis_state_multiple():
    basis = build_state_basis(2)
    dec = decompose_generator(np.pi * (I2 + X) / 2, basis)
    np.testing.assert_allclose(dec.alphas, (np.pi, 0.0, 0.0), atol=1e-12)
    assert dec.identity_coefficient == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_reconstruction_of_random_generators(d):
    basis = build_state_basis(d)
    rng = rng_from_seed(20 + d)
    eye = np.eye(d)
    for _ in range(100):
        h = principal_generator(haar_unitary(d, rng))
        dec = decompose_generator(h, basis)
        recon = dec.identity_coefficient * eye + sum(
            a * s for a, s in zip(dec.alphas, basis.states)
        )
        assert operator_norm(h - recon) < 1e-9
        assert dec.residual < 1e-9


def test_alpha_max_qubit_value():
    basis = build_state_basis(2)
    assert basis.alpha_max == pytest.approx(np.pi * np.sqrt(6.0), abs=1e-9)
    hs_max = max(np.sqrt(np.trace(t.conj().T @ t).real) for t in basis.duals[1:])
    assert np.sqrt(3.0) * np.pi * hs_max == pytest.approx(basis.alpha_max)


def test_operator_basis_refuses_states_that_are_not_density_operators():
    # Pauli/sqrt(2) have unit Hilbert-Schmidt norm but trace 0, so they are not states
    with pytest.raises(ValueError, match="trace"):
        OperatorBasis(np.array([X, Y, Z]) / np.sqrt(2))


@pytest.mark.parametrize("d", [2, 3])
def test_alpha_bound_holds_for_random_generators(d):
    basis = build_state_basis(d)
    rng = rng_from_seed(30 + d)
    for _ in range(200):
        dec = decompose_generator(principal_generator(haar_unitary(d, rng)), basis)
        assert dec.max_alpha <= basis.alpha_max + 1e-12


def test_json_roundtrip_bit_exact():
    basis = build_state_basis(3)
    restored = OperatorBasis.from_json(basis.to_json())
    assert restored.dim == basis.dim
    for a, b in zip(basis.states, restored.states):
        assert np.array_equal(a, b)
    for a, b in zip(basis.duals, restored.duals):
        assert np.array_equal(a, b)
    assert restored.alpha_max == basis.alpha_max


def test_basis_is_one_read_only_stack():
    basis = build_state_basis(3)
    assert [f.name for f in dataclasses.fields(OperatorBasis) if f.init] == ["states"]
    assert basis.states.shape == (8, 3, 3) and basis.duals.shape == (9, 3, 3)
    with pytest.raises(ValueError):
        basis.states[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        basis.duals[0, 0, 0] = 5.0
    # a complex (D, d, d) stack, which np.asarray would not copy
    states = np.array([(I2 + X) / 2, (I2 + Y) / 2, (I2 + Z) / 2], dtype=complex)
    rebuilt = OperatorBasis(states)
    assert rebuilt.dim == states.shape[-1] and rebuilt.size == 3
    assert states.flags.writeable and not np.shares_memory(states, rebuilt.states)
    states[0] = I2 / 2  # the basis holds its own copy
    np.testing.assert_array_equal(rebuilt.states[0], (I2 + X) / 2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_build_state_basis_checks_its_states_in_one_stacked_call(d, monkeypatch):
    # one eigvalsh finds the scale r, one checks all D states (per state, 1 + D calls)
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    build_state_basis(d)
    assert calls == [(d * d - 1, d, d)] * 2


def test_operator_basis_validates_its_states():
    with pytest.raises(ValueError, match=r"d\^2 - 1 states"):
        OperatorBasis([I2 / 2, I2 / 2])  # wrong count
    with pytest.raises(ValueError, match=r"d\^2 - 1 states"):
        OperatorBasis(np.array([(I2 + X) / 2, (I2 + Z) / 2]))  # two of the three qubit states
    with pytest.raises(ValueError, match=r"d\^2 - 1 states"):
        OperatorBasis([np.eye(3) / 3] * 3)  # three qutrit states, the count for d = 2
    with pytest.raises(ValueError, match="negative eigenvalue"):
        OperatorBasis([np.diag([2.0, -1.0])] * 3)  # not density operators
    with pytest.raises(DegenerateBasisError):
        OperatorBasis([(I2 + X) / 2, (I2 + X) / 2, (I2 + Z) / 2])
    for d in (1, 2, 3, 4):  # empty stacks, refused by shape; at d = 1 the count d^2 - 1 is 0
        with pytest.raises(ValueError, match=r"need d\^2 - 1 states of shape \(d, d\), d >= 2"):
            OperatorBasis(np.zeros((0, d, d)))


def test_json_dimension_must_match_the_states():
    doc = json.loads(build_state_basis(2).to_json())
    doc["dimension"] = 3
    with pytest.raises(ValueError, match="states have dimension 2, 'dimension' says 3"):
        OperatorBasis.from_json(json.dumps(doc))


@pytest.mark.parametrize("field, value", [
    ("dimension", 2.9), ("dimension", "2"), ("dimension", True), ("dimension", 0),
    ("schema", 7), ("schema", "1"), ("schema", 1.0),
])
def test_json_refuses_a_non_integer_dimension_or_another_schema(field, value):
    # refused, not truncated: 2.9 once loaded as a qubit basis
    doc = {**json.loads(build_state_basis(2).to_json()), field: value}
    with pytest.raises(ValueError, match=f"basis {field}"):
        OperatorBasis.from_json(json.dumps(doc))


def test_json_without_a_schema_loads():
    doc = json.loads(build_state_basis(2).to_json())
    del doc["schema"]
    assert OperatorBasis.from_json(json.dumps(doc)).dim == 2
