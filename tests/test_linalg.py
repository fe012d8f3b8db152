import itertools
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import swap
from swapframe import linalg
from swapframe.linalg import (
    check_density,
    check_unitary,
    dagger,
    exp_neg_i,
    is_hermitian,
    operator_norm,
    partial_trace,
    principal_generator,
    tensor,
    trace_norm,
    von_neumann_entropy,
)
from swapframe.rand import haar_unitary, random_density, random_hermitian, rng_from_seed

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_tensor_identities():
    np.testing.assert_array_equal(tensor(I2, I2), np.eye(4))
    np.testing.assert_array_equal(
        tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.diag([0.0, 1.0, 0.0, 0.0])
    )
    # one factor: a complex copy, whether or not the factor was complex already
    for a in (np.diag([1.0, -2.0]), np.array([[0.5, 1j], [-1j, 0.5]])):
        single = tensor(a)
        assert single.dtype == complex and not np.shares_memory(single, a)
        np.testing.assert_array_equal(single, a)
    with pytest.raises(ValueError, match="non-finite"):
        tensor(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_tensor_index_formula():
    # entry (i*dB+k, j*dB+l) must be A_ij * B_kl
    rng = rng_from_seed(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    t = tensor(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert abs(t[i * 2 + k, j * 2 + l] - a[i, j] * b[k, l]) < 1e-14


def test_partial_trace_product_state():
    rng = rng_from_seed(1)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(
            partial_trace(tensor(a, b), [2, 2], 0), a * np.trace(b), atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace(tensor(a, b), [2, 2], 1), b * np.trace(a), atol=1e-12
        )


@pytest.mark.parametrize("d", [2, 3])
def test_swap_partial_trace_lemmas(d):
    # tracing the second factor of SWAP·(A⊗B) gives BA; of (A⊗B)·SWAP gives AB
    rng = rng_from_seed(d)
    s = swap(d)
    for _ in range(100):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        np.testing.assert_allclose(partial_trace(s @ tensor(a, b), [d, d], 0), b @ a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(tensor(a, b) @ s, [d, d], 0), a @ b, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = rng_from_seed(2)
    op = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for keep in ([0], [1], [2], [0, 2], [0, 1, 2]):
        reduced = partial_trace(op, [2, 3, 2], keep)
        np.testing.assert_allclose(np.trace(reduced), np.trace(op), atol=1e-12)


def test_partial_trace_multi_subsystem_order():
    rng = rng_from_seed(3)
    mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (2, 3, 2)]
    joint = tensor(*mats)
    kept = partial_trace(joint, [2, 3, 2], [0, 2])
    np.testing.assert_allclose(kept, tensor(mats[0], mats[2]) * np.trace(mats[1]), atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2, 3], 0)
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2, 2], 5)


def _oracle_partial_trace(op, dims, keep):
    """Sum of op[(k, t), (k', t)] over the traced indices t, entry by entry."""
    index = list(itertools.product(*(range(d) for d in dims)))  # kron order
    kept = [i for i in range(len(dims)) if i in keep]
    size = 1
    for i in kept:
        size *= dims[i]

    def position(idx):
        pos = 0
        for i in kept:
            pos = pos * dims[i] + idx[i]
        return pos

    out = np.zeros((size, size), dtype=complex)
    for r, row in enumerate(index):
        for c, col in enumerate(index):
            if all(row[i] == col[i] for i in range(len(dims)) if i not in keep):
                out[position(row), position(col)] += op[r, c]
    return out


# 1-4 subsystems of dimension 1-4, joint dimension <= 64, with any keep set
DIMS_AND_KEEP = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
    lambda dims: np.prod(dims) <= 64).flatmap(
    lambda dims: st.tuples(st.just(dims), st.sets(st.integers(0, len(dims) - 1))))


@settings(max_examples=60)
@given(case=DIMS_AND_KEEP, count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(case=([2, 3, 2], set()), count=2, seed=0)
@example(case=([2, 3, 2], {0, 1, 2}), count=2, seed=1)
@example(case=([4, 1, 4], {2, 0}), count=3, seed=2)
def test_partial_trace_matches_index_oracle(case, count, seed):
    dims, keep = case
    rng = np.random.default_rng(seed)
    shape = (count, int(np.prod(dims)), int(np.prod(dims)))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    reduced = partial_trace(stack, dims, keep)
    size = int(np.prod([dims[i] for i in keep]))
    assert reduced.shape == (count, size, size)
    for op, got in zip(stack, reduced):
        np.testing.assert_allclose(got, _oracle_partial_trace(op, dims, keep), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, partial_trace(op, dims, keep), rtol=0, atol=1e-12)


def test_partial_trace_rejects_a_non_finite_stack_member():
    stack = np.array([np.eye(4), np.eye(4), np.eye(4)]) / 4
    for bad in (np.nan, np.inf):
        stack[1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            partial_trace(stack, [2, 2], 0)


def test_swap_operator_small():
    np.testing.assert_array_equal(swap(1), [[1.0]])
    s = swap(2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 1.0  # |00>, |11> fixed
    expected[1, 2] = expected[2, 1] = 1.0  # |01> <-> |10>
    np.testing.assert_array_equal(s.real, expected)


def test_swap_conjugation_and_involution():
    rng = rng_from_seed(4)
    for d in (2, 3):
        s = swap(d)
        np.testing.assert_array_equal(s @ s, np.eye(d * d))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        np.testing.assert_allclose(s @ tensor(a, b) @ s, tensor(b, a), atol=1e-12)


def test_exp_neg_i_basic():
    # eigh sorts the eigenvalues; the phases must still land on their own eigenvectors
    u = exp_neg_i(np.diag([3.0, 1.0, 2.0]), 0.5)
    np.testing.assert_allclose(u, np.diag(np.exp(-0.5j * np.array([3.0, 1.0, 2.0]))), atol=1e-12)
    np.testing.assert_allclose(exp_neg_i(X, np.pi), -I2, atol=1e-12)


def test_exp_neg_i_roundtrip():
    rng = rng_from_seed(5)
    h = random_hermitian(4, rng)
    u = exp_neg_i(h, 0.5)
    np.testing.assert_allclose(u @ dagger(u), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(u @ u, exp_neg_i(h, 1.0), atol=1e-12)
    np.testing.assert_allclose(u @ exp_neg_i(h, -0.5), np.eye(4), atol=1e-12)


def test_exp_neg_i_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        exp_neg_i(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_exp_neg_i_zero_scale_exact_identity():
    h = random_hermitian(3, rng_from_seed(6))
    assert np.array_equal(exp_neg_i(h, 0.0), np.eye(3))
    with pytest.raises(ValueError, match="Hermitian"):  # checked before the shortcut
        exp_neg_i(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)


# float(True) is 1.0: a bool was once read as the scale 1; a one-item list was once read as
# its item, and a longer one raised numpy's ambiguous truth value
@pytest.mark.parametrize("scale, match", [
    (np.nan, "scale must be finite"), (np.inf, "scale must be finite"),
    (-np.inf, "scale must be finite"), (True, "scale must be finite"),
    (np.True_, "scale must be finite"), ([0.5], "scale must be one number, got"),
    ([0.5, 0.5], "scale must be one number, got"), (np.array([0.5]), "scale must be one number"),
], ids=["nan", "inf", "-inf", "bool", "numpy_bool", "one_item_list", "list", "array"])
def test_exp_neg_i_rejects_a_non_finite_scale(scale, match):
    with pytest.raises(ValueError, match=match):
        exp_neg_i(Z, scale)


def test_exp_neg_i_swap_involution():
    # SWAP^2 = 1 gives exp(-i t SWAP) = cos t - i sin t SWAP
    s = swap(2)
    np.testing.assert_allclose(exp_neg_i(s, np.pi / 2), -1j * s, atol=1e-12)


def test_exp_neg_i_diagonal():
    u = exp_neg_i(Z, np.pi / 4)
    np.testing.assert_allclose(u, np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]), atol=1e-12)


def test_exp_neg_i_matches_pade_expm():
    # independent route: scipy's expm uses Pade approximation, not eigh
    rng = rng_from_seed(7)
    for _ in range(10):
        h = random_hermitian(3, rng)
        np.testing.assert_allclose(exp_neg_i(h, 0.7), scipy.linalg.expm(-0.7j * h), atol=1e-12)


def test_principal_generator_identity():
    np.testing.assert_allclose(principal_generator(np.eye(3)), np.zeros((3, 3)), atol=1e-12)


def test_principal_generator_scalar_phases():
    h = principal_generator(np.diag([1.0, np.exp(-1j * np.pi / 2)]))
    np.testing.assert_allclose(h, np.diag([0.0, np.pi / 2]), atol=1e-12)


def test_principal_generator_branch_boundary():
    # eigenphase -pi maps to +pi: half-open interval (-pi, pi]
    h = principal_generator(-np.eye(2))
    np.testing.assert_allclose(h, np.pi * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_principal_generator_roundtrip(d):
    rng = rng_from_seed(10 + d)
    for _ in range(100):
        u = haar_unitary(d, rng)
        h = principal_generator(u)
        w = np.linalg.eigvalsh(h)
        assert np.all(w > -np.pi) and np.all(w <= np.pi + 1e-12)
        assert operator_norm(exp_neg_i(h, 1.0) - u) < 1e-9


def _unitary_with_phases(rng, phases):
    """exp(-i·V·diag(phases)·V†) for a random unitary V."""
    d = len(phases)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    v = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return (v * np.exp(-1j * phases)) @ v.conj().T


@settings(max_examples=60)
@given(d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1), offset=st.floats(-1e-13, 1e-13),
       at_cut=st.integers(1, 5), clusters=st.integers(0, 4), jitter=st.floats(0.0, 1e-13))
@example(d=2, seed=0, offset=0.0, at_cut=2, clusters=0, jitter=0.0)
@example(d=4, seed=1, offset=-1e-13, at_cut=1, clusters=1, jitter=0.0)
@example(d=3, seed=2, offset=1e-13, at_cut=2, clusters=1, jitter=0.0)
@example(d=16, seed=3, offset=0.0, at_cut=5, clusters=3, jitter=1e-13)
@example(d=12, seed=4, offset=1e-13, at_cut=4, clusters=2, jitter=1e-15)
def test_principal_generator_roundtrip_at_branch_cut_and_degenerate(
        d, seed, offset, at_cut, clusters, jitter):
    rng = np.random.default_rng(seed)
    # U = exp(-iH) with some eigenphases of H within 2e-13 of -pi, the rest random
    # (clusters = 0) or drawn from that many values, each spread by up to jitter
    phases = rng.uniform(-np.pi, np.pi, d)
    phases[:at_cut] = -np.pi + offset
    if clusters:
        phases[at_cut:] = rng.choice(rng.uniform(-np.pi, np.pi, clusters), d)[at_cut:]
    u = _unitary_with_phases(rng, phases + rng.uniform(-jitter, jitter, d))
    h = principal_generator(u)
    w = np.linalg.eigvalsh(h)
    assert w[0] > -np.pi and w[-1] <= np.pi + 1e-12
    assert np.max(np.abs(exp_neg_i(h) - u)) <= 1e-12


@pytest.mark.parametrize("gap", [1e-15, 1e-14, 1e-13])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_principal_generator_near_degenerate_pair_split_by_the_branch_rule(d, gap):
    # two eigenphases of U a gap apart on either side of -pi + 1e-12, where the
    # branch rule maps one to about +pi and keeps the other near -pi
    rng = rng_from_seed(40 + d)
    for _ in range(20):
        phases = rng.uniform(-np.pi, np.pi, d)
        phases[:2] = -np.pi + 1e-12 + np.array([-gap, gap]) / 2
        u = _unitary_with_phases(rng, phases)
        assert np.max(np.abs(exp_neg_i(principal_generator(u)) - u)) <= 1e-12


def test_norms_small_cases():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)
    assert operator_norm(tensor(Z, I2) + tensor(I2, Z)) == pytest.approx(2.0)  # spectrum {-2,0,0,2}


def test_norms_on_non_hermitian():
    # upper-shift matrix has singular value 1
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert trace_norm(n) == pytest.approx(1.0)
    assert operator_norm(n) == pytest.approx(1.0)


def test_trace_norm_of_density_and_distance_range():
    rng = rng_from_seed(8)
    for _ in range(50):
        rho = random_density(3, rng)
        sig = random_density(3, rng)
        assert trace_norm(rho) == pytest.approx(1.0, abs=1e-10)
        assert 0.0 <= trace_norm(rho - sig) <= 2.0 + 1e-12


def test_trace_norm_of_a_stack_matches_per_matrix_calls():
    rng = rng_from_seed(14)
    shift = np.diag(np.ones(2), 1) + np.eye(3)  # non-Hermitian: |eigenvalues| sum to 3
    stack = np.array([random_density(3, rng) - random_density(3, rng) for _ in range(4)]
                     + [random_hermitian(3, rng), shift])
    norms = trace_norm(stack)
    assert norms.shape == (6,)
    for op, norm in zip(stack, norms):
        assert norm == pytest.approx(trace_norm(op), abs=1e-14)
    # one non-Hermitian member sends every member to the singular-value branch
    assert norms[-1] == pytest.approx(np.linalg.svd(shift, compute_uv=False).sum(), abs=1e-12)
    assert norms[-1] > 3.4  # sum of |eigenvalues| would give 3
    np.testing.assert_allclose(trace_norm(stack.reshape(2, 3, 3, 3)), norms.reshape(2, 3),
                               rtol=0, atol=0)
    stack[2, 0, 1] = np.nan
    with pytest.raises(ValueError):
        trace_norm(stack)


@pytest.mark.parametrize("hermitian", [True, False], ids=["all_hermitian", "all_non_hermitian"])
def test_trace_norm_of_a_uniform_stack_matches_per_matrix_calls(monkeypatch, hermitian):
    rng = rng_from_seed(15)
    make = random_hermitian if hermitian else (lambda d, r: haar_unitary(d, r) @ np.diag([3, 1, 0]))
    stack = np.array([make(3, rng) for _ in range(6)])
    expected = [np.abs(np.linalg.eigvalsh(op)).sum() if hermitian
                else np.linalg.svd(op, compute_uv=False).sum() for op in stack]
    per_matrix = [trace_norm(op) for op in stack]
    np.testing.assert_allclose(per_matrix, expected, rtol=0, atol=1e-13)
    if hermitian:  # the stack takes the one-eigvalsh path: no singular-value call at all
        monkeypatch.setattr(np.linalg, "svd", None)
    norms = trace_norm(stack)
    np.testing.assert_allclose(norms, per_matrix, rtol=0, atol=1e-14)
    np.testing.assert_allclose(trace_norm(stack.reshape(2, 3, 3, 3)), norms.reshape(2, 3),
                               rtol=0, atol=0)


def test_von_neumann_entropy():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(I2 / 2) == pytest.approx(np.log(2.0))
    expected = -0.25 * np.log(0.25) - 0.75 * np.log(0.75)
    assert von_neumann_entropy(np.diag([0.25, 0.75])) == pytest.approx(expected)
    rng = rng_from_seed(9)
    for _ in range(20):
        s = von_neumann_entropy(random_density(3, rng))
        assert -1e-12 <= s <= np.log(3.0) + 1e-12


def test_check_density_rejects_bad_states():
    with pytest.raises(ValueError):
        check_density(np.diag([0.5, 0.6]))  # trace != 1
    with pytest.raises(ValueError):
        check_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        check_density(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian


def test_check_unitary():
    check_unitary(haar_unitary(3, rng_from_seed(12)))
    with pytest.raises(ValueError):
        check_unitary(np.diag([1.0, 2.0]))


@pytest.mark.parametrize("defect, passes", [(0.5e-10, True), (2e-10, False)])
def test_tolerance_constants(defect, passes):
    # HERMITIAN_ATOL = UNITARY_ATOL = 1e-10: entrywise |A - A†| and ||U·U† - 1||
    rho = np.array([[0.5, 0.25 + defect], [0.25, 0.5]])
    u = np.diag([np.sqrt(1.0 + defect), 1.0])
    assert is_hermitian(rho) == passes
    for check, arg in ((check_density, rho), (exp_neg_i, rho), (check_unitary, u)):
        if passes:
            check(arg)
        else:
            with pytest.raises(ValueError):
                check(arg)


_RNG = rng_from_seed(14)
_H = random_hermitian(3, _RNG)
_U = haar_unitary(3, _RNG)
_RHO = random_density(2, _RNG)
_JOINT = tensor(_RHO, _RHO)


@pytest.mark.parametrize("call", [
    lambda: is_hermitian(_H),
    lambda: check_unitary(_U),
    lambda: check_density(_RHO),
    lambda: exp_neg_i(_H, 0.0),
    lambda: exp_neg_i(_H, 0.3),
    lambda: principal_generator(_U),
    lambda: trace_norm(_H),
    lambda: operator_norm(_H),
    lambda: von_neumann_entropy(_RHO),
    lambda: partial_trace(_JOINT, [2, 2], 0),
], ids=["is_hermitian", "check_unitary", "check_density", "exp_neg_i_0",
        "exp_neg_i_0.3", "principal_generator", "trace_norm", "operator_norm",
        "von_neumann_entropy", "partial_trace"])
def test_public_function_checks_its_matrix_once(monkeypatch, call):
    checked = []
    as_matrix = linalg._as_matrix

    def counting(a, stack=False):
        checked.append(a)
        return as_matrix(a, stack)

    monkeypatch.setattr(linalg, "_as_matrix", counting)
    call()
    assert len(checked) == 1


EMPTY = np.zeros((0, 0), dtype=complex)


# numpy's own "zero-size array to reduction operation maximum" error once reached the caller
def test_check_density_refuses_an_empty_matrix():
    with pytest.raises(ValueError, match=r"^expected a non-empty square matrix, got shape \(0, 0\)$"):
        check_density(EMPTY)


def test_von_neumann_entropy_refuses_an_empty_matrix():
    with pytest.raises(ValueError, match=r"^expected a non-empty square matrix, got shape \(0, 0\)$"):
        von_neumann_entropy(EMPTY)


def test_trace_norm_refuses_an_empty_matrix_but_takes_an_empty_stack():
    with pytest.raises(ValueError, match=r"^expected a non-empty square matrix, got shape \(0, 0\)$"):
        trace_norm(EMPTY)
    assert trace_norm(np.zeros((0, 2, 2), dtype=complex)).shape == (0,)


def test_operator_norm_refuses_an_empty_matrix():
    with pytest.raises(ValueError, match=r"^expected a non-empty square matrix, got shape \(0, 0\)$"):
        operator_norm(EMPTY)


def test_partial_trace_reads_dims_and_keep_as_integers():
    # a float or bool index or dimension was once truncated to a valid one and used silently
    joint = np.eye(4, dtype=complex) / 4
    for dims, keep in (([2, 2], 1.5), ([2, 2], [0.0]), ([2, 2], True), ([2.9, 2], 0), ([2, 2.0], 0),
                       ([2, 2], np.array(True)), ([2, 2], np.array(1.0))):
        with pytest.raises(ValueError, match="and an integer"):
            partial_trace(joint, dims, keep)
    # a 0-d array is one index: np.array(1) raised a TypeError (iteration over a 0-d array)
    for keep in (np.int64(1), np.array(1)):
        reduced = partial_trace(joint, np.array([2, 2]), keep)
        np.testing.assert_allclose(reduced, I2 / 2, rtol=0, atol=1e-15)


def test_stacked_entropy_matches_each_member_without_a_warning():
    # a zero eigenvalue would warn in 0·ln 0, and pytest turns that warning into an error
    pure = np.diag([1.0, 0.0]).astype(complex)
    stack = np.array([pure, I2 / 2, random_density(2, rng_from_seed(15))])
    entropies = linalg._entropy(stack)
    assert entropies.shape == (3,)
    for rho, entropy in zip(stack, entropies):
        assert abs(entropy - von_neumann_entropy(rho)) <= 1e-15
    assert von_neumann_entropy(pure) == 0.0
    with pytest.raises(ValueError, match="expected a matrix"):
        von_neumann_entropy(stack)  # the public entropy takes one matrix


@pytest.mark.parametrize("bad, message", [
    (np.array([[0.5, 0.5], [0.0, 0.5]]), "density operator is not Hermitian"),
    (np.diag([0.7, 0.5]), "density operator has trace 1.2+0j, expected 1"),
    (np.diag([1.5, -0.5]), "density operator has negative eigenvalue -5.000e-01"),
], ids=["non-hermitian", "trace", "negative"])
def test_stacked_density_checks_reach_every_member(bad, message):
    stack = np.array([I2 / 2, bad.astype(complex)])
    for check in (lambda: linalg._entropy(stack), lambda: check_density(bad)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check()
