import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapframe.basis import build_state_basis, decompose_generator
from swapframe.bounds import block_bound, convergence_sweep, single_step_bound
from swapframe.conservation import ExtensiveObservable, lift_extensive, commutator_norm
from swapframe import linalg, protocol
from swapframe.linalg import (
    check_density,
    dagger,
    exp_neg_i,
    partial_trace,
    principal_generator,
    swap_operator,
    tensor,
    trace_norm,
)
from swapframe.protocol import (
    ProtocolSpec,
    collision_round,
    partial_swap,
    run_protocol,
    step_channel,
    two_subsystem_step,
)
from swapframe.rand import haar_unitary, random_density, random_hermitian, rng_from_seed

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)

QUBIT_BASIS = build_state_basis(2)


def test_partial_swap_zero_angle():
    assert np.array_equal(partial_swap(0.0, 10, 2), np.eye(4))


def test_partial_swap_quarter_period():
    np.testing.assert_allclose(partial_swap(np.pi / 2, 1, 2), -1j * swap_operator(2), atol=1e-12)


def test_partial_swap_unitary_and_matches_expm():
    rng = rng_from_seed(50)
    for d in (2, 3):
        s = swap_operator(d)
        for _ in range(5):
            alpha = float(rng.uniform(-4, 4))
            v = partial_swap(alpha, 13, d)
            np.testing.assert_allclose(v @ dagger(v), np.eye(d * d), atol=1e-12)
            np.testing.assert_allclose(v, scipy.linalg.expm(-1j * (alpha / 13) * s), atol=1e-12)


def test_step_channel_zero_angle_passthrough():
    rho = random_density(2, rng_from_seed(51))
    out, frame = step_channel(rho, KET0, 0.0, 5)
    np.testing.assert_allclose(out, rho, atol=1e-14)
    np.testing.assert_allclose(frame, KET0, atol=1e-14)


def test_step_channel_fixed_point():
    # |00> is a swap eigenvector, so matching pure states are exactly preserved
    out, frame = step_channel(KET0, KET0, 1.7, 3)
    np.testing.assert_allclose(out, KET0, atol=1e-12)
    np.testing.assert_allclose(frame, KET0, atol=1e-12)


def test_step_channel_outputs_valid_densities():
    rng = rng_from_seed(52)
    for _ in range(20):
        out, frame = step_channel(
            random_density(2, rng), random_density(2, rng), float(rng.uniform(-2, 2)), 4
        )
        check_density(out)
        check_density(frame)


def test_step_channel_extensivity():
    rng = rng_from_seed(53)
    for _ in range(20):
        rho = random_density(2, rng)
        sigma = random_density(2, rng)
        a = random_hermitian(2, rng)
        out, frame = step_channel(rho, sigma, 1.2, 7)
        before = np.trace(a @ rho) + np.trace(a @ sigma)
        after = np.trace(a @ out) + np.trace(a @ frame)
        assert abs((after - before).real) <= 1e-10


def test_step_channel_error_within_bound():
    bound, valid = single_step_bound(1.0, 100)
    assert valid
    out, _ = step_channel(PLUS, KET0, 1.0, 100)
    u = exp_neg_i(KET0, 1.0 / 100)
    err = trace_norm(out - u @ PLUS @ dagger(u))
    assert 0 < err <= bound
    assert bound == pytest.approx(8 * (np.e - 2) * 1e-4)


def test_step_channel_dimension_mismatch():
    with pytest.raises(ValueError):
        step_channel(np.eye(2) / 2, np.eye(3) / 3, 1.0, 5)


@pytest.mark.parametrize("rho, sigma, n_rounds", [
    (PLUS, KET0, 0),
    (np.ones((2, 3)) / 2, KET0, 5),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), KET0, 5),
    (PLUS, np.array([[np.inf, 0.0], [0.0, 0.0]]), 5),
], ids=["zero_rounds", "non_square", "nan_entry", "inf_entry"])
def test_step_channel_rejects_bad_input(rho, sigma, n_rounds):
    with pytest.raises(ValueError):
        step_channel(rho, sigma, 1.0, n_rounds)


def _oracle_density(d, rng, pure):
    rank = 1 if pure else d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _oracle_collision(rho, sigma, alpha, n_rounds):
    """One collision on the joint space, sharing no code with swapframe."""
    d = rho.shape[0]
    # SWAP|i j> = |j i>, by permuting the row indices of the identity.
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    gate = scipy.linalg.expm(-1j * (alpha / n_rounds) * swap)
    joint = (gate @ np.kron(rho, sigma) @ gate.conj().T).reshape(d, d, d, d)
    return np.einsum("ijkj->ik", joint), np.einsum("ijil->jl", joint)


@pytest.mark.parametrize("d", range(2, 9))
@settings(max_examples=15)
@given(alpha=st.floats(-12.0, 12.0), n_rounds=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), pure=st.booleans())
@example(alpha=-1.0, n_rounds=7, seed=1, pure=False)
@example(alpha=-5.0, n_rounds=2, seed=2, pure=True)
@example(alpha=2.0, n_rounds=1, seed=3, pure=False)
def test_step_channel_matches_dense_oracle(d, alpha, n_rounds, seed, pure):
    rng = np.random.default_rng(seed)
    rho = _oracle_density(d, rng, pure)
    sigma = _oracle_density(d, rng, not pure)
    out, frame = step_channel(rho, sigma, alpha, n_rounds)
    ref_out, ref_frame = _oracle_collision(rho, sigma, alpha, n_rounds)
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(frame, ref_frame, rtol=0, atol=1e-12)
    for state in (out, frame):
        assert np.max(np.abs(state - state.conj().T)) <= 1e-12
        assert abs(np.trace(state) - 1) <= 1e-12
        assert np.linalg.eigvalsh((state + state.conj().T) / 2)[0] >= -1e-12


@settings(max_examples=30)
@given(d=st.integers(2, 6), size=st.integers(1, 5), n_rounds=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_step_channel_matches_per_matrix_calls_and_is_linear(d, size, n_rounds, seed):
    rng = np.random.default_rng(seed)
    rho = rng.standard_normal((size, d, d)) + 1j * rng.standard_normal((size, d, d))
    sigmas = np.array([_oracle_density(d, rng, False) for _ in range(size)])
    alphas = rng.uniform(-12.0, 12.0, size)
    # one shared particle state, and one per member
    for sigma in (sigmas[0], sigmas):
        out, frame = step_channel(rho, sigma, alphas, n_rounds)
        for i in range(size):
            own_out, own_frame = step_channel(rho[i], sigma if sigma.ndim == 2 else sigma[i],
                                              alphas[i], n_rounds)
            np.testing.assert_allclose(out[i], own_out, rtol=0, atol=1e-13)
            np.testing.assert_allclose(frame[i], own_frame, rtol=0, atol=1e-13)
    # the system output is linear in rho: expand rho[0] over the matrix units
    units = np.eye(d * d).reshape(d * d, d, d)
    unit_out, unit_frame = step_channel(units, sigmas[0], alphas[0], n_rounds)
    out, frame = step_channel(rho[0], sigmas[0], alphas[0], n_rounds)
    np.testing.assert_allclose(np.tensordot(rho[0].reshape(-1), unit_out, axes=1), out,
                               rtol=0, atol=1e-12)
    # and so is the particle output, the exact partial trace c²·tr(rho)·sigma + s²·rho + K
    np.testing.assert_allclose(np.tensordot(rho[0].reshape(-1), unit_frame, axes=1), frame,
                               rtol=0, atol=1e-12)


def test_frame_locality_full_space_equals_sequential():
    # two collisions computed on the full 3-subsystem space agree with
    # consuming one fresh particle at a time
    rng = rng_from_seed(54)
    rho = random_density(2, rng)
    sigma = random_density(2, rng)
    alpha, n = 0.9, 2

    seq = rho
    for _ in range(n):
        seq, _ = step_channel(seq, sigma, alpha, n)

    v = partial_swap(alpha, n, 2)
    v01 = tensor(v, I2)
    s12 = tensor(I2, swap_operator(2))
    v02 = s12 @ v01 @ s12
    joint = tensor(rho, sigma, sigma)
    joint = v01 @ joint @ dagger(v01)
    joint = v02 @ joint @ dagger(v02)
    full = partial_trace(joint, [2, 2, 2], 0)

    np.testing.assert_allclose(full, seq, atol=1e-12)


def test_collision_round_all_zero_coefficients():
    from swapframe.protocol import BatteryLedger

    ledger = BatteryLedger(("Z",), np.zeros((1, 3, 1), complex), np.zeros((1, 3, 1), complex))
    rho = random_density(2, rng_from_seed(55))
    out = collision_round(
        rho, QUBIT_BASIS, (0.0, 0.0, 0.0), 10,
        charges=(ExtensiveObservable(Z, "Z"),), ledger=ledger,
    )
    np.testing.assert_allclose(out, rho, atol=1e-14)
    assert np.all(np.abs(ledger.frame) <= 1e-14)
    assert ledger.cumulative()["Z"] == pytest.approx(0.0, abs=1e-13)


def test_collision_round_single_slot_reduces_to_step():
    rho = random_density(2, rng_from_seed(56))
    out = collision_round(rho, QUBIT_BASIS, (0.0, 1.1, 0.0), 50)
    expected, _ = step_channel(rho, QUBIT_BASIS.states[1], 1.1, 50)
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_collision_round_tracks_small_rotation():
    h = (np.pi / 2) * Z
    dec = decompose_generator(h, QUBIT_BASIS)
    n = 200
    bound, valid = block_bound(QUBIT_BASIS.size, QUBIT_BASIS.alpha_max, n)
    assert valid
    rho = PLUS
    out = collision_round(rho, QUBIT_BASIS, dec.alphas, n)
    u = exp_neg_i(h, 1.0 / n)
    assert trace_norm(out - u @ rho @ dagger(u)) <= bound


@settings(max_examples=40)
@given(d=st.integers(2, 5), n_charges=st.integers(0, 3), n_rounds=st.integers(1, 6),
       shape=st.sampled_from([(), (3,), (2, 2)]), seed=st.integers(0, 2**32 - 1))
@example(d=2, n_charges=2, n_rounds=1, shape=(2, 2), seed=5)
def test_collision_round_matches_per_slot_collisions(d, n_charges, n_rounds, shape, seed):
    rng = np.random.default_rng(seed)
    basis = build_state_basis(d)
    # zero, negative and beyond-quarter-period (|alpha/N| > pi/2) coefficients
    alphas = rng.uniform(-3.0, 3.0, basis.size) * n_rounds
    alphas[0], alphas[-1] = 0.0, -2.0 * n_rounds
    charges = tuple(ExtensiveObservable(random_hermitian(d, rng), f"A{j}")
                    for j in range(n_charges))
    rho = (rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d))) / d
    ledger = protocol.BatteryLedger(tuple(c.label for c in charges),
                                    *np.zeros((2,) + shape + (basis.size, n_charges), complex))
    out = collision_round(rho, basis, alphas, n_rounds, charges, ledger)
    _assert_matches_per_slot_collisions(out, ledger, rho, basis, alphas, n_rounds, charges)


def _assert_matches_per_slot_collisions(out, ledger, rho, basis, alphas, n_rounds, charges):
    ref, system, frame = rho, [], []
    for alpha, sigma in zip(alphas, basis.states):
        rho_next, frame_out = step_channel(ref, sigma, alpha, n_rounds)
        frame_out = frame_out - np.trace(ref, axis1=-2, axis2=-1)[..., None, None] * sigma
        system.append([np.trace(c.matrix @ (rho_next - ref), axis1=-2, axis2=-1) for c in charges])
        frame.append([np.trace(c.matrix @ frame_out, axis1=-2, axis2=-1) for c in charges])
        ref = rho_next
    shape = (2, basis.size, len(charges)) + rho.shape[:-2]
    expected = np.moveaxis(np.reshape(system + frame, shape), (1, 2), (-2, -1))
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ledger.system, expected[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(ledger.frame, expected[1], rtol=0, atol=1e-12)


def test_collision_round_bounds_each_kernel_call(monkeypatch):
    # at d=7 all 48 slots × 49 matrix units exceed one call's 2^16 output entries: the slots are
    # split over two calls, each within the budget, and the round is unchanged
    rng = rng_from_seed(77)
    basis = build_state_basis(7)
    alphas = rng.uniform(-3.0, 3.0, basis.size)
    charges = tuple(ExtensiveObservable(random_hermitian(7, rng), f"A{j}") for j in range(2))
    rho = np.stack([random_density(7, rng) for _ in range(3)])
    ledger = protocol.BatteryLedger(("A0", "A1"), *np.zeros((2, 3, basis.size, 2), complex))
    sizes, step = [], protocol.step_channel

    def recording(*args):
        outs = step(*args)
        sizes.append(outs[0].size)
        return outs

    monkeypatch.setattr(protocol, "step_channel", recording)
    out = collision_round(rho, basis, alphas, 4, charges, ledger)
    monkeypatch.undo()
    assert len(sizes) == 2 and max(sizes) <= 2**16
    _assert_matches_per_slot_collisions(out, ledger, rho, basis, alphas, 4, charges)


def test_collision_round_coefficient_count():
    with pytest.raises(ValueError):
        collision_round(PLUS, QUBIT_BASIS, (1.0,), 10)


def test_run_protocol_identity_target():
    spec = ProtocolSpec(
        target=I2, n_rounds=5, basis=QUBIT_BASIS, rho_s=PLUS,
        charges=(ExtensiveObservable(Z, "Z"),),
    )
    result = run_protocol(spec)
    assert result.total_error <= 1e-12
    assert result.ledger.cumulative()["Z"] == pytest.approx(0.0, abs=1e-12)


def test_run_protocol_errors_shrink_and_bounded():
    target = exp_neg_i(Z, np.pi / 4)
    errors = {}
    for n in (100, 200, 400):
        spec = ProtocolSpec(target=target, n_rounds=n, basis=QUBIT_BASIS, rho_s=PLUS)
        result = run_protocol(spec)
        assert result.bound_valid
        assert result.total_error <= result.total_bound
        errors[n] = result.total_error
    assert errors[200] < errors[100]
    assert errors[400] < errors[200]


def test_run_protocol_round_error_increments_bounded():
    # error growth per round never exceeds the one-round worst case
    rng = rng_from_seed(57)
    target = haar_unitary(2, rng)
    n = 150
    spec = ProtocolSpec(target=target, n_rounds=n, basis=QUBIT_BASIS,
                        rho_s=random_density(2, rng))
    result = run_protocol(spec)
    per_round = result.total_bound / n
    errs = (0.0,) + result.round_errors
    for prev, cur in zip(errs, errs[1:]):
        assert cur <= prev + per_round + 1e-14


def test_run_protocol_ledger_closure():
    rng = rng_from_seed(58)
    charges = tuple(
        ExtensiveObservable(random_hermitian(2, rng), f"A{i}") for i in range(3)
    )
    spec = ProtocolSpec(
        target=exp_neg_i(X, 0.6), n_rounds=60, basis=QUBIT_BASIS,
        rho_s=random_density(2, rng), charges=charges,
    )
    result = run_protocol(spec)
    assert result.ledger.frame.size == 60 * 3 * 3
    assert result.ledger.max_closure_residual() <= 1e-10


def test_ledger_total_matches_telescoped_system_change():
    # the frame's cumulative gain must equal the system's net loss, -tr(A(rho_N - rho_0))
    rng = rng_from_seed(62)
    charge = ExtensiveObservable(random_hermitian(3, rng), "A")
    spec = ProtocolSpec(
        target=haar_unitary(3, rng), n_rounds=400, basis=build_state_basis(3),
        rho_s=random_density(3, rng), charges=(charge,),
    )
    result = run_protocol(spec)
    telescoped = -np.trace(charge.matrix @ (result.final_state - spec.rho_s)).real
    assert abs(result.ledger.cumulative()["A"] - telescoped) <= 1e-12
    assert result.ledger.max_closure_residual() <= 1e-13


def _sequential_run(spec):
    """Reference run: one step_channel call per particle on d×d matrices."""
    n = spec.n_rounds
    h = principal_generator(spec.target)
    alphas = decompose_generator(h, spec.basis).alphas
    mats = [c.matrix for c in spec.charges]
    rho = spec.rho_s
    errors, system, frame = [], [], []
    for t in range(1, n + 1):
        for alpha, sigma in zip(alphas, spec.basis.states):
            rho_next, frame_out = step_channel(rho, sigma, alpha, n)
            system.append([np.trace(a @ (rho_next - rho)).real for a in mats])
            frame.append([np.trace(a @ (frame_out - sigma)).real for a in mats])
            rho = rho_next
        u = scipy.linalg.expm(-1j * (t / n) * h)
        ideal = u @ spec.rho_s @ u.conj().T
        errors.append(np.linalg.svd(rho - ideal, compute_uv=False).sum())
    shape = (n, spec.basis.size, len(mats))
    return rho, np.array(errors), np.reshape(system, shape), np.reshape(frame, shape)


@pytest.mark.parametrize("d, n", [(2, 800), (3, 400), (4, 60), (8, 50)])
def test_run_protocol_matches_sequential_collisions(d, n):
    rng = rng_from_seed(70 + d)
    charges = tuple(ExtensiveObservable(random_hermitian(d, rng), f"A{i}") for i in range(2))
    spec = ProtocolSpec(target=haar_unitary(d, rng), n_rounds=n, basis=build_state_basis(d),
                        rho_s=random_density(d, rng), charges=charges)
    result = run_protocol(spec)
    final, errors, system, frame = _sequential_run(spec)
    np.testing.assert_allclose(result.final_state, final, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.round_errors, errors, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.ledger.system, system, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.ledger.frame, frame, rtol=0, atol=1e-12)


def test_run_protocol_sweeps_collisions_once_per_round_count(monkeypatch):
    # one kernel call takes every matrix unit through every slot; the ledger comes from it too
    rng = rng_from_seed(64)
    basis = build_state_basis(3)
    charges = tuple(ExtensiveObservable(random_hermitian(3, rng), f"A{i}") for i in range(3))
    spec = ProtocolSpec(target=haar_unitary(3, rng), n_rounds=30, basis=basis,
                        rho_s=random_density(3, rng), charges=charges)
    calls = []
    step = protocol.step_channel

    def counting(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(protocol, "step_channel", counting)
    result = run_protocol(spec)
    assert len(calls) == 1
    assert result.ledger.frame.shape == (30, basis.size, 3)
    calls.clear()
    convergence_sweep(spec, [10, 20, 40])
    assert len(calls) == 3


def test_run_protocol_below_threshold_flagged():
    spec = ProtocolSpec(target=exp_neg_i(Z, np.pi / 4), n_rounds=10,
                        basis=QUBIT_BASIS, rho_s=PLUS)
    result = run_protocol(spec)
    assert not result.bound_valid
    assert result.n_min == pytest.approx(4 * 3 * QUBIT_BASIS.alpha_max)


@pytest.mark.parametrize("d", [2, 3])
def test_bound_valid_iff_rounds_clear_n_min(d):
    rng = rng_from_seed(80 + d)
    basis = build_state_basis(d)
    threshold = 4 * basis.size * basis.alpha_max
    rounds = (int(threshold), int(threshold) + 1, *rng.integers(1, 2 * threshold, size=4))
    seen = set()
    for n in rounds:
        result = run_protocol(ProtocolSpec(target=haar_unitary(d, rng), n_rounds=int(n),
                                           basis=basis, rho_s=random_density(d, rng)))
        assert result.bound_valid == (n >= result.n_min)
        seen.add(result.bound_valid)
    assert seen == {True, False}


def test_run_protocol_deterministic():
    spec = ProtocolSpec(
        target=exp_neg_i(Y, 0.3), n_rounds=40, basis=QUBIT_BASIS, rho_s=PLUS,
        charges=(ExtensiveObservable(X, "X"),),
    )
    a = run_protocol(spec)
    b = run_protocol(spec)
    assert np.array_equal(a.final_state, b.final_state)
    assert a.round_errors == b.round_errors
    assert np.array_equal(a.ledger.system, b.ledger.system)
    assert np.array_equal(a.ledger.frame, b.ledger.frame)


def test_run_protocol_makes_no_hermitian_eig_call(monkeypatch):
    # the principal generator is exactly Hermitian, so the run diagonalizes it unchecked
    spec = ProtocolSpec(target=haar_unitary(3, rng_from_seed(61)), n_rounds=20,
                        basis=build_state_basis(3), rho_s=random_density(3, rng_from_seed(62)),
                        charges=(ExtensiveObservable(random_hermitian(3, rng_from_seed(63))),))
    calls = []
    hermitian_eig = linalg.hermitian_eig

    def counting(h):
        calls.append(h)
        return hermitian_eig(h)

    for name, module in list(sys.modules.items()):
        if name.startswith("swapframe") and getattr(module, "hermitian_eig", None) is hermitian_eig:
            monkeypatch.setattr(module, "hermitian_eig", counting)
    run_protocol(spec)
    assert calls == []


def test_protocol_spec_validation():
    with pytest.raises(ValueError):
        ProtocolSpec(target=I2, n_rounds=0, basis=QUBIT_BASIS, rho_s=PLUS)
    with pytest.raises(ValueError):
        ProtocolSpec(target=np.eye(3), n_rounds=5, basis=QUBIT_BASIS, rho_s=PLUS)
    with pytest.raises(ValueError):
        ProtocolSpec(target=I2, n_rounds=5, basis=QUBIT_BASIS, rho_s=PLUS,
                     charges=(ExtensiveObservable(np.eye(3), "bad3"),))
    with pytest.raises(ValueError):
        ProtocolSpec(target=I2, n_rounds=5, basis=QUBIT_BASIS, rho_s=PLUS,
                     charges=(ExtensiveObservable(X, "A"), ExtensiveObservable(Z, "A")))


def test_two_subsystem_step_zero_angle():
    rho = random_density(4, rng_from_seed(59))
    np.testing.assert_allclose(two_subsystem_step(rho, KET0, KET0, 0.0, 10), rho, atol=1e-14)


def _double_swap_permutation():
    # |a b c d> -> |c d a b>: simultaneous exchange of both subsystem pairs
    p = np.zeros((16, 16))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    src = ((a * 2 + b) * 2 + c) * 2 + d
                    dst = ((c * 2 + d) * 2 + a) * 2 + b
                    p[dst, src] = 1.0
    return p


def test_two_subsystem_gate_matches_expm_of_double_swap():
    p = _double_swap_permutation()
    alpha, n = 1.0, 100
    gate = partial_swap(alpha, n, 4)
    np.testing.assert_allclose(gate, scipy.linalg.expm(-1j * (alpha / n) * p), atol=1e-12)
    np.testing.assert_allclose(p @ p, np.eye(16), atol=0)


def test_two_subsystem_step_tracks_product_generator():
    rng = rng_from_seed(60)
    sigma = (I2 + Z) / 2
    gen = tensor(sigma, sigma)
    alpha, n = 1.0, 100
    bound, valid = single_step_bound(alpha, n)
    assert valid
    u = exp_neg_i(gen, alpha / n)
    for _ in range(10):
        rho = random_density(4, rng)
        out = two_subsystem_step(rho, sigma, sigma, alpha, n)
        check_density(out)
        assert trace_norm(out - u @ rho @ dagger(u)) <= bound


def test_two_subsystem_gate_conserves_lifted_charges():
    rng = rng_from_seed(61)
    gate = partial_swap(0.8, 40, 4)
    for _ in range(10):
        a = random_hermitian(2, rng)
        assert commutator_norm(gate, lift_extensive(a, 4)) <= 1e-12


def test_two_subsystem_step_dimension_mismatch():
    with pytest.raises(ValueError):
        two_subsystem_step(np.eye(4) / 4, KET0, np.eye(3) / 3, 1.0, 10)
