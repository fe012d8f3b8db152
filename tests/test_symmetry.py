"""Symmetries of the construction, checked with no reference values.

Each relation holds for every frame and every representation of a run, so it needs no oracle:
- unitary covariance: the frame's states, the target, the state and the charges conjugated by
  one V give the final state conjugated by V, the same errors and the same ledger;
- complex conjugation of every input gives the conjugate final state, the same errors and the
  same ledger;
- the ledger is linear in the charge, and the identity charge books nothing;
- a global phase that carries no eigenphase of the target across the branch cut at -pi
  changes nothing: it only shifts the generator by a multiple of the identity;
- ``thermal_state`` and ``work_accounting`` are covariant too.

Every tolerance is the fixed multiple K = 64 of N·d·eps64, the rounding model of the drift
test, times the size of the compared quantity. K is not fitted to today's bits: it also covers
the rounding of the turned inputs, which does not shrink with N, and which read at most
12.7·N·d·eps64 at N = 1 over 150 seeded covariance runs (0.6·N·d·eps64 at N = 60).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapframe.basis import OperatorBasis, build_state_basis
from swapframe.conservation import ExtensiveObservable
from swapframe.linalg import dagger, tensor
from swapframe.protocol import ProtocolSpec, run_protocol
from swapframe.rand import haar_unitary, random_density, random_hermitian, rng_from_seed
from swapframe.thermo import ThermalSpec, thermal_state, work_accounting

EPS = np.finfo(float).eps
K = 64
BASES = {d: build_state_basis(d) for d in (2, 3, 4)}
RUNS = dict(d=st.integers(2, 4), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))


def _tol(n, d, size=1.0):
    return K * n * d * EPS * size


def _run(states, target, rho, charges, n):
    spec = ProtocolSpec(target=target, n_rounds=n, basis=OperatorBasis(states), rho_s=rho,
                        charges=tuple(ExtensiveObservable(a, f"A{j}") for j, a in enumerate(charges)))
    return run_protocol(spec)


def _norms(charges):
    return np.array([np.linalg.norm(a, 2) for a in charges])


def _assert_same_run(got, want, want_final, n, d, norms):
    tol = _tol(n, d)
    assert np.abs(got.final_state - want_final).max() <= tol
    assert abs(got.total_error - want.total_error) <= tol
    assert np.abs(np.subtract(got.round_errors, want.round_errors)).max() <= tol
    for side in ("system", "frame"):
        assert (np.abs(getattr(got.ledger, side) - getattr(want.ledger, side)) <= tol * norms).all()


def _inputs(d, seed):
    rng = rng_from_seed(seed)
    target, rho = haar_unitary(d, rng), random_density(d, rng)
    return rng, target, rho, [random_hermitian(d, rng) for _ in range(2)]


@settings(max_examples=8)
@given(**RUNS)
def test_a_run_is_covariant_under_one_unitary(d, n, seed):
    rng, target, rho, charges = _inputs(d, seed)
    v = haar_unitary(d, rng)

    def turn(m):  # V·m·V†, of each matrix of a stack too
        return v @ m @ dagger(v)

    want = _run(BASES[d].states, target, rho, charges, n)
    got = _run(turn(BASES[d].states), turn(target), turn(rho), [turn(a) for a in charges], n)
    _assert_same_run(got, want, turn(want.final_state), n, d, _norms(charges))


@settings(max_examples=8)
@given(**RUNS)
def test_conjugating_every_input_conjugates_the_run(d, n, seed):
    _, target, rho, charges = _inputs(d, seed)
    want = _run(BASES[d].states, target, rho, charges, n)
    got = _run(BASES[d].states.conj(), target.conj(), rho.conj(), [a.conj() for a in charges], n)
    _assert_same_run(got, want, want.final_state.conj(), n, d, _norms(charges))


@settings(max_examples=8)
@given(**RUNS, a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_the_ledger_is_linear_in_the_charge_and_books_nothing_for_the_identity(d, n, seed, a, b):
    _, target, rho, (x, y) = _inputs(d, seed)
    run = _run(BASES[d].states, target, rho, [x, y, a * x + b * y, np.eye(d)], n)
    size = abs(a) * np.linalg.norm(x, 2) + abs(b) * np.linalg.norm(y, 2)
    for side in (run.ledger.system, run.ledger.frame):
        assert np.abs(side[..., 2] - (a * side[..., 0] + b * side[..., 1])).max() <= _tol(n, d, size)
        assert np.abs(side[..., 3]).max() <= _tol(n, d)


def _eigenphases(u):
    """Eigenphases theta of U = exp(-iH), ascending, in [-pi, pi]."""
    return np.sort(-np.angle(np.linalg.eigvals(u)))


@settings(max_examples=8)
@given(**RUNS, where=st.floats(0.05, 0.95))
def test_a_global_phase_inside_the_branch_cut_changes_nothing(d, n, seed, where):
    # e^{i·phi}·U moves each eigenphase theta to theta - phi; no theta - phi leaves (-pi, pi] for
    # phi in [theta_max - pi, theta_min + pi), drawn here with a margin of 5% at each end
    _, target, rho, charges = _inputs(d, seed)
    theta = _eigenphases(target)
    phi = theta[-1] - np.pi + where * (theta[0] - theta[-1] + 2 * np.pi)
    want = _run(BASES[d].states, target, rho, charges, n)
    got = _run(BASES[d].states, np.exp(1j * phi) * target, rho, charges, n)
    _assert_same_run(got, want, want.final_state, n, d, _norms(charges))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the principal generator keeps its branch cut at -pi, so a phase that carries an eigenphase "
    "across it changes the generator by 2·pi on that eigenprojector, and the run with it, at "
    "every d (ROADMAP item 26)"))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_global_phase_across_the_branch_cut_changes_nothing(d):
    _, target, rho, charges = _inputs(d, 11)
    phi = _eigenphases(target)[0] + np.pi + 0.2  # the smallest eigenphase crosses -pi
    want = _run(BASES[d].states, target, rho, charges, 40)
    got = _run(BASES[d].states, np.exp(1j * phi) * target, rho, charges, 40)
    _assert_same_run(got, want, want.final_state, 40, d, _norms(charges))


def _thermal_inputs(d, seed):
    rng = rng_from_seed(seed)
    charges, betas = [random_hermitian(d, rng) for _ in range(2)], rng.uniform(-1, 1, 2)
    return rng, charges, betas, 1 + np.abs(betas) @ _norms(charges)  # the size of sum beta_i A_i


def _thermal_spec(charges, betas):
    return ThermalSpec([ExtensiveObservable(a, f"A{j}") for j, a in enumerate(charges)], betas)


@settings(max_examples=6)
@given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_the_thermal_state_is_covariant(d, seed):
    rng, charges, betas, size = _thermal_inputs(d, seed)
    v = haar_unitary(d, rng)
    tau, ln_z = thermal_state(_thermal_spec(charges, betas))
    got, got_ln_z = thermal_state(_thermal_spec([v @ a @ dagger(v) for a in charges], betas))
    assert np.abs(got - v @ tau @ dagger(v)).max() <= _tol(1, d, size)
    assert abs(got_ln_z - ln_z) <= _tol(1, d, size)


@settings(max_examples=4)
@given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_work_accounting_is_covariant_under_local_unitaries(d, seed):
    # a system slot and two bath slots, each turned by the same V, with the charges turned by V
    rng, charges, betas, size = _thermal_inputs(d, seed)
    v, dims = haar_unitary(d, rng), [d, d, d]
    spec = _thermal_spec(charges, betas)
    tau = thermal_state(spec)[0]
    before = tensor(random_density(d, rng), tau, tau)
    w = haar_unitary(d**3, rng)
    after, turn = w @ before @ dagger(w), tensor(v, v, v)
    want = work_accounting(before, after, dims, (1, 2), spec, system=(0,))
    got = work_accounting(turn @ before @ dagger(turn), turn @ after @ dagger(turn), dims, (1, 2),
                          _thermal_spec([v @ a @ dagger(v) for a in charges], betas), system=(0,))
    tol = _tol(1, d**3, 3 * size)  # three slots' worth of each charge
    assert all(abs(got.works[k] - want.works[k]) <= tol for k in want.works)
    for field in ("delta_free_entropy", "margin_bath_only", "margin_with_system"):
        assert abs(getattr(got, field) - getattr(want, field)) <= tol
