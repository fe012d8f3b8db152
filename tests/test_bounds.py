import json
import warnings

import numpy as np
import pytest

from swapframe.basis import build_state_basis
from swapframe.bounds import (
    block_bound,
    convergence_sweep,
    fit_loglog_slope,
    single_step_bound,
    total_bound,
)
import swapframe.protocol
from swapframe.conservation import ExtensiveObservable
from swapframe.linalg import exp_neg_i
from swapframe.protocol import ProtocolSpec, run_protocol
from swapframe.rand import haar_unitary, random_density, random_hermitian, rng_from_seed

Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
QUBIT_BASIS = build_state_basis(2)


def test_single_step_bound_values():
    assert single_step_bound(0.0, 10) == (0.0, True)
    value, valid = single_step_bound(1.0, 100)
    assert valid
    assert value == pytest.approx(5.746254627672361e-04, rel=1e-12)


def test_single_step_bound_threshold():
    _, valid = single_step_bound(1.0, 1)
    assert not valid
    _, valid = single_step_bound(1.0, 2)
    assert valid
    # sign of the coefficient cannot rescue validity
    _, valid = single_step_bound(-3.0, 4)
    assert not valid


def test_block_bound_generator_term_only():
    # with no generators the collision term vanishes
    value, _ = block_bound(0, 5.0, 10)
    assert value == pytest.approx(4 * np.pi**2 * (np.e - 2) / 100)


@pytest.mark.parametrize("call, match", [
    (lambda: total_bound(3, -1.0, 100), "alpha_max must be one number >= 0"),
    (lambda: total_bound(3, np.nan, 100), "alpha_max must be finite and real"),
    (lambda: block_bound(3, np.inf, 100), "alpha_max must be finite and real"),
    (lambda: total_bound(-3, 1.0, 100), "generator count must be >= 0 and an integer"),
    (lambda: total_bound(2.5, 1.0, 10), "generator count must be >= 0 and an integer"),
    (lambda: block_bound(True, 1.0, 10), "generator count must be >= 0 and an integer"),
    (lambda: single_step_bound(np.nan, 10), "alpha must be finite"),
    (lambda: single_step_bound(-np.inf, 10), "alpha must be finite"),
    (lambda: single_step_bound(True, 10), "alpha must be finite"),
    (lambda: single_step_bound(np.True_, 10), "alpha must be finite"),
    (lambda: single_step_bound([True, 0.5], 10), "alpha must be finite and real, not a bool"),
    (lambda: single_step_bound(([0.5], (np.False_,)), 10), "alpha must be finite and real"),
    (lambda: block_bound(3, True, 100), "alpha_max must be finite and real, not a bool"),
    (lambda: total_bound(3, True, 100), "alpha_max must be finite and real, not a bool"),
    (lambda: total_bound(3, np.True_, 100), "alpha_max must be finite and real, not a bool"),
    (lambda: single_step_bound([1.0], 10), "alpha must be one number, got"),
    (lambda: block_bound(3, [2.0], 10), "alpha_max must be one number >= 0"),
    (lambda: total_bound(3, np.array([2.0, 2.0]), 10), "alpha_max must be one number >= 0"),
], ids=["negative-amax", "nan-amax", "inf-amax", "negative-count", "float-count", "bool-count",
        "nan-alpha", "inf-alpha", "bool-alpha", "numpy-bool-alpha", "bool-in-a-list-alpha",
        "nested-numpy-bool-alpha", "bool-amax", "bool-amax-total", "numpy-bool-amax",
        "list-alpha", "list-amax", "array-amax-total"])
def test_bounds_reject_invalid_input(call, match):
    # each was once accepted; a negative amax or generator count certified valid=True at any N
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call", [
    lambda: single_step_bound(np.float64(1.0), np.int64(10)),
    lambda: block_bound(3, np.float64(2.0), 10),
    lambda: total_bound(np.int64(3), np.float64(2.0), np.int64(10)),
], ids=["single-step", "block", "total"])
def test_bounds_return_python_numbers(call):
    # a numpy alpha once made the validity flag np.False_, which json.dumps cannot write
    value, valid = call()
    assert type(value) is float and type(valid) is bool
    json.dumps([value, valid])


def test_block_bound_quadratic_scaling():
    v1, _ = block_bound(3, QUBIT_BASIS.alpha_max, 500)
    v2, _ = block_bound(3, QUBIT_BASIS.alpha_max, 1000)
    assert v1 == pytest.approx(4 * v2)


def test_block_bound_threshold():
    amax = QUBIT_BASIS.alpha_max
    n_min = 4 * 3 * amax
    assert not block_bound(3, amax, int(n_min) - 1)[1]
    assert block_bound(3, amax, int(np.ceil(n_min)))[1]


def test_total_bound_linear_scaling():
    v1, _ = total_bound(3, QUBIT_BASIS.alpha_max, 400)
    v2, _ = total_bound(3, QUBIT_BASIS.alpha_max, 800)
    assert v1 == pytest.approx(2 * v2)


def test_total_bound_is_n_blocks():
    n = 250
    assert total_bound(3, 2.0, n)[0] == pytest.approx(n * block_bound(3, 2.0, n)[0])


def test_fit_loglog_slope_exact_power_law():
    ns = [50, 100, 200, 400]
    errors = [3.0 / n for n in ns]
    slope, intercept = fit_loglog_slope(ns, errors)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-12)


def test_fit_loglog_slope_skips_noise_floor():
    slope, _ = fit_loglog_slope([10, 20, 30], [1e-16, 1e-15, 1e-16])
    assert np.isnan(slope)
    slope, _ = fit_loglog_slope([10, 20, 40, 80], [1e-16, 4e-2, 2e-2, 1e-2])
    assert slope == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("ns, errors", [
    ([10, 10, 10], [0.1, 0.2, 0.3]),
    ([10, 20, 10], [0.1, 1e-16, 0.3]),
    ([7], [0.5]),
])
def test_fit_loglog_slope_needs_two_distinct_round_counts(ns, errors):
    # one distinct N above the floor fixes no slope; polyfit would warn and return one anyway
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope, intercept = fit_loglog_slope(ns, errors)
    assert np.isnan(slope) and np.isnan(intercept)


@pytest.mark.parametrize("ns, errors", [
    ([1, 2, 3], [1, 1]),  # once truncated to two points: (0.0, 0.0)
    ([10, 20], [0.1, 0.2, 0.3]),
    ([0, 10, 20], [0.1, 0.2, 0.3]),  # once a RuntimeWarning, LAPACK lines and a LinAlgError
    ([-10, 10, 20], [0.1, 0.2, 0.3]),
    ([np.inf, 10, 20], [0.1, 0.2, 0.3]),
    ([np.nan, 10, 20], [0.1, 0.2, 0.3]),
    ([10, 20, 30], [-0.1, 0.2, 0.3]),  # once dropped with the fp noise
    ([10, 20, 30], [np.inf, 0.2, 0.3]),  # once a warning and a NaN slope
    ([10, 20, 30], [np.nan, 0.2, 0.3]),
], ids=["short-errors", "short-ns", "zero-n", "negative-n", "inf-n", "nan-n", "negative-error",
        "inf-error", "nan-error"])
def test_fit_loglog_slope_refuses_bad_points(ns, errors):
    with pytest.raises(ValueError, match="need equal-length finite N >= 1, errors >= 0"):
        fit_loglog_slope(ns, errors)


def _sweep_spec(target):
    return ProtocolSpec(target=target, n_rounds=50, basis=QUBIT_BASIS, rho_s=PLUS)


def test_convergence_sweep_identity_target():
    table = convergence_sweep(_sweep_spec(np.eye(2)), [50, 100, 200])
    assert all(r.measured_error <= 1e-12 for r in table.rows)
    assert np.isnan(table.slope)
    assert not table.violations()


def test_convergence_sweep_rate_and_bounds():
    table = convergence_sweep(
        _sweep_spec(exp_neg_i(Z, np.pi / 4)), [50, 100, 200, 400]
    )
    assert not table.violations()
    assert -2.2 <= table.slope <= -0.8
    bounds = [r.analytic_bound for r in table.rows]
    assert bounds[1] == pytest.approx(bounds[0] / 2)
    assert bounds[3] == pytest.approx(bounds[2] / 2)


def test_convergence_sweep_validates_input():
    spec = _sweep_spec(np.eye(2))
    with pytest.raises(ValueError):
        convergence_sweep(spec, [100, 200])
    with pytest.raises(ValueError):
        convergence_sweep(spec, [200, 100, 50])


@pytest.mark.parametrize("n_list", [[10, 10, 10], [10, 20, 20, 40], [10, 20, 10]])
def test_convergence_sweep_rejects_repeated_round_counts(n_list):
    with pytest.raises(ValueError, match="strictly ascending"):
        convergence_sweep(_sweep_spec(exp_neg_i(Z, 0.3)), n_list)


SWEEP_N = [10, 20, 40, 80, 160]


@pytest.mark.parametrize("d, n_list", [(2, SWEEP_N), (3, SWEEP_N), (4, SWEEP_N), (8, SWEEP_N),
                                       (8, list(range(4, 21))), (5, list(range(10, 19)))],
                         ids=["2", "3", "4", "8", "8-two-groups", "5-odd-chunks"])
def test_convergence_sweep_rows_equal_single_runs(d, n_list):
    # d // 4 charges; at d = 8 five round counts share one group and the 63 slots go in chunks
    # of three, and 17 span two groups (16 and 1); at d = 5 nine round counts take the 24 slots
    # in chunks of 11, a single run in one chunk. The grouped and chunked sweep is checked
    # against single runs, ledgers included, bit for bit
    rng = rng_from_seed(60 + d)
    target, rho, basis = haar_unitary(d, rng), random_density(d, rng), build_state_basis(d)
    charges = tuple(ExtensiveObservable(random_hermitian(d, rng), f"A{j}") for j in range(d // 4))
    spec = ProtocolSpec(target=target, n_rounds=7, basis=basis, rho_s=rho, charges=charges)
    table = convergence_sweep(spec, n_list)
    runs = swapframe.protocol._protocol_runs(spec, n_list)
    assert [r.n_rounds for r in table.rows] == n_list
    for row, run in zip(table.rows, runs):
        result = run_protocol(ProtocolSpec(target=target, n_rounds=row.n_rounds, basis=basis,
                                           rho_s=rho, charges=charges))
        assert row.measured_error == run.total_error == result.total_error
        assert row.analytic_bound == result.total_bound
        assert row.valid == result.bound_valid
        assert np.array_equal(run.final_state, result.final_state)
        assert np.array_equal(run.ledger.system, result.ledger.system)
        assert np.array_equal(run.ledger.frame, result.ledger.frame)


@pytest.mark.parametrize("n_list", [[0, 10, 20], [-5, 10, 20]])
def test_convergence_sweep_rejects_round_count_below_one(n_list):
    with pytest.raises(ValueError, match="round count must be >= 1"):
        convergence_sweep(_sweep_spec(exp_neg_i(Z, 0.3)), n_list)


@pytest.mark.parametrize("n_list", [[10.7, 20, 40], [10, 20.0, 40], [True, 20, 40]])
def test_convergence_sweep_rejects_a_non_integer_round_count(n_list):
    with pytest.raises(ValueError, match="round count must be >= 1 and an integer"):
        convergence_sweep(_sweep_spec(exp_neg_i(Z, 0.3)), n_list)


def test_convergence_sweep_takes_numpy_integer_round_counts():
    table = convergence_sweep(_sweep_spec(exp_neg_i(Z, 0.3)), np.array([10, 20, 40]))
    assert [r.n_rounds for r in table.rows] == [10, 20, 40]
    assert all(type(r.n_rounds) is int for r in table.rows)


def test_convergence_sweep_prepares_the_target_once(monkeypatch):
    calls = {"_principal_generator": 0, "_coefficients": 0}

    def counted(name):
        inner = getattr(swapframe.protocol, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(swapframe.protocol, name, counted(name))
    table = convergence_sweep(_sweep_spec(exp_neg_i(Z, 0.3)), SWEEP_N)
    assert len(table.rows) == 5
    assert calls == {"_principal_generator": 1, "_coefficients": 1}
