"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Tolerances are fixed here, not configurable.
"""

import json
import math

import numpy as np

from dense_oracle import commutator_norm, lift, partial_swap, swap
from swapframe.basis import build_state_basis, decompose_generator
from swapframe.bounds import block_bound, fit_loglog_slope, single_step_bound
from swapframe.cli import main as cli_main
from swapframe.conservation import ExtensiveObservable
from swapframe.linalg import (
    dagger,
    exp_neg_i,
    partial_trace,
    principal_generator,
    tensor,
    trace_norm,
)
from swapframe.protocol import ProtocolSpec, run_protocol, step_channel
from swapframe.rand import (
    haar_unitary,
    random_density,
    random_hermitian,
    rng_from_seed,
)
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
PLUS = np.full((2, 2), 0.5, dtype=complex)

QUBIT_BASIS = build_state_basis(2)


def _report(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS: {detail}")


def test_criterion_1_swap_partial_trace_lemmas():
    worst = 0.0
    for d in (2, 3):
        rng = rng_from_seed(100 + d)
        s = swap(d)
        for _ in range(100):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            left = np.max(np.abs(partial_trace(s @ tensor(a, b), [d, d], 0) - b @ a))
            right = np.max(np.abs(partial_trace(tensor(a, b) @ s, [d, d], 0) - a @ b))
            worst = max(worst, left, right)
            assert left <= 1e-12 and right <= 1e-12
    _report(1, f"both swap/partial-trace identities hold, worst deviation {worst:.2e}")


def test_criterion_2_conservation_and_ledger_closure():
    rng = rng_from_seed(200)
    alphas = rng.uniform(-4, 4, size=50)
    charges = [random_hermitian(2, rng) for _ in range(20)]
    worst_comm = 0.0
    for alpha in alphas:
        v = partial_swap(float(alpha), 16, 2)
        for a in charges:
            c = commutator_norm(v, lift(a, 2))
            worst_comm = max(worst_comm, c)
            assert c <= 1e-12

    worst_closure = 0.0
    audited = tuple(
        ExtensiveObservable(random_hermitian(2, rng), f"A{i}") for i in range(3)
    )
    for n_rounds, seed in ((100, 201), (200, 202)):
        spec = ProtocolSpec(
            target=haar_unitary(2, rng_from_seed(seed)),
            n_rounds=n_rounds,
            basis=QUBIT_BASIS,
            rho_s=random_density(2, rng),
            charges=audited,
        )
        result = run_protocol(spec)
        worst_closure = max(worst_closure, result.ledger.max_closure_residual())
        assert result.ledger.max_closure_residual() <= 1e-10
    _report(2, f"1000 commutators <= 1e-12 (worst {worst_comm:.2e}); "
               f"ledger closure worst {worst_closure:.2e}")


def test_criterion_3_single_step_bound():
    rng = rng_from_seed(300)
    worst_ratio = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for n in (int(10 * alpha), int(100 * alpha)):
            bound, valid = single_step_bound(alpha, n)
            assert valid
            states = [random_density(2, rng) for _ in range(50)]
            for sigma in QUBIT_BASIS.states:
                u = exp_neg_i(sigma, alpha / n)
                for rho in states:
                    out, _ = step_channel(rho, sigma, alpha, n)
                    err = trace_norm(out - u @ rho @ dagger(u))
                    worst_ratio = max(worst_ratio, err / bound)
                    assert err <= bound
    _report(3, f"measured collision error <= 8(e-2)(a/N)^2, worst ratio {worst_ratio:.3f}")


def test_criterion_4_block_bound():
    rng = rng_from_seed(400)
    n_threshold = math.ceil(8 * QUBIT_BASIS.size * QUBIT_BASIS.alpha_max)
    worst_ratio = 0.0
    for n in (n_threshold, 10 * n_threshold):
        bound, valid = block_bound(QUBIT_BASIS.size, QUBIT_BASIS.alpha_max, n)
        assert valid
        for _ in range(20):
            h = principal_generator(haar_unitary(2, rng))
            rho = random_density(2, rng)
            err = run_protocol(ProtocolSpec(target=exp_neg_i(h, 1.0), n_rounds=n,
                                            basis=QUBIT_BASIS, rho_s=rho)).round_errors[0]
            worst_ratio = max(worst_ratio, err / bound)
            assert err <= bound
    _report(4, f"round error within block bound at N={n_threshold} and 10x, "
               f"worst ratio {worst_ratio:.3e}")


def test_criterion_5_total_bound_and_rate():
    n_list = [50, 100, 200, 400, 800]
    targets = {
        "Z rotation": exp_neg_i(Z, np.pi / 4),
        "random unitary": haar_unitary(2, rng_from_seed(500)),
    }
    slopes = {}
    for name, target in targets.items():
        errors = []
        for n in n_list:
            spec = ProtocolSpec(target=target, n_rounds=n, basis=QUBIT_BASIS, rho_s=PLUS)
            result = run_protocol(spec)
            errors.append(result.total_error)
            if result.bound_valid:
                assert result.total_error <= result.total_bound
        slope_all, _ = fit_loglog_slope(n_list, errors)
        slope_tail, _ = fit_loglog_slope(n_list[-3:], errors[-3:])
        assert -2.2 <= slope_all <= -0.8
        assert abs(slope_tail + 1.0) <= 0.15
        slopes[name] = (slope_all, slope_tail)
    detail = "; ".join(
        f"{name}: slope {s:.3f}, tail {t:.3f}" for name, (s, t) in slopes.items()
    )
    _report(5, detail)


def test_criterion_6_duals_and_alpha_bound():
    np.testing.assert_allclose(QUBIT_BASIS.duals[0], (I2 - X - Y - Z) / 2, atol=1e-10)
    for dual, pauli in zip(QUBIT_BASIS.duals[1:], (X, Y, Z)):
        np.testing.assert_allclose(dual, pauli, atol=1e-10)
    assert abs(QUBIT_BASIS.alpha_max - np.pi * np.sqrt(6.0)) <= 1e-9

    rng = rng_from_seed(600)
    worst = 0.0
    for _ in range(1000):
        dec = decompose_generator(principal_generator(haar_unitary(2, rng)), QUBIT_BASIS)
        worst = max(worst, dec.max_alpha)
        assert dec.max_alpha <= QUBIT_BASIS.alpha_max
    _report(6, f"duals match hand values, alpha_max = pi*sqrt(6); "
               f"1000 decompositions, max |alpha| {worst:.3f} <= {QUBIT_BASIS.alpha_max:.3f}")


def test_criterion_7_two_subsystem_primitive():
    rng = rng_from_seed(700)
    alpha, n = 1.0, 100
    bound, valid = single_step_bound(alpha, n)
    assert valid
    sigma_a = (I2 + Z) / 2
    sigma_b = (I2 + Z) / 2
    u = exp_neg_i(tensor(sigma_a, sigma_b), alpha / n)
    worst = 0.0
    for _ in range(20):
        rho = random_density(4, rng)
        out = step_channel(rho, tensor(sigma_a, sigma_b), alpha, n)[0]
        err = trace_norm(out - u @ rho @ dagger(u))
        worst = max(worst, err)
        assert err <= bound

    gate = partial_swap(alpha, n, 4)
    worst_comm = 0.0
    for _ in range(20):
        a = random_hermitian(2, rng)
        c = commutator_norm(gate, lift(a, 4))
        worst_comm = max(worst_comm, c)
        assert c <= 1e-12
    _report(7, f"composite collision error {worst:.2e} <= {bound:.2e}; "
               f"gate commutators <= 1e-12 (worst {worst_comm:.2e})")


def test_criterion_8_second_law_and_gibbs_minimality():
    spec = ThermalSpec(
        charges=(ExtensiveObservable(Z, "Z"), ExtensiveObservable(X, "X")),
        betas=(1.0, 0.5),
    )
    tau, ln_z = thermal_state(spec)
    bath0 = tensor(tau, tau)
    rng = rng_from_seed(800)
    worst_margin = np.inf
    for _ in range(200):
        u = haar_unitary(4, rng)
        record = work_accounting(bath0, u @ bath0 @ dagger(u), [2, 2],
                                 bath=[0, 1], spec=spec)
        worst_margin = min(worst_margin, record.margin_bath_only)
        assert record.margin_bath_only >= -1e-9

    worst_gap = np.inf
    for _ in range(100):
        gap = free_entropy(random_density(2, rng), spec) + ln_z
        worst_gap = min(worst_gap, gap)
        assert gap >= -1e-9
    _report(8, f"200 bath unitaries: worst weighted-work margin {worst_margin:.3e}; "
               f"Gibbs minimality gap >= {worst_gap:.3e}")


def test_criterion_9_battery_deviation():
    target = exp_neg_i(X, np.pi / 4)
    rho = (I2 + 0.3 * X + 0.2 * Y + 0.7 * Z) / 2
    charge = ExtensiveObservable(Z, "Z")
    works = implicit_work(rho, target @ rho @ dagger(target), (charge,))
    deviations = []
    for n in (100, 400, 1600):
        spec = ProtocolSpec(target=target, n_rounds=n, basis=QUBIT_BASIS,
                            rho_s=rho, charges=(charge,))
        result = run_protocol(spec)
        assert result.ledger.max_closure_residual() <= 1e-10
        checks = battery_deviation_check(result, works, result.total_error, (charge,))
        check = checks["Z"]
        assert check.deviation <= check.bound
        deviations.append(check.deviation)
    assert deviations[1] < deviations[0]
    assert deviations[2] < deviations[1]
    _report(9, "deviation <= eps*||Z|| at N=100/400/1600 and monotone: "
               + ", ".join(f"{d:.3e}" for d in deviations))


def test_criterion_10_cli_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mode": "converge",
        "dimension": 2,
        "N_list": [50, 100, 200],
        "unitary": {"random": True},
        "state": {"random": True},
        "seed": 411,
    }))
    for sub in ("first", "second"):
        code = cli_main(["--config", str(config), "--out", str(tmp_path / sub)])
        assert code == 0
    for name in ("converge.csv", "converge.json"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second
    _report(10, "two runs with identical config+seed are byte-identical")
