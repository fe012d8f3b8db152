"""Analytic worst-case error bounds and measured convergence rates.

The three bounds below are exact constants, not asymptotic statements: each
holds whenever the round count clears its validity threshold. They are
reported alongside measured errors, never substituted for them; the constants
are known to be loose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _finite_real, _integer

E_MINUS_2 = float(np.e - 2.0)

# Measured errors at or below this level are fp noise; excluded from rate fits.
FIT_FLOOR = 1e-14


def single_step_bound(alpha: float, n_rounds: int):
    """Trace-distance error of one collision vs the small rotation it implements.

    Returns ``(8(e-2)(alpha/N)^2, N >= 2|alpha|)``; ``alpha`` must be one finite real, not a bool.
    """
    alpha, n_rounds = _finite_real(alpha, "alpha", -np.inf), _integer(n_rounds, "round count", 1)
    return 8.0 * E_MINUS_2 * (alpha / n_rounds) ** 2, n_rounds >= 2.0 * abs(alpha)


def _n_min(n_generators: int, alpha_max: float) -> float:
    """Validity threshold 4·D·amax of the block and total bounds."""
    return 4.0 * n_generators * alpha_max


def block_bound(n_generators: int, alpha_max: float, n_rounds: int):
    """Error of one D-collision round vs conjugation by exp(-iH/N).

    Returns ``((8 D^2 amax^2 + 4 pi^2 (e-2)(D+1)) / N^2, N >= 4 D amax)``.
    """
    d_gen = _integer(n_generators, "generator count", 0)
    n_rounds = _integer(n_rounds, "round count", 1)
    alpha_max = _finite_real(alpha_max, "alpha_max", 0)
    value = (8.0 * d_gen**2 * alpha_max**2
             + 4.0 * np.pi**2 * E_MINUS_2 * (d_gen + 1)) / n_rounds**2
    return float(value), n_rounds >= _n_min(d_gen, alpha_max)


def total_bound(n_generators: int, alpha_max: float, n_rounds: int):
    """Total error of the N-round protocol vs the target conjugation.

    One round's worst case, accumulated over N rounds:
    ``((8 D^2 amax^2 + (2 pi)^2 (e-2)(D+1)) / N, N >= 4 D amax)``.
    """
    value, valid = block_bound(n_generators, alpha_max, n_rounds)
    return float(value * n_rounds), valid


@dataclass(frozen=True)
class SweepRow:
    n_rounds: int
    measured_error: float
    analytic_bound: float
    valid: bool


@dataclass(frozen=True)
class ConvergenceTable:
    """Measured error vs round count, with a log-log least-squares rate fit.

    ``slope`` is NaN when fewer than two rows carry errors above the fp floor.
    """

    rows: tuple
    slope: float
    intercept: float

    def violations(self) -> list[SweepRow]:
        """Rows whose validity-flagged bound is exceeded by the measurement."""
        return [r for r in self.rows if r.valid and r.measured_error > r.analytic_bound]


def fit_loglog_slope(n_values, errors):
    """Unweighted least-squares slope/intercept of ln(error) against ln(N).

    Takes equal-length finite N >= 1 and errors >= 0. Points with error <= 1e-14 are excluded;
    returns (nan, nan), without a warning, if the points left span fewer than two distinct N.
    """
    if len(n_values) != len(errors) or not all(  # NaN fails both comparisons
            1 <= n < np.inf and 0 <= e < np.inf for n, e in zip(n_values, errors)):
        raise ValueError(f"need equal-length finite N >= 1, errors >= 0: {n_values}, {errors}")
    pts = [(n, e) for n, e in zip(n_values, errors) if e > FIT_FLOOR]
    if len({n for n, _ in pts}) < 2:
        return float("nan"), float("nan")
    slope, intercept = np.polyfit(*np.log(np.array(pts, dtype=float).T), 1)
    return float(slope), float(intercept)


def convergence_sweep(spec, n_list) -> ConvergenceTable:
    """Decay-rate fit over strictly ascending integer round counts; the target is prepared once."""
    from .protocol import _protocol_runs

    n_list = [_integer(n, "round count", 1) for n in n_list]
    if len(n_list) < 3:
        raise ValueError("need at least three round counts")
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"round counts must be strictly ascending, got {n_list}")

    rows = tuple(SweepRow(n, r.total_error, r.total_bound, r.bound_valid)
                 for n, r in zip(n_list, _protocol_runs(spec, n_list)))
    slope, intercept = fit_loglog_slope(n_list, [r.measured_error for r in rows])
    return ConvergenceTable(rows=rows, slope=slope, intercept=intercept)
