"""Analytic worst-case error bounds and measured convergence rates.

The three bounds below are exact constants, not asymptotic statements: each
holds whenever the round count clears its validity threshold. They are
reported alongside measured errors, never substituted for them; the constants
are known to be loose.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

E_MINUS_2 = float(np.e - 2.0)

# Measured errors at or below this level are fp noise; excluded from rate fits.
FIT_FLOOR = 1e-14


def single_step_bound(alpha: float, n_rounds: int):
    """Trace-distance error of one collision vs the small rotation it implements.

    Returns ``(8(e-2)(alpha/N)^2, N >= 2|alpha|)``.
    """
    if n_rounds < 1:
        raise ValueError("round count must be >= 1")
    value = 8.0 * E_MINUS_2 * (alpha / n_rounds) ** 2
    return value, n_rounds >= 2.0 * abs(alpha)


def block_bound(n_generators: int, alpha_max: float, n_rounds: int):
    """Error of one D-collision round vs conjugation by exp(-iH/N).

    Returns ``((8 D^2 amax^2 + 4 pi^2 (e-2)(D+1)) / N^2, N >= 4 D amax)``.
    """
    if n_rounds < 1:
        raise ValueError("round count must be >= 1")
    d_gen = n_generators
    value = (8.0 * d_gen**2 * alpha_max**2
             + 4.0 * np.pi**2 * E_MINUS_2 * (d_gen + 1)) / n_rounds**2
    return float(value), n_rounds >= 4.0 * d_gen * alpha_max


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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["N", "measured_error", "analytic_bound", "valid", "slope"])
        for r in self.rows:
            writer.writerow([r.n_rounds, repr(r.measured_error), repr(r.analytic_bound),
                             r.valid, repr(self.slope)])
        return buf.getvalue()


def fit_loglog_slope(n_values, errors):
    """Unweighted least-squares slope/intercept of ln(error) against ln(N).

    Points with error <= 1e-14 are excluded; returns (nan, nan) if fewer than
    two remain.
    """
    pts = [(n, e) for n, e in zip(n_values, errors) if e > FIT_FLOOR]
    if len(pts) < 2:
        return float("nan"), float("nan")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def convergence_sweep(spec, n_list) -> ConvergenceTable:
    """Decay-rate fit over ascending round counts: one prepared target, one kernel call per N."""
    from .protocol import _protocol_runs

    n_list = [int(n) for n in n_list]
    if len(n_list) < 3:
        raise ValueError("need at least three round counts")
    if sorted(n_list) != n_list:
        raise ValueError("round counts must be ascending")

    rows = tuple(SweepRow(n, r.total_error, r.total_bound, r.bound_valid)
                 for n, r in zip(n_list, _protocol_runs(spec, n_list)))
    slope, intercept = fit_loglog_slope(
        [r.n_rounds for r in rows], [r.measured_error for r in rows]
    )
    return ConvergenceTable(rows=rows, slope=slope, intercept=intercept)
