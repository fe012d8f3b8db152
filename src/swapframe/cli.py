"""Experiment runner: convergence sweeps, conservation audits, thermodynamics.

Experiments are described by a single JSON config; matrices are given as
row-major [re, im] pairs, with the shorthands "X", "Y", "Z", "I", "H" (the
Hadamard gate) accepted wherever a matrix is expected. All randomness flows
from the config seed, so identical config + seed produce byte-identical
output files.

Exit status: 0 on pass, 1 when a validity-flagged bound or inequality is
violated, 2 on config errors and on a result that is not finite (no output
file is written then), 3 on any other error, such as a MemoryError, with one
``internal error: <Type>: <message>`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .basis import OperatorBasis, _matrix_from_pairs, build_state_basis
from .bounds import convergence_sweep
from .conservation import ExtensiveObservable
from .linalg import BLOCK_ENTRIES, dagger, exp_neg_i, tensor
from .protocol import ProtocolSpec, _protocol_runs
from .rand import _haar_unitaries, haar_unitary, random_density, rng_from_seed
from .thermo import (
    SECOND_LAW_SLACK,
    ThermalSpec,
    _work_records,
    battery_deviation_check,
    implicit_work,
    thermal_state,
)

SCHEMA_VERSION = 1
DEFAULT_DIMENSION_CAP = 4096  # dense round maps and baths beyond this are refused

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}


class ConfigError(Exception):
    """Config file is malformed or missing required fields."""


def parse_matrix(value, d: int | None = None) -> np.ndarray:
    """A named 2x2 shorthand or a row-major [re, im] nested list."""
    if isinstance(value, str):
        if value not in PAULI:
            raise ConfigError(f"unknown matrix shorthand {value!r}; known: {sorted(PAULI)}")
        m = PAULI[value]
    else:
        try:
            m = _matrix_from_pairs(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"cannot parse matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"matrix is not square: shape {m.shape}")
    if d is not None and m.shape[0] != d:
        raise ConfigError(f"matrix dimension {m.shape[0]} does not match configured dimension {d}")
    return m


_KIND_NAMES = {float: "a number", bool: "true or false", str: "a string",
               list: "a non-empty list", dict: "an object"}


def _check(value, key: str, kind: type, least: int = 1):
    """``value`` as a JSON ``kind``, or a ConfigError naming ``key``.

    ``int`` is a JSON integer >= ``least``, ``float`` any JSON number in float
    range (returned as a float) and ``list`` a non-empty list; ``object`` accepts
    anything. The type is compared exactly, so neither a bool nor a string passes
    as a number.
    """
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{key!r} must be a number in float range") from None
    if kind is not object and (type(value) is not kind or (kind is int and value < least)
                               or (kind is list and not value)):
        what = f"an integer >= {least}" if kind is int else _KIND_NAMES[kind]
        raise ConfigError(f"{key!r} must be {what}, got {value!r}")
    return value


def _get(config: dict, key: str, kind: type, default=None, least: int = 1):
    """``config[key]`` checked as ``kind``, or ``default`` if absent; no default means required."""
    if key in config:
        return _check(config[key], key, kind, least)
    if default is None:
        raise ConfigError(f"config is missing required field {key!r}")
    return default


def parse_unitary(spec: dict, d: int, rng) -> np.ndarray:
    """Unitary from {"exp": matrix, "scale": s}, {"matrix": m}, or {"random": true}."""
    if "exp" in spec:
        gen = parse_matrix(spec["exp"], d)  # exp_neg_i refuses a non-Hermitian one: exit 2
        return exp_neg_i(gen, _get(spec, "scale", float, 1.0))
    if "matrix" in spec:
        return parse_matrix(spec["matrix"], d)
    if _get(spec, "random", bool, False):
        return haar_unitary(d, rng)
    raise ConfigError("unitary spec needs one of 'exp', 'matrix', 'random'")


def parse_state(spec: dict, d: int, rng) -> np.ndarray:
    """State from {"basis": i}, {"plus": true} (any d), {"matrix": m}, or {"random": true}."""
    if "basis" in spec:
        i = _get(spec, "basis", int, least=0)
        if i >= d:
            raise ConfigError(f"basis state index {i} out of range for dimension {d}")
        rho = np.zeros((d, d), dtype=complex)
        rho[i, i] = 1.0
        return rho
    if _get(spec, "plus", bool, False):
        psi = np.ones(d, dtype=complex) / np.sqrt(d)
        return np.outer(psi, psi.conj())
    if "matrix" in spec:
        return parse_matrix(spec["matrix"], d)
    if _get(spec, "random", bool, False):
        return random_density(d, rng)
    raise ConfigError("state spec needs one of 'basis', 'plus', 'matrix', 'random'")


def parse_charges(entries: list, d: int) -> tuple:
    charges = []
    for i, entry in enumerate(entries):
        label = entry if isinstance(entry, str) else f"A{i}"
        if isinstance(entry, dict):
            label, entry = _get(entry, "label", str, label), _get(entry, "matrix", object)
        charges.append(ExtensiveObservable(parse_matrix(entry, d), label=label))
    return tuple(charges)


def load_basis(config: dict, d: int) -> OperatorBasis:
    name = _get(config, "basis", str, "default")
    if name == "default":
        return build_state_basis(d)
    try:  # bad UTF-8 is a ValueError, and nesting past the recursion limit is malformed too
        basis = OperatorBasis.from_json(Path(name).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read basis file: {exc}") from None
    except KeyError as exc:
        raise ConfigError(f"basis file {name!r} lacks field {exc}") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"basis file {name!r} is malformed: {exc}") from None
    if basis.dim != d:
        raise ConfigError(f"basis file has dimension {basis.dim}, config says {d}")
    return basis


def _protocol_spec(config: dict, n_rounds: int, rng, charged: bool = False) -> ProtocolSpec:
    """The spec a protocol mode's config describes, with its 'charges' when ``charged``."""
    d = _get(config, "dimension", int)
    if d * d > DEFAULT_DIMENSION_CAP:
        raise ConfigError(f"'dimension' {d}: round map side {d * d} "
                          f"exceeds cap {DEFAULT_DIMENSION_CAP}")
    basis = load_basis(config, d)
    charges = parse_charges(_get(config, "charges", list), d) if charged else ()
    target = parse_unitary(_get(config, "unitary", dict), d, rng)
    rho = parse_state(_get(config, "state", dict, {"plus": True}), d, rng)
    return ProtocolSpec(target=target, n_rounds=n_rounds, basis=basis, rho_s=rho, charges=charges)


def _document(mode: str, doc: dict) -> str:
    """The text of ``<mode>.json``: ``doc`` with the schema and mode, with no NaN or infinity."""
    return json.dumps({**doc, "schema": SCHEMA_VERSION, "mode": mode}, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def run_converge(config: dict, out: Path, rng, verbose: bool) -> tuple:
    n_list = [_check(n, "N_list", int) for n in _get(config, "N_list", list)]
    spec = _protocol_spec(config, n_list[0], rng)

    table = convergence_sweep(spec, n_list)
    columns = ("N", "measured_error", "analytic_bound", "valid")  # no CSV field holds , " or \n
    rows = [(r.n_rounds, r.measured_error, r.analytic_bound, r.valid) for r in table.rows]
    (out / "converge.csv").write_text("".join([",".join(columns) + ",slope\n", *(
        f"{n},{e!r},{b!r},{v},{table.slope!r}\n" for n, e, b, v in rows)]))
    violations = table.violations()
    doc = {
        # NaN when no error rose above the fp floor; JSON has no NaN.
        "slope": None if np.isnan(table.slope) else table.slope,
        "intercept": None if np.isnan(table.intercept) else table.intercept,
        "rows": [dict(zip(columns, row)) for row in rows],
        "violations": len(violations),
    }
    summary = (f"{len(table.rows)} round counts, slope {table.slope:+.3f}, "
               f"{len(violations)} bound violation(s)")
    return _document("converge", doc), summary, not violations


def run_conserve(config: dict, out: Path, rng, verbose: bool) -> tuple:
    spec = _protocol_spec(config, _get(config, "N", int), rng, charged=True)
    result = _protocol_runs(spec, (spec.n_rounds,))[0]
    ledger, residual = result.ledger, result.ledger.max_closure_residual()
    # the entries, one per (round, slot, charge), as one row template at their depth in the file
    # and one %: labels are pre-encoded arguments, and %r of a finite float is json's own text;
    # a non-finite entry makes the residual non-finite, which the dump below refuses
    n, size, k = ledger.frame.shape
    values = [None] * (5 * ledger.frame.size)  # in the template's sorted-key order
    values[0::5] = [json.dumps(label) for label in ledger.charges] * (n * size)
    values[1::5] = ledger.frame.ravel().tolist()
    values[2::5] = np.arange(1, n + 1).repeat(size * k).tolist()
    values[3::5] = [slot for slot in range(size) for _ in range(k)] * n
    values[4::5] = ledger.system.ravel().tolist()
    row = ('\n      {\n        "charge": %s,\n        "frame_delta": %r,\n'
           '        "round": %d,\n        "slot": %d,\n        "system_delta": %r\n      }')
    entries = '"entries": [' + ",".join([row] * ledger.frame.size) % tuple(values) + "\n    ]"
    doc = {
        "max_closure_residual": residual,
        "total_error": result.total_error,
        "total_bound": result.total_bound,
        "bound_valid": result.bound_valid,
        "ledger": {"cumulative": ledger.cumulative(), "max_closure_residual": residual,
                   "entries": []},
    }
    summary = f"{ledger.frame.size} collision entries, max closure residual {residual:.3e}"
    ok = residual <= 1e-10 and not (result.bound_valid and result.total_error > result.total_bound)
    # an encoded label escapes every '"', so only the ledger's own key reads '"entries": []'
    return _document("conserve", doc).replace('"entries": []', entries, 1), summary, ok


def run_thermo(config: dict, out: Path, rng, verbose: bool) -> tuple:
    d = _get(config, "dimension", int, least=2)  # the bath cap below binds only from d = 2
    charges = parse_charges(_get(config, "charges", list), d)
    spec = ThermalSpec(charges, [_check(b, "betas", float) for b in _get(config, "betas", list)])
    bath_subsystems = _get(config, "bath_subsystems", int, 2)
    # clipped exponent: any d >= 2 already exceeds the cap there, and a huge count stays cheap
    if d ** min(bath_subsystems, DEFAULT_DIMENSION_CAP.bit_length()) > DEFAULT_DIMENSION_CAP:
        raise ConfigError(f"'bath_subsystems' {bath_subsystems}: bath dimension "
                          f"{d}^{bath_subsystems} exceeds cap {DEFAULT_DIMENSION_CAP}")
    draws = _get(config, "draws", int, 200)

    tau, ln_z = thermal_state(spec)
    bath0 = tensor(*[tau] * bath_subsystems)
    dims, size = [d] * bath_subsystems, d**bath_subsystems

    records, worst = [], np.inf  # records: the ones written, the first 10 or all with --verbose
    chunk = max(1, BLOCK_ENTRIES // size**2)  # draws per stacked pass, so memory does not grow
    for lo in range(0, draws, chunk):
        u = _haar_unitaries(size, min(chunk, draws - lo), rng)
        batch = _work_records(bath0, u @ bath0 @ dagger(u), dims, range(bath_subsystems), spec)
        worst = min(worst, *(r.margin_bath_only for r in batch))
        records += batch if verbose else batch[:10 - len(records)]

    doc = {
        "ln_z": ln_z,
        "draws": draws,
        "worst_margin": worst,
        "records": [{**vars(r), "works": dict(r.works)} for r in records],
    }
    summary = f"{draws} random bath unitaries, worst second-law margin {worst:.3e}"
    return _document("thermo", doc), summary, worst >= -SECOND_LAW_SLACK


def run_battery(config: dict, out: Path, rng, verbose: bool) -> tuple:
    n_list = ([_check(n, "N_list", int) for n in _get(config, "N_list", list)]
              if "N_list" in config else [_get(config, "N", int)])
    spec = _protocol_spec(config, n_list[0], rng, charged=True)
    works = implicit_work(spec.rho_s, spec.target @ spec.rho_s @ dagger(spec.target), spec.charges)

    runs = []
    for n, result in zip(n_list, _protocol_runs(spec, n_list)):
        checks = battery_deviation_check(result, works, result.total_error, spec.charges)
        runs.append({
            "N": n,
            "total_error": result.total_error,
            "works": works,
            "ledger_cumulative": result.ledger.cumulative(),
            "checks": {label: dict(vars(c)) for label, c in checks.items()},
        })

    worst = max(c["deviation"] for r in runs for c in r["checks"].values())
    summary = f"{len(runs)} run(s), worst ledger-vs-work deviation {worst:.3e}"
    ok = all(c["passed"] for r in runs for c in r["checks"].values())
    return _document("battery", {"runs": runs}), summary, ok


MODES = {
    "converge": run_converge,
    "conserve": run_conserve,
    "thermo": run_thermo,
    "battery": run_battery,
}


_PARSER = argparse.ArgumentParser(prog="swapframe", description="Run partial-swap "
                                  "reference-frame experiments from a JSON config.")
_PARSER.add_argument("--config", required=True, help="path to the JSON experiment config")
_PARSER.add_argument("--out", default=None,
                     help="directory for CSV/JSON outputs (default: config 'out' field or '.')")
_PARSER.add_argument("--seed", type=int, default=None, help="override the config seed")
_PARSER.add_argument("--mode", default=None, choices=sorted(MODES), help="override the config mode")
_PARSER.add_argument("--verbose", action="store_true")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        try:  # bad JSON or UTF-8, an int past the digit limit, or nesting past the recursion limit
            config = json.loads(Path(args.config).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        if not isinstance(config, dict):
            raise ConfigError(f"config must be a JSON object, got a {type(config).__name__}")
        mode = args.mode or config.get("mode")
        if type(mode) is not str or mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}; expected one of {sorted(MODES)}")
        seed = _check(config.get("seed", 0) if args.seed is None else args.seed, "seed", int, 0)
        out = Path(args.out if args.out is not None else _get(config, "out", str, "."))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {str(out)!r}: {exc}") from None
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result exits 2
            text, summary, ok = MODES[mode](config, out, rng_from_seed(seed), args.verbose)
        (out / f"{mode}.json").write_text(text)
        print(f"{mode}: {summary}")
        return 0 if ok else 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
