"""Experiment runner: convergence sweeps, conservation audits, thermodynamics.

Experiments are described by a single JSON config; matrices are given as
row-major [re, im] pairs, with the shorthands "X", "Y", "Z", "I", "H" (the
Hadamard gate) accepted wherever a matrix is expected. All randomness flows
from the config seed, so identical config + seed produce byte-identical
output files.

Exit status: 0 on pass, 1 when a validity-flagged bound or inequality is
violated, 2 on config errors, 3 on any other error, such as a MemoryError,
with one ``internal error: <Type>: <message>`` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .basis import OperatorBasis, build_state_basis
from .bounds import convergence_sweep
from .conservation import DEFAULT_DIMENSION_CAP, ExtensiveObservable
from .linalg import dagger, exp_neg_i
from .protocol import ProtocolSpec, _protocol_runs, run_protocol
from .rand import haar_unitary, random_density, rng_from_seed
from .thermo import (
    SECOND_LAW_SLACK,
    ThermalSpec,
    battery_deviation_check,
    implicit_work,
    thermal_state,
    work_accounting,
)

SCHEMA_VERSION = 1

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
            m = np.array([[complex(re, im) for re, im in row] for row in value])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cannot parse matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"matrix is not square: shape {m.shape}")
    if d is not None and m.shape[0] != d:
        raise ConfigError(f"matrix dimension {m.shape[0]} does not match configured dimension {d}")
    return m


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing required field {key!r}")
    return config[key]


def _float(value, key: str) -> float:
    """``float(value)`` for a number-valued config field, or a ConfigError naming it."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} must be a single float, got {value!r}") from None


def _path(value, key: str) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"{key!r} must be a path string, got {value!r}")
    return Path(value)


def _integer(value, key: str, least: int = 1) -> int:
    """A JSON integer config value >= ``least`` (no bool, float or string), or a ConfigError."""
    if type(value) is not int or value < least:
        raise ConfigError(f"{key!r} must be an integer >= {least}, got {value!r}")
    return value


def _round_counts(config: dict, key: str) -> list:
    value = _require(config, key)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key!r} must be a non-empty list of round counts, got {value!r}")
    return [_integer(n, key) for n in value]


def parse_unitary(spec, d: int, rng) -> np.ndarray:
    """Unitary from {"exp": matrix, "scale": s}, {"matrix": m}, or {"random": true}."""
    if not isinstance(spec, dict):
        raise ConfigError("unitary spec must be an object")
    if "exp" in spec:
        gen = parse_matrix(spec["exp"], d)  # exp_neg_i refuses a non-Hermitian one: exit 2
        return exp_neg_i(gen, _float(spec.get("scale", 1.0), "scale"))
    if "matrix" in spec:
        return parse_matrix(spec["matrix"], d)
    if spec.get("random"):
        return haar_unitary(d, rng)
    raise ConfigError("unitary spec needs one of 'exp', 'matrix', 'random'")


def parse_state(spec, d: int, rng) -> np.ndarray:
    """State from {"basis": i}, {"plus": true} (qubit), {"matrix": m}, or {"random": true}."""
    if not isinstance(spec, dict):
        raise ConfigError("state spec must be an object")
    if "basis" in spec:
        i = _integer(spec["basis"], "basis", 0)
        if i >= d:
            raise ConfigError(f"basis state index {i} out of range for dimension {d}")
        rho = np.zeros((d, d), dtype=complex)
        rho[i, i] = 1.0
        return rho
    if spec.get("plus"):
        psi = np.ones(d, dtype=complex) / np.sqrt(d)
        return np.outer(psi, psi.conj())
    if "matrix" in spec:
        return parse_matrix(spec["matrix"], d)
    if spec.get("random"):
        return random_density(d, rng)
    raise ConfigError("state spec needs one of 'basis', 'plus', 'matrix', 'random'")


def parse_charges(config: dict, d: int) -> tuple:
    entries = config.get("charges", [])
    if not isinstance(entries, list):
        raise ConfigError(f"'charges' must be a list, got {entries!r}")
    charges = []
    for i, entry in enumerate(entries):
        label = entry if isinstance(entry, str) else f"A{i}"
        if isinstance(entry, dict):
            label, entry = entry.get("label", label), _require(entry, "matrix")
            if not isinstance(label, str):
                raise ConfigError(f"charge 'label' must be a string, got {label!r}")
        charges.append(ExtensiveObservable(parse_matrix(entry, d), label=label))
    return tuple(charges)


def load_basis(config: dict, d: int) -> OperatorBasis:
    name = config.get("basis", "default")
    if name == "default":
        return build_state_basis(d)
    try:
        text = _path(name, "basis").read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read basis file: {exc}") from None
    try:
        basis = OperatorBasis.from_json(text)
    except KeyError as exc:
        raise ConfigError(f"basis file {name!r} lacks field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"basis file {name!r} is malformed: {exc}") from None
    if basis.dim != d:
        raise ConfigError(f"basis file has dimension {basis.dim}, config says {d}")
    return basis


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _protocol_spec(config: dict, n_rounds: int, rng, mode: str = "") -> ProtocolSpec:
    """The spec a protocol mode's config describes; a named ``mode`` needs charges."""
    d = _integer(_require(config, "dimension"), "dimension")
    if d * d > DEFAULT_DIMENSION_CAP:
        raise ConfigError(f"'dimension' {d}: round map side {d * d} "
                          f"exceeds cap {DEFAULT_DIMENSION_CAP}")
    basis = load_basis(config, d)
    charges = parse_charges(config, d) if mode else ()
    if mode and not charges:
        raise ConfigError(f"{mode} mode needs a 'charges' list")
    target = parse_unitary(_require(config, "unitary"), d, rng)
    rho = parse_state(config.get("state", {"plus": True}), d, rng)
    return ProtocolSpec(target=target, n_rounds=n_rounds, basis=basis, rho_s=rho, charges=charges)


def run_converge(config: dict, out: Path, rng, verbose: bool) -> int:
    n_list = _round_counts(config, "N_list")
    spec = _protocol_spec(config, n_list[0], rng)

    table = convergence_sweep(spec, n_list)
    (out / "converge.csv").write_text(table.to_csv())
    violations = table.violations()
    _write_json(out / "converge.json", {
        "schema": SCHEMA_VERSION,
        "mode": "converge",
        # NaN when no error rose above the fp floor; JSON has no NaN.
        "slope": None if np.isnan(table.slope) else table.slope,
        "intercept": None if np.isnan(table.intercept) else table.intercept,
        "rows": [
            {"N": r.n_rounds, "measured_error": r.measured_error,
             "analytic_bound": r.analytic_bound, "valid": r.valid}
            for r in table.rows
        ],
        "violations": len(violations),
    })
    print(f"converge: {len(table.rows)} round counts, slope {table.slope:+.3f}, "
          f"{len(violations)} bound violation(s)")
    return 1 if violations else 0


def run_conserve(config: dict, out: Path, rng, verbose: bool) -> int:
    spec = _protocol_spec(config, _integer(_require(config, "N"), "N"), rng, "conserve")
    result = run_protocol(spec)
    residual = result.ledger.max_closure_residual()
    ok = residual <= 1e-10
    _write_json(out / "conserve.json", {
        "schema": SCHEMA_VERSION,
        "mode": "conserve",
        "max_closure_residual": residual,
        "total_error": result.total_error,
        "total_bound": result.total_bound,
        "bound_valid": result.bound_valid,
        "ledger": result.ledger.to_json_dict(),
    })
    print(f"conserve: {result.ledger.frame.size} collision entries, "
          f"max closure residual {residual:.3e}")
    if result.bound_valid and result.total_error > result.total_bound:
        return 1
    return 0 if ok else 1


def run_thermo(config: dict, out: Path, rng, verbose: bool) -> int:
    d = _integer(_require(config, "dimension"), "dimension")
    charges = parse_charges(config, d)
    betas = _require(config, "betas")
    if not isinstance(betas, list):
        raise ConfigError(f"'betas' must be a list with one number per charge, got {betas!r}")
    spec = ThermalSpec(charges=charges, betas=[_float(b, "betas") for b in betas])
    bath_subsystems = _integer(config.get("bath_subsystems", 2), "bath_subsystems")
    # clipped exponent: any d >= 2 already exceeds the cap there, and a huge count stays cheap
    if d ** min(bath_subsystems, DEFAULT_DIMENSION_CAP.bit_length()) > DEFAULT_DIMENSION_CAP:
        raise ConfigError(f"'bath_subsystems' {bath_subsystems}: bath dimension "
                          f"{d}^{bath_subsystems} exceeds cap {DEFAULT_DIMENSION_CAP}")
    draws = _integer(config.get("draws", 200), "draws")

    tau, ln_z = thermal_state(spec, d)
    bath0 = functools.reduce(np.kron, [tau] * bath_subsystems)
    dims = [d] * bath_subsystems

    records = []
    worst = np.inf
    for _ in range(draws):
        u = haar_unitary(d**bath_subsystems, rng)
        after = u @ bath0 @ dagger(u)
        record = work_accounting(bath0, after, dims, bath=range(bath_subsystems), spec=spec)
        worst = min(worst, record.margin_bath_only)
        records.append(record.to_json_dict())

    ok = worst >= -SECOND_LAW_SLACK
    _write_json(out / "thermo.json", {
        "schema": SCHEMA_VERSION,
        "mode": "thermo",
        "ln_z": ln_z,
        "draws": draws,
        "worst_margin": worst,
        "records": records if verbose else records[:10],
    })
    print(f"thermo: {draws} random bath unitaries, worst second-law margin {worst:.3e}")
    return 0 if ok else 1


def run_battery(config: dict, out: Path, rng, verbose: bool) -> int:
    n_list = (_round_counts(config, "N_list") if "N_list" in config
              else [_integer(_require(config, "N"), "N")])
    spec = _protocol_spec(config, n_list[0], rng, "battery")
    works = implicit_work(spec.rho_s, spec.target @ spec.rho_s @ dagger(spec.target), spec.charges)

    runs = []
    for n, result in zip(n_list, _protocol_runs(spec, n_list)):
        checks = battery_deviation_check(result, works, result.total_error, spec.charges)
        runs.append({
            "N": n,
            "total_error": result.total_error,
            "works": works,
            "ledger_cumulative": result.ledger.cumulative(),
            "checks": {label: c.to_json_dict() for label, c in checks.items()},
        })

    _write_json(out / "battery.json", {
        "schema": SCHEMA_VERSION,
        "mode": "battery",
        "runs": runs,
    })
    worst = max(c["deviation"] for r in runs for c in r["checks"].values())
    print(f"battery: {len(runs)} run(s), worst ledger-vs-work deviation {worst:.3e}")
    return 0 if all(c["passed"] for r in runs for c in r["checks"].values()) else 1


MODES = {
    "converge": run_converge,
    "conserve": run_conserve,
    "thermo": run_thermo,
    "battery": run_battery,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swapframe",
        description="Run partial-swap reference-frame experiments from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default=None,
                        help="directory for CSV/JSON outputs (default: config 'out' field or '.')")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--mode", default=None, choices=sorted(MODES), help="override the config mode")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print(f"error: config must be a JSON object, got a {type(config).__name__}", file=sys.stderr)
        return 2

    mode = args.mode or config.get("mode")
    if mode not in MODES:
        print(f"error: unknown mode {mode!r}; expected one of {sorted(MODES)}", file=sys.stderr)
        return 2
    try:
        seed = _integer(config.get("seed", 0) if args.seed is None else args.seed, "seed", 0)
        out = Path(args.out) if args.out is not None else _path(config.get("out", "."), "out")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {str(out)!r}: {exc}") from None
        return MODES[mode](config, out, rng_from_seed(seed), args.verbose)
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
