"""Rewrite the golden corpus from the library in this checkout.

    python tests/golden/regen.py

The corpus pins output bytes across changes. For each config in ``configs/``, it runs
``swapframe.cli.main`` in process at every seed of ``SEEDS``, with and without ``--verbose``,
and keeps the files each run writes under ``out/<config>/seed-<s>[-verbose]/``. ``library.json``
holds seeded values the CLI does not write: ``run_protocol``'s final state, round errors and
ledger at d = 2..5 and 8, a ``work_accounting`` record with a system slot, a ``convergence_sweep``
at d = 2 over the bench's round counts, a charged ``_protocol_runs`` at d = 8 over N = 1..17
(each N's total error and ledger cumulative, and the final state at N = 17), and
``work_accounting_spectator``: a ``work_accounting`` record on dims (2, 3, 2, 2) with the system
on slots (0, 2), which are not a prefix, a spectator qutrit on slot 1 and the bath on slot 3. ``manifest.json``
holds each run's exit status and the numpy version and BLAS build that wrote the corpus.

``tests/test_golden.py`` reruns everything and compares bytes. A change that moves outputs on
purpose reruns this script and lists the files it changed (``git status tests/golden``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent
if __name__ == "__main__":  # as a script, import the library of this checkout
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))

from swapframe import cli  # noqa: E402
from swapframe.basis import build_state_basis  # noqa: E402
from swapframe.bounds import convergence_sweep  # noqa: E402
from swapframe.conservation import ExtensiveObservable  # noqa: E402
from swapframe.linalg import dagger, tensor  # noqa: E402
from swapframe.protocol import (ProtocolSpec, _protocol_runs,  # noqa: E402
                                run_protocol)
from swapframe.rand import haar_unitary, random_density, random_hermitian, rng_from_seed  # noqa: E402
from swapframe.thermo import ThermalSpec, thermal_state, work_accounting  # noqa: E402

SEEDS = (1, 2, 11)
CONFIGS = sorted(path.stem for path in (GOLDEN / "configs").glob("*.json"))


def run_name(config: str, seed: int, verbose: bool) -> str:
    return f"{config}/seed-{seed}{'-verbose' if verbose else ''}"


RUNS = [(config, seed, verbose) for config in CONFIGS for seed in SEEDS for verbose in (False, True)]


def run_cli(config: str, seed: int, verbose: bool, out: Path) -> int:
    """One corpus run into ``out``; returns the exit status. The working directory is this
    folder meanwhile, so a config names its basis file relative to it."""
    argv = ["--config", str(GOLDEN / "configs" / f"{config}.json"), "--out", str(out),
            "--seed", str(seed), *(["--verbose"] if verbose else [])]
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    finally:
        os.chdir(cwd)


def _pairs(m) -> list:
    return np.stack([m.real, m.imag], -1).tolist()


def _spec(rng, d: int, n: int, labels=("A",)) -> ProtocolSpec:
    """A Haar target and a random state at dimension d, auditing one random charge per label."""
    return ProtocolSpec(target=haar_unitary(d, rng), n_rounds=n, basis=build_state_basis(d),
                        rho_s=random_density(d, rng),
                        charges=tuple(ExtensiveObservable(random_hermitian(d, rng), label)
                                      for label in labels))


def _run_values(r) -> dict:
    return {"final_state": _pairs(r.final_state), "round_errors": list(r.round_errors),
            "total_error": r.total_error, "total_bound": r.total_bound,
            "bound_valid": r.bound_valid, "n_min": r.n_min,
            "ledger_system": r.ledger.system.ravel().tolist(),
            "ledger_frame": r.ledger.frame.ravel().tolist()}


def library_text() -> str:
    """Seeded library results, as JSON: ``run_protocol`` at d = 2..5 and 8, each auditing one
    random charge; one ``work_accounting`` record of a system qubit beside a two-qubit thermal
    bath; a charged ``_protocol_runs`` at d = 8 whose 17 round counts the slot sweep takes in
    two groups (16 + 1); an uncharged ``convergence_sweep`` at d = 2; and one ``work_accounting``
    record whose two system qubits (slots 0 and 2) straddle a spectator qutrit (slot 1) beside
    a one-qubit thermal bath (slot 3)."""
    rng = rng_from_seed(5)
    values = {}
    for d, n in ((2, 6), (3, 5), (4, 4)):
        values[f"run_protocol_d{d}"] = _run_values(run_protocol(_spec(rng, d, n)))
    spec = ThermalSpec(tuple(ExtensiveObservable(cli.PAULI[k], k) for k in "ZX"), (1.0, 0.5))
    tau = thermal_state(spec)[0]
    before = tensor(random_density(2, rng), tau, tau)
    u = haar_unitary(8, rng)
    record = work_accounting(before, u @ before @ dagger(u), [2, 2, 2], bath=(1, 2), spec=spec,
                             system=(0,))
    values["work_accounting_system"] = asdict(record)
    for d, n in ((5, 4), (8, 3)):  # drawn after the entries above, which keep their draws
        values[f"run_protocol_d{d}"] = _run_values(run_protocol(_spec(rng, d, n)))
    runs = _protocol_runs(_spec(rng, 8, 1, labels=("A0", "A1")), list(range(1, 18)))
    values["protocol_runs_d8"] = {"total_errors": [r.total_error for r in runs],
                                  "cumulative": [r.ledger.cumulative() for r in runs],
                                  "final_state": _pairs(runs[-1].final_state)}
    spec = ProtocolSpec(target=haar_unitary(2, rng), n_rounds=10, basis=build_state_basis(2),
                        rho_s=random_density(2, rng))
    values["convergence_sweep_d2"] = asdict(convergence_sweep(spec, [10, 20, 40, 80, 160]))
    spec = ThermalSpec(tuple(ExtensiveObservable(cli.PAULI[k], k) for k in "ZX"), (1.0, 0.5))
    before = tensor(random_density(2, rng), random_density(3, rng), random_density(2, rng),
                    thermal_state(spec)[0])
    u = haar_unitary(24, rng)
    record = work_accounting(before, u @ before @ dagger(u), [2, 3, 2, 2], bath=(3,), spec=spec,
                             system=(0, 2))
    values["work_accounting_spectator"] = asdict(record)
    return json.dumps(values, indent=2, sort_keys=True) + "\n"


def fingerprint() -> dict:
    """numpy's version and the BLAS it was built with, as ``numpy.show_config`` reports them;
    OpenBLAS's configuration string also names the CPU kernel it picked at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its configuration
        blas = {}
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


def main() -> None:
    out = GOLDEN / "out"
    shutil.rmtree(out, ignore_errors=True)
    exits = {}
    for config, seed, verbose in RUNS:
        name = run_name(config, seed, verbose)
        (out / name).mkdir(parents=True)
        exits[name] = run_cli(config, seed, verbose, out / name)
    (GOLDEN / "library.json").write_text(library_text())
    manifest = {"fingerprint": fingerprint(), "exits": exits}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"{len(exits)} runs, {sum(1 for p in out.rglob('*') if p.is_file())} files under {out}")


if __name__ == "__main__":
    main()
