"""The benchmark's workloads: seeded inputs, the timed call, and output checks.

Each workload turns the seed into a fixed list of tasks during set-up, so the
library only ever receives generated arrays, specs and config files. A task
is one closed-loop call into ``swapframe``. After each call, and outside its
timer, the harness checks the output's invariants and digests it for the
determinism check; a seeded sample of tasks is also compared against the
numpy-only oracle in ``oracle.py``.

Why each workload exists, and which layers it exercises or bypasses, is
written in ``bench/README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import oracle
import swapframe as sf
import swapframe.cli

STATE_ATOL = 1e-10  # trace, Hermiticity and positivity of output states
CLOSURE_ATOL = 1e-10  # per-collision ledger closure
ORACLE_ATOL = 1e-10  # library against oracle
MARGIN_SLACK = 1e-9  # second-law margins

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def gaussian(d: int, rng) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def haar_unitary(d: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(gaussian(d, rng))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(d: int, rng) -> np.ndarray:
    g = gaussian(d, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(d: int, rng) -> np.ndarray:
    g = gaussian(d, rng)
    return (g + g.conj().T) / 2


def sha256_of(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def state_failures(rho: np.ndarray, what: str) -> list[str]:
    trace_defect, herm_defect, negativity = oracle.state_defects(rho)
    fails = []
    if trace_defect > STATE_ATOL:
        fails.append(f"{what}: trace off by {trace_defect:.3e}")
    if herm_defect > STATE_ATOL:
        fails.append(f"{what}: not Hermitian ({herm_defect:.3e})")
    if negativity > STATE_ATOL:
        fails.append(f"{what}: negative eigenvalue {-negativity:.3e}")
    return fails


def mismatch(what: str, got: float, want: float) -> list[str]:
    if abs(got - want) <= ORACLE_ATOL:
        return []
    return [f"{what}: library {got!r} vs oracle {want!r}"]


class Workload:
    """A seeded task list and the hooks the harness calls for each task.

    ``n_tasks`` is the task list's length; timed tasks cycle through it.
    ``nominal_task_s`` only fixes how many tasks the traced run executes, so
    that its counts depend on the seed and ``--seconds`` alone.
    """

    name = ""
    n_tasks = 16
    warmup = 2
    nominal_task_s = 0.1

    def __init__(self, tiny: bool):
        if tiny:
            self.n_tasks = 4

    def setup(self, rng, workdir: Path) -> list:
        raise NotImplementedError

    def run(self, task):
        """The timed call into the library."""
        raise NotImplementedError

    def finish(self, task, raw):
        """Turn the timed call's return value into the checked output (untimed)."""
        return raw

    def check(self, task, out) -> list[str]:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def oracle(self, task, out) -> list[str]:
        raise NotImplementedError

    def oracle_sample(self, rng) -> list[int]:
        return sorted(int(i) for i in rng.choice(self.n_tasks, size=min(self.n_tasks, 3), replace=False))

    def particles(self, task) -> int:
        """Frame particles the task consumes: sum of N·D over its protocol runs."""
        return 0

    def ledger_entries(self, task) -> int:
        """Ledger entries the task records: sum of N·D·K over its protocol runs."""
        return 0

    def out_bytes(self, out) -> int:
        return 0

    def exit_nonzero(self, out) -> int:
        return 0


class SweepQubit(Workload):
    """convergence_sweep at d=2 without charges: many cheap collisions."""

    name = "sweep_qubit"
    nominal_task_s = 0.14
    N_LIST = (10, 20, 40, 80, 160)

    def setup(self, rng, workdir):
        basis = sf.build_state_basis(2)
        return [
            sf.ProtocolSpec(target=haar_unitary(2, rng), n_rounds=self.N_LIST[0],
                            basis=basis, rho_s=random_density(2, rng))
            for _ in range(self.n_tasks)
        ]

    def run(self, spec):
        return sf.convergence_sweep(spec, self.N_LIST)

    def check(self, spec, table):
        fails = []
        if tuple(r.n_rounds for r in table.rows) != self.N_LIST:
            fails.append(f"sweep rows {[r.n_rounds for r in table.rows]}")
        if not all(np.isfinite(r.measured_error) for r in table.rows):
            fails.append("non-finite measured error")
        if table.violations():
            fails.append(f"{len(table.violations())} convergence-table violation(s)")
        return fails

    def digest(self, table):
        rows = [(r.n_rounds, r.measured_error, r.analytic_bound, r.valid) for r in table.rows]
        return sha256_of(rows, table.slope, table.intercept)

    def oracle(self, spec, table):
        fails = []
        for r in table.rows:
            want = oracle.protocol_error(spec.target, spec.rho_s, r.n_rounds)
            fails += mismatch(f"error at N={r.n_rounds}", r.measured_error, want)
        return fails

    def particles(self, spec):
        return sum(self.N_LIST) * spec.basis.size


class BatteryQudit(Workload):
    """run_protocol at d=4 with three charges, then the battery checks."""

    name = "battery_qudit"
    n_tasks = 18
    nominal_task_s = 0.1
    DIM = 4
    N_CHARGES = 3
    # Round counts cycle through 24..32 whatever the seed, so a seed changes
    # the matrices but not the amount of work.
    N_ROUNDS = tuple(range(24, 33))

    def setup(self, rng, workdir):
        basis = sf.build_state_basis(self.DIM)
        tasks = []
        for i in range(self.n_tasks):
            target = haar_unitary(self.DIM, rng)
            rho = random_density(self.DIM, rng)
            charges = tuple(sf.ExtensiveObservable(random_hermitian(self.DIM, rng), f"A{k}")
                            for k in range(self.N_CHARGES))
            n_rounds = self.N_ROUNDS[i % len(self.N_ROUNDS)]
            spec = sf.ProtocolSpec(target=target, n_rounds=n_rounds, basis=basis,
                                   rho_s=rho, charges=charges)
            tasks.append((spec, target @ rho @ target.conj().T))
        return tasks

    def run(self, task):
        spec, ideal = task
        result = sf.run_protocol(spec)
        works = sf.implicit_work(spec.rho_s, ideal, spec.charges)
        checks = sf.battery_deviation_check(result, works, result.total_error, spec.charges)
        return result, works, checks

    def check(self, task, out):
        result, _, checks = out
        fails = state_failures(result.final_state, "final state")
        residual = result.ledger.max_closure_residual()
        if residual > CLOSURE_ATOL:
            fails.append(f"ledger closure residual {residual:.3e}")
        fails += [f"battery check {label} failed" for label, c in checks.items() if not c.passed]
        return fails

    def digest(self, out):
        result, works, checks = out
        return sha256_of(
            result.final_state.tobytes(), result.round_errors, result.total_error,
            sorted(result.ledger.cumulative().items()), result.ledger.max_closure_residual(),
            sorted(works.items()),
            sorted((label, c.deviation, c.bound, c.passed) for label, c in checks.items()),
        )

    def oracle(self, task, out):
        spec, ideal = task
        result, works, _ = out
        mats = [c.matrix for c in spec.charges]
        final, gains = oracle.run_protocol(spec.target, spec.rho_s, spec.n_rounds, mats)
        diff = float(np.max(np.abs(result.final_state - final)))
        fails = [f"final state differs from the oracle's by {diff:.3e}"] if diff > ORACLE_ATOL else []
        cumulative = result.ledger.cumulative()
        for c, gain in zip(spec.charges, gains):
            fails += mismatch(f"ledger total {c.label}", cumulative[c.label], gain)
            fails += mismatch(f"work {c.label}", works[c.label], oracle.work(c.matrix, spec.rho_s, ideal))
        return fails

    def particles(self, task):
        spec, _ = task
        return spec.n_rounds * spec.basis.size

    def ledger_entries(self, task):
        spec, _ = task
        return spec.n_rounds * spec.basis.size * len(spec.charges)


class ThermoBath(Workload):
    """work_accounting on a system qubit plus four thermal bath qubits."""

    name = "thermo_bath"
    n_tasks = 12
    nominal_task_s = 0.07
    CALLS = 25
    DIMS = (2, 2, 2, 2, 2)
    SYSTEM = (0,)
    BATH = (1, 2, 3, 4)
    BETAS = (0.3, 0.5, 0.7)

    def setup(self, rng, workdir):
        labels = tuple(PAULI)
        self.spec = sf.ThermalSpec(charges=tuple(sf.ExtensiveObservable(PAULI[k], k) for k in labels),
                                   betas=self.BETAS)
        w, v = np.linalg.eigh(sum(b * PAULI[k] for b, k in zip(self.BETAS, labels)))
        p = np.exp(-(w - w[0]))
        tau = (v * (p / p.sum())) @ v.conj().T
        bath = tau
        for _ in self.BATH[1:]:
            bath = np.kron(bath, tau)
        tasks = []
        for _ in range(self.n_tasks):
            before = np.kron(random_density(2, rng), bath)
            afters = []
            for _ in range(self.CALLS):
                u = np.kron(np.eye(2), haar_unitary(bath.shape[0], rng))
                afters.append(u @ before @ u.conj().T)
            tasks.append((before, afters))
        return tasks

    def run(self, task):
        before, afters = task
        return [sf.work_accounting(before, after, self.DIMS, bath=self.BATH, spec=self.spec,
                                   system=self.SYSTEM)
                for after in afters]

    def check(self, task, records):
        fails = []
        for j, r in enumerate(records):
            if not all(np.isfinite(w) for w in r.works.values()):
                fails.append(f"call {j}: non-finite work")
            for what, margin in (("bath-only", r.margin_bath_only), ("with-system", r.margin_with_system)):
                if margin < -MARGIN_SLACK:
                    fails.append(f"call {j}: {what} second-law margin {margin:.3e}")
        return fails

    def digest(self, records):
        return sha256_of([(sorted(r.works.items()), r.delta_free_entropy, r.margin_bath_only,
                        r.margin_with_system) for r in records])

    def oracle(self, task, records):
        before, afters = task
        fails = []
        for label, a in PAULI.items():
            a_tot = oracle.lift(a, len(self.DIMS), range(len(self.DIMS)))
            for j, (after, r) in enumerate(zip(afters, records)):
                fails += mismatch(f"call {j} work {label}", r.works[label], oracle.work(a_tot, before, after))
        return fails


class CliMix(Workload):
    """swapframe.cli.main in process, cycling through the four modes."""

    name = "cli_mix"
    n_tasks = 20
    warmup = 4
    nominal_task_s = 0.09
    # Per call, thermo < battery < conserve < converge. Battery runs twice per
    # cycle so the median call lies inside the battery band rather than on the
    # edge between two modes, where it would jump between them from run to run.
    CYCLE = ("converge", "conserve", "thermo", "battery", "battery")
    CONVERGE_N = [10, 20, 40, 80, 160]
    CONSERVE_DIM = 3
    CONSERVE_N = 60
    BATTERY_N = [40, 80]

    def setup(self, rng, workdir):
        tasks = []
        for i in range(self.n_tasks):
            config = self._config(self.CYCLE[i % len(self.CYCLE)], rng)
            path = workdir / f"config_{i}.json"
            path.write_text(json.dumps(config))
            out = workdir / f"out_{i}"
            argv = ["--config", str(path), "--out", str(out), "--seed", str(int(rng.integers(2**31)))]
            tasks.append((config, argv, out))
        return tasks

    def _config(self, mode, rng):
        drawn = {"unitary": {"random": True}, "state": {"random": True}}
        if mode == "converge":
            return {"mode": mode, "dimension": 2, "N_list": self.CONVERGE_N, **drawn}
        if mode == "conserve":
            a = random_hermitian(self.CONSERVE_DIM, rng)
            pairs = [[[float(x.real), float(x.imag)] for x in row] for row in a]
            return {"mode": mode, "dimension": self.CONSERVE_DIM, "N": self.CONSERVE_N,
                    "charges": [{"label": "A", "matrix": pairs}], **drawn}
        if mode == "thermo":
            return {"mode": mode, "dimension": 2, "charges": ["X", "Y", "Z"],
                    "betas": [0.3, 0.5, 0.7], "bath_subsystems": 2, "draws": 40}
        return {"mode": mode, "dimension": 2, "N_list": self.BATTERY_N, "charges": ["X", "Z"], **drawn}

    def oracle_sample(self, rng):
        # One task of each mode, so every output format is checked.
        return [int(rng.choice([i for i in range(self.n_tasks) if self.CYCLE[i % len(self.CYCLE)] == mode]))
                for mode in dict.fromkeys(self.CYCLE)]

    def run(self, task):
        _, argv, _ = task
        with contextlib.redirect_stdout(io.StringIO()):
            return swapframe.cli.main(argv)

    def finish(self, task, code):
        _, _, out = task
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
        return code, files

    def check(self, task, out):
        config, _, _ = task
        code, files = out
        mode = config["mode"]
        if code != 0:
            return [f"{mode}: exit status {code}"]
        doc = json.loads(files[f"{mode}.json"])
        fails = []
        if doc.get("schema") != 1 or doc.get("mode") != mode:
            fails.append(f"{mode}: schema {doc.get('schema')!r}, mode {doc.get('mode')!r}")
        if mode == "converge":
            if "converge.csv" not in files:
                fails.append("converge: no CSV written")
            if doc["violations"]:
                fails.append(f"converge: {doc['violations']} violation(s)")
        elif mode == "conserve":
            if doc["max_closure_residual"] > CLOSURE_ATOL:
                fails.append(f"conserve: closure residual {doc['max_closure_residual']:.3e}")
        elif mode == "thermo":
            if doc["worst_margin"] < -MARGIN_SLACK:
                fails.append(f"thermo: worst margin {doc['worst_margin']:.3e}")
        elif not all(c["passed"] for run in doc["runs"] for c in run["checks"].values()):
            fails.append("battery: a deviation check failed")
        return fails

    def digest(self, out):
        code, files = out
        return sha256_of(code, sorted(files.items()))

    def oracle(self, task, out):
        # The CLI draws its random target and state from the seed itself, so the
        # oracle re-derives each summary field from the rows the CLI wrote.
        config, _, _ = task
        mode = config["mode"]
        doc = json.loads(out[1][f"{mode}.json"])
        if mode == "converge":
            rows = doc["rows"]
            slope = oracle.loglog_slope([r["N"] for r in rows], [r["measured_error"] for r in rows])
            return mismatch("converge slope", doc["slope"], slope)
        if mode == "conserve":
            ledger = doc["ledger"]
            fails = []
            entries = ledger.get("entries", [])
            for label, total in ledger["cumulative"].items():
                own = sum(e["frame_delta"] for e in entries if e["charge"] == label)
                fails += mismatch(f"conserve ledger total {label}", total, own)
            worst = max((abs(e["system_delta"] + e["frame_delta"]) for e in entries), default=0.0)
            return fails + mismatch("conserve closure", doc["max_closure_residual"], worst)
        if mode == "thermo":
            ln_z = oracle.log_partition([PAULI[k] for k in config["charges"]], config["betas"])
            return mismatch("thermo ln Z", doc["ln_z"], ln_z)
        fails = []
        for run in doc["runs"]:
            for label, c in run["checks"].items():
                own = abs(run["ledger_cumulative"][label] - run["works"][label])
                fails += mismatch(f"battery N={run['N']} deviation {label}", c["deviation"], own)
        return fails

    def _rounds(self, config) -> list[int]:
        mode = config["mode"]
        if mode == "converge":
            return list(config["N_list"])
        if mode == "conserve":
            return [config["N"]]
        if mode == "battery":
            return list(config["N_list"])
        return []

    def particles(self, task):
        config, _, _ = task
        return sum(self._rounds(config)) * (config["dimension"] ** 2 - 1)

    def ledger_entries(self, task):
        config, _, _ = task
        return self.particles(task) * len(config.get("charges", []))

    def out_bytes(self, out):
        return sum(len(b) for b in out[1].values())

    def exit_nonzero(self, out):
        return int(out[0] != 0)


WORKLOADS = {w.name: w for w in (SweepQubit, BatteryQudit, ThermoBath, CliMix)}
