import argparse
import contextlib
import copy
import functools
import io
import itertools
import json
import operator
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swapframe import cli, rand
from swapframe.basis import build_state_basis
from swapframe.bounds import convergence_sweep
from swapframe.cli import ConfigError, main, parse_matrix
from swapframe.conservation import ExtensiveObservable
from swapframe.linalg import dagger, exp_neg_i
from swapframe.protocol import BatteryLedger, ProtocolSpec, run_protocol
from swapframe.rand import haar_unitary, random_hermitian, rng_from_seed
from swapframe.thermo import (
    SECOND_LAW_SLACK,
    ThermalSpec,
    battery_deviation_check,
    implicit_work,
    thermal_state,
    work_accounting,
)

GENERIC_STATE = [
    [[0.85, 0.0], [0.15, -0.1]],
    [[0.15, 0.1], [0.15, 0.0]],
]


# A bad config must be refused before any joint-space array exists: under this
# address-space limit an oversized allocation fails with MemoryError (exit 3). Only
# the rows whose config asks for such an array run in a child process under it.
ADDRESS_SPACE_LIMIT = 2 * 1024**3
OVER_CAP_ROWS = {"bath_over_dimension_cap", "round_map_over_dimension_cap"}
SINGLE_THREAD_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_matrix_shorthands():
    np.testing.assert_array_equal(parse_matrix("Z"), np.diag([1.0, -1.0]))
    h = parse_matrix("H")
    np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-12)
    with pytest.raises(ConfigError):
        parse_matrix("Q")
    with pytest.raises(ConfigError):
        parse_matrix([[1.0, 2.0]])
    with pytest.raises(ConfigError):
        parse_matrix("Z", d=3)


def test_converge_mode(tmp_path):
    config = write_config(tmp_path / "c.json", {
        "mode": "converge",
        "dimension": 2,
        "N_list": [50, 100, 200, 400],
        "unitary": {"exp": "Z", "scale": np.pi / 4},
        "state": {"plus": True},
        "seed": 7,
    })
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0

    csv_lines = (out / "converge.csv").read_text().splitlines()
    assert csv_lines[0] == "N,measured_error,analytic_bound,valid,slope"
    assert len(csv_lines) == 5
    doc = json.loads((out / "converge.json").read_text())
    assert doc["schema"] == 1
    assert doc["violations"] == 0
    assert -1.2 <= doc["slope"] <= -0.8


def test_converge_csv_format(tmp_path):
    # one line per row, each field the library's value, and the slope repeated on every line
    config = write_config(tmp_path / "c.json", {
        "mode": "converge", "dimension": 2, "N_list": [50, 100, 200],
        "unitary": {"exp": "Z", "scale": 0.3},
    })
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    table = convergence_sweep(ProtocolSpec(target=exp_neg_i(parse_matrix("Z"), 0.3), n_rounds=50,
                                           basis=build_state_basis(2),
                                           rho_s=np.full((2, 2), 0.5)), [50, 100, 200])
    lines = (out / "converge.csv").read_text().splitlines()
    assert lines[0] == "N,measured_error,analytic_bound,valid,slope"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "50"
    assert float(first[1]) == table.rows[0].measured_error
    assert first[3] == "False"  # 50 rounds is below the validity threshold
    assert float(first[4]) == pytest.approx(table.slope)
    # the CSV's columns name the JSON rows' keys, with the same values
    rows = json.loads((out / "converge.json").read_text())["rows"]
    header = lines[0].split(",")[:4]
    assert [sorted(row) for row in rows] == [sorted(header)] * 3
    for row, line in zip(rows, lines[1:]):
        assert [repr(row[key]) for key in header] == line.split(",")[:4]


def test_converge_deterministic_outputs(tmp_path):
    doc = {
        "mode": "converge",
        "dimension": 2,
        "N_list": [50, 100, 200],
        "unitary": {"random": True},
        "state": {"random": True},
        "seed": 99,
    }
    config = write_config(tmp_path / "c.json", doc)
    for sub in ("run1", "run2"):
        assert main(["--config", config, "--out", str(tmp_path / sub)]) == 0
    for name in ("converge.csv", "converge.json"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b


def test_seed_override_changes_random_draws(tmp_path):
    doc = {
        "mode": "converge",
        "dimension": 2,
        "N_list": [50, 100, 200],
        "unitary": {"random": True},
        "seed": 1,
    }
    config = write_config(tmp_path / "c.json", doc)
    assert main(["--config", config, "--out", str(tmp_path / "a")]) == 0
    assert main(["--config", config, "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    assert (tmp_path / "a" / "converge.csv").read_bytes() != (
        tmp_path / "b" / "converge.csv"
    ).read_bytes()


def test_conserve_mode(tmp_path):
    config = write_config(tmp_path / "c.json", {
        "mode": "conserve",
        "dimension": 2,
        "N": 50,
        "unitary": {"exp": "X", "scale": 0.6},
        "state": {"basis": 0},
        "charges": ["X", "Y", "Z"],
    })
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    doc = json.loads((out / "conserve.json").read_text())
    assert doc["max_closure_residual"] <= 1e-10
    entries = doc["ledger"]["entries"]
    assert len(entries) == 50 * 3 * 3
    for e in entries:
        assert abs(e["system_delta"] + e["frame_delta"]) <= 1e-10


def test_thermo_mode(tmp_path):
    config = write_config(tmp_path / "c.json", {
        "mode": "thermo",
        "dimension": 2,
        "charges": ["Z", "X"],
        "betas": [1.0, 0.5],
        "draws": 25,
        "bath_subsystems": 2,
        "seed": 3,
    })
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    doc = json.loads((out / "thermo.json").read_text())
    assert doc["worst_margin"] >= -1e-9
    assert doc["ln_z"] == pytest.approx(np.log(2 * np.cosh(np.sqrt(1.25))))


THERMO_CONFIG = {"mode": "thermo", "dimension": 2, "charges": ["X", "Y", "Z"],
                 "betas": [0.3, 0.5, -0.7], "seed": 29}


@pytest.mark.parametrize("bath_subsystems, draws", [(2, 40), (4, 300)], ids=["2-qubit", "4-qubit"])
def test_thermo_mode_equals_the_per_draw_loop(tmp_path, bath_subsystems, draws):
    # the stacked draws (chunks of 256 at a 4-qubit bath) book what one draw at a time books
    config = write_config(tmp_path / "c.json",
                          {**THERMO_CONFIG, "bath_subsystems": bath_subsystems, "draws": draws})
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out), "--verbose"]) == 0
    doc = json.loads((out / "thermo.json").read_text())

    spec = ThermalSpec(tuple(ExtensiveObservable(cli.PAULI[k], k) for k in THERMO_CONFIG["charges"]),
                       THERMO_CONFIG["betas"])
    tau, ln_z = thermal_state(spec)
    bath0 = functools.reduce(np.kron, [tau] * bath_subsystems)
    rng = rng_from_seed(THERMO_CONFIG["seed"])
    records = []
    for _ in range(draws):
        u = haar_unitary(len(bath0), rng)
        records.append(asdict(work_accounting(bath0, u @ bath0 @ dagger(u), [2] * bath_subsystems,
                                              bath=range(bath_subsystems), spec=spec)))
    assert doc["ln_z"] == ln_z
    assert abs(doc["worst_margin"] - min(r["margin_bath_only"] for r in records)) <= 1e-12
    assert len(doc["records"]) == draws
    for got, want in zip(doc["records"], records):
        assert got["works"].keys() == want["works"].keys()
        for label, work in got["works"].items():
            assert abs(work - want["works"][label]) <= 1e-12
        for field in ("delta_free_entropy", "margin_bath_only", "margin_with_system"):
            assert abs(got[field] - want[field]) <= 1e-12
    # without --verbose the same run writes its first 10 records
    assert main(["--config", config, "--out", str(tmp_path / "short")]) == 0
    short = json.loads((tmp_path / "short" / "thermo.json").read_text())
    assert short["records"] == doc["records"][:10]
    assert short["worst_margin"] == doc["worst_margin"]


def test_stacked_haar_draw_is_the_sequential_stream():
    for d, k in ((2, 7), (16, 3)):
        rng = rng_from_seed(31)
        sequential = np.array([haar_unitary(d, rng) for _ in range(k)])
        stacked_rng = rng_from_seed(31)
        np.testing.assert_array_equal(rand._haar_unitaries(d, k, stacked_rng), sequential)
        assert stacked_rng.random() == rng.random()  # both left the stream at the same place


def test_thermo_mode_makes_one_qr_per_chunk_of_draws(tmp_path, monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    for bath_subsystems, draws, shapes in ((2, 40, [(40, 4, 4)]),
                                           (4, 300, [(256, 16, 16), (44, 16, 16)])):
        calls.clear()
        config = write_config(tmp_path / "c.json",
                              {**THERMO_CONFIG, "bath_subsystems": bath_subsystems, "draws": draws})
        assert main(["--config", config, "--out", str(tmp_path / "out")]) == 0
        assert calls == shapes


def _thermo_peak(tmp_path, draws):
    config = write_config(tmp_path / f"c{draws}.json", {
        "mode": "thermo", "dimension": 2, "charges": ["Z"], "betas": [1.0],
        "bath_subsystems": 4, "draws": draws,
    })
    tracemalloc.start()
    try:
        assert main(["--config", config, "--out", str(tmp_path / f"out{draws}")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_thermo_memory_does_not_grow_with_draws(tmp_path):
    # a 4-qubit bath takes 256 draws per chunk; without --verbose only 10 records are kept
    _thermo_peak(tmp_path, 1)  # first-call allocations are not part of either peak
    one_chunk = _thermo_peak(tmp_path, 256)
    assert _thermo_peak(tmp_path, 5 * 256) <= 1.5 * one_chunk


def test_battery_mode(tmp_path):
    config = write_config(tmp_path / "c.json", {
        "mode": "battery",
        "dimension": 2,
        "N_list": [100, 200],
        "unitary": {"exp": "X", "scale": np.pi / 4},
        "state": {"matrix": GENERIC_STATE},
        "charges": ["Z"],
    })
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    doc = json.loads((out / "battery.json").read_text())
    assert len(doc["runs"]) == 2
    for run in doc["runs"]:
        check = run["checks"]["Z"]
        assert check["passed"]
        assert check["deviation"] <= check["bound"]


def test_battery_json_with_an_escaped_label_is_the_stdlib_text(tmp_path):
    # the runs, records whose checks nest, go to the stdlib whole, "A%\n" label and all
    config = write_config(tmp_path / "c.json", {
        "mode": "battery", "dimension": 2, "N_list": [4, 8], "unitary": {"exp": "X"},
        "charges": [{"matrix": "Z", "label": "A%\n"}],
    })
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    text = (out / "battery.json").read_text()
    doc = json.loads(text)
    assert [list(run["checks"]) for run in doc["runs"]] == [["A%\n"], ["A%\n"]]
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_battery_duplicate_charge_labels_exit_2(tmp_path):
    config = write_config(tmp_path / "c.json", {
        "mode": "battery",
        "dimension": 2,
        "N": 20,
        "unitary": {"exp": "X", "scale": np.pi / 4},
        "charges": [{"matrix": "X", "label": "A"}, {"matrix": "Z", "label": "A"}],
    })
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2


def test_mode_override(tmp_path):
    config = write_config(tmp_path / "c.json", {
        "mode": "converge",
        "dimension": 2,
        "N": 30,
        "unitary": {"exp": "Y", "scale": 0.4},
        "charges": ["Z"],
    })
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out), "--mode", "conserve"]) == 0
    assert (out / "conserve.json").exists()


def test_missing_field_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {
        "mode": "converge",
        "N_list": [50, 100, 200],
        "unitary": {"exp": "Z"},
    })
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "dimension" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [0, 0.5])
def test_non_hermitian_exp_generator_exits_2(tmp_path, capsys, scale):
    config = write_config(tmp_path / "c.json", {
        "mode": "converge", "dimension": 2, "N_list": [10, 20, 40],
        "unitary": {"exp": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "scale": scale},
    })
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "Hermitian" in err[0]


@pytest.mark.parametrize("error", [MemoryError, KeyError], ids=lambda error: error.__name__)
def test_internal_error_exits_3(tmp_path, capsys, monkeypatch, error):
    # a KeyError is a library fault, not a bad config: no config path raises one
    def fail(d, count, rng):
        raise error("cannot allocate the bath unitary")

    monkeypatch.setattr(cli, "_haar_unitaries", fail)  # the stacked draw of the thermo mode
    config = write_config(tmp_path / "c.json", {
        "mode": "thermo", "dimension": 2, "charges": ["Z"], "betas": [1.0], "draws": 3,
    })
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"internal error: {error.__name__}: {error('cannot allocate the bath unitary')}"]


def test_unreadable_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    assert main(["--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text("{not json")
    assert main(["--config", str(bad), "--out", str(tmp_path)]) == 2
    # bytes that are not UTF-8, and an integer past Python's int digit limit
    for text in (b"\xff{}", b'{"dimension": 2' + b"0" * 5000 + b"}"):
        bad.write_bytes(text)
        assert main(["--config", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config: ")


def test_config_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    bad = tmp_path / "c.json"
    bad.write_text("[" * 200000)
    assert main(["--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read config: ")


def test_memory_error_while_reading_the_config_exits_3(tmp_path, capsys, monkeypatch):
    def fail(path):
        raise MemoryError("cannot hold the config")

    monkeypatch.setattr(Path, "read_text", fail)
    assert main(["--config", str(tmp_path / "c.json"), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "internal error: MemoryError: cannot hold the config"]


def test_unknown_mode_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {"mode": "frobnicate", "dimension": 2})
    assert main(["--config", config]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    config = write_config(tmp_path / "c.json", {
        "mode": "conserve",
        "dimension": 2,
        "N": 20,
        "unitary": {"exp": "Z", "scale": 0.3},
        "charges": ["X"],
    })
    proc = subprocess.run(
        [sys.executable, "-m", "swapframe.cli", "--config", config,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "conserve" in proc.stdout


# A charge whose ledger, works or thermal margin overflows float range: each such result once
# reached the output file as NaN or Infinity, and set exit 1 or 0.
BIG_CHARGE = {"matrix": [[[1.7e308, 0], [0, 0]], [[0, 0], [-1.7e308, 0]]], "label": "A"}


@pytest.mark.parametrize("doc, named", [
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"exp": "Z"},
      "basis": "no-such-basis.json"}, "no-such-basis.json"),
    ({"mode": "thermo", "dimension": 2, "charges": ["Z"], "betas": 1.0}, "betas"),
    ([1, 2], "object"),
    ({"mode": "thermo", "dimension": 2, "charges": ["Z"], "betas": [1.0],
      "bath_subsystems": 0}, "bath_subsystems"),
    ({"mode": "converge", "dimension": 2, "N_list": 5, "unitary": {"exp": "Z"}}, "N_list"),
    ({"mode": "converge", "dimension": [2], "N_list": [10, 20, 40], "unitary": {"exp": "Z"}},
     "dimension"),
    ({"mode": "converge", "dimension": 2, "N_list": [], "unitary": {"exp": "Z"}}, "N_list"),
    ({"mode": "battery", "dimension": 2, "N_list": 5, "unitary": {"exp": "Z"},
      "charges": ["Z"]}, "N_list"),
    ({"mode": "thermo", "dimension": 2, "charges": ["Z"], "betas": [1.0], "draws": 0}, "draws"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z", "scale": [1]},
      "charges": ["Z"]}, "scale"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z"},
      "state": {"basis": [0]}, "charges": ["Z"]}, "basis"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z"}, "charges": ["Z"],
      "seed": [1]}, "seed"),
    ({"mode": "thermo", "dimension": 2, "charges": ["Z"], "betas": [[1]]}, "betas"),
    ({"mode": "thermo", "dimension": 2, "charges": 5, "betas": [1.0]}, "charges"),
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"exp": "Z"},
      "basis": 5}, "basis"),
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"exp": "Z"},
      "out": 5}, "out"),
    ({"mode": "thermo", "dimension": 2, "charges": [{"matrix": "Z", "label": ["a"]}],
      "betas": [1.0]}, "label"),
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"exp": "Z"},
      "out": "{tmp}/c.json"}, "c.json"),
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"exp": "Z"},
      "basis": "{tmp}/c.json"}, "c.json"),
    ({"mode": "thermo", "dimension": 2, "charges": ["Z"], "betas": [1.0],
      "bath_subsystems": 40}, "bath_subsystems"),
    ({"mode": "converge", "dimension": 100000, "N_list": [10, 20, 40],
      "unitary": {"exp": "Z"}}, "dimension"),
    ({"mode": "thermo", "dimension": 2, "charges": ["Z", "X", "Y"],
      "betas": [float("nan"), 0.5, 0.7]}, "betas"),
    ({"mode": "thermo", "dimension": 2, "betas": [1e308],
      "charges": [{"matrix": [[[10, 0], [0, 0]], [[0, 0], [-10, 0]]], "label": "A"}]}, "betas"),
    ({"mode": "conserve", "dimension": 2, "N": 2.5, "unitary": {"exp": "Z"},
      "charges": ["Z"]}, "N"),
    ({"mode": "conserve", "dimension": 2, "N": "20", "unitary": {"exp": "Z"},
      "charges": ["Z"]}, "N"),
    ({"mode": "thermo", "dimension": 2, "charges": ["Z"], "betas": [1.0], "draws": True},
     "draws"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z"}, "charges": ["Z"],
      "seed": -1}, "seed"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z", "scale": True},
      "charges": ["Z"]}, "scale"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z", "scale": "0.5"},
      "charges": ["Z"]}, "scale"),
    ({"mode": "thermo", "dimension": 2, "charges": ["Z"], "betas": [True]}, "betas"),
    ({"mode": ["converge"], "dimension": 2, "N_list": [10, 20, 40], "unitary": {"exp": "Z"}},
     "mode"),
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"random": "no"}},
     "random"),
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"exp": "Z"},
      "state": {"plus": "no"}}, "plus"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z", "scale": 10**400},
      "charges": ["Z"]}, "scale"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z", "scale": float("nan")},
      "charges": ["Z"]}, "scale"),
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20],
      "unitary": {"exp": "Z", "scale": float("-inf")}}, "scale"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z"}, "charges": ["Z"],
      "state": {"matrix": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]}}, "not square"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z"}, "charges": ["Z"],
      "state": {"basis": 2}}, "out of range"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z"}, "charges": ["Z"],
      "state": {}}, "state spec"),
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"exp": "Z"},
      "basis": "{tmp}/basis3.json"}, "config says 2"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z"}, "charges": ["Z"],
      "state": {"matrix": [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]]}}, "cannot parse matrix"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z"},
      "charges": [[[[10**400, 0], [0, 0]], [[0, 0], [-1, 0]]]]}, "cannot parse matrix"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z"},
      "charges": [[[[True, False], [0, 0]], [[0, 0], [False, False]]]]}, "true or false"),
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20, 40],
      "unitary": {"matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]}}, "true or false"),
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20, 40],
      "unitary": {"exp": [[[1, 0], [0, 0]], [[0, 0], [0, False]]]}}, "true or false"),
    ({"mode": "conserve", "dimension": 2, "N": 20, "unitary": {"exp": "Z"}, "charges": ["Z"],
      "state": {"matrix": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]}}, "true or false"),
    ({"mode": "thermo", "dimension": 1, "charges": [[[[1, 0]]]], "betas": [1.0],
      "bath_subsystems": 3}, "'dimension' must be an integer >= 2"),
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"exp": "Z"},
      "basis": "{tmp}/deep.json"}, "deep.json' is malformed"),
    ({"mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"exp": "Z"},
      "basis": "{tmp}/latin1.json"}, "latin1.json' is malformed"),
    ({"mode": "conserve", "dimension": 2, "N": 3, "unitary": {"exp": "X", "scale": 1.5707963},
      "state": {"basis": 0}, "charges": [BIG_CHARGE]}, "not JSON compliant"),
    ({"mode": "battery", "dimension": 2, "N": 20, "unitary": {"exp": "X", "scale": 0.7},
      "charges": [BIG_CHARGE]}, "not JSON compliant"),
    ({"mode": "thermo", "dimension": 2, "betas": [1e-300], "charges": [BIG_CHARGE], "draws": 3},
     "not JSON compliant"),
], ids=["missing_basis_file", "scalar_betas", "top_level_list", "zero_bath_subsystems",
        "scalar_N_list", "list_dimension", "empty_N_list", "battery_scalar_N_list", "zero_draws",
        "list_scale", "list_state_basis", "list_seed", "nested_betas", "scalar_charges",
        "numeric_basis", "numeric_out", "list_charge_label", "out_names_a_file",
        "basis_file_without_states", "bath_over_dimension_cap", "round_map_over_dimension_cap",
        "nan_beta", "overflowing_beta", "fractional_N", "string_N", "bool_draws",
        "negative_seed", "bool_scale", "string_scale", "bool_beta", "list_mode", "string_random",
        "string_plus", "huge_int_scale", "nan_scale", "infinite_scale", "non_square_state",
        "basis_state_out_of_range", "empty_state_spec", "basis_file_of_another_dimension",
        "huge_int_state_matrix", "huge_int_charge_matrix", "bool_charge_entry",
        "bool_unitary_matrix_entry", "bool_exp_entry", "bool_state_matrix_entry",
        "thermo_dimension_1", "basis_file_nested_past_the_recursion_limit",
        "basis_file_not_utf8", "conserve_ledger_overflows", "battery_works_overflow",
        "thermo_margin_overflows"])
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, request, doc, named):
    # "{tmp}" stands for the test's directory, which holds the config file itself, a valid
    # basis file of dimension 3, and two that no JSON reader takes: one nested past the
    # recursion limit and one that is not UTF-8
    doc = json.loads(json.dumps(doc).replace("{tmp}", tmp_path.as_posix()))
    (tmp_path / "basis3.json").write_text(build_state_basis(3).to_json())
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    (tmp_path / "latin1.json").write_bytes(b'{"dimension": 2, "states": "\xe9"}')
    config = write_config(tmp_path / "c.json", doc)
    # a config that sets its own output directory is run without --out, which would override it
    out = [] if isinstance(doc, dict) and "out" in doc else ["--out", str(tmp_path / "out")]
    if request.node.callspec.id in OVER_CAP_ROWS:
        proc = subprocess.run(
            [sys.executable, "-m", "swapframe.cli", "--config", config, *out],
            capture_output=True, text=True, env=SINGLE_THREAD_ENV, preexec_fn=_limit_address_space,
        )
        code, err = proc.returncode, proc.stderr
    else:
        code, err = main(["--config", config, *out]), capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("error: ") and named in err
    if isinstance(doc, dict) and "mode" in doc:
        assert not (tmp_path / "out" / f"{doc['mode']}.json").exists()


@pytest.mark.parametrize("n_list", [[10, 10, 10], [10, 20, 20], [40, 20, 10]])
def test_converge_repeated_round_counts_exit_2(tmp_path, capsys, n_list):
    # a repeated N once passed the ascending check, and the fit made up a slope from one point
    config = write_config(tmp_path / "c.json", {
        "mode": "converge", "dimension": 2, "N_list": n_list,
        "unitary": {"random": True}, "state": {"random": True},
    })
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "strictly ascending" in err[0]
    assert not (tmp_path / "out" / "converge.json").exists()


def test_negative_seed_option_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {
        "mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"random": True},
    })
    assert main(["--config", config, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: 'seed'")


@pytest.mark.parametrize("basis_doc, field", [
    ({"dimension": 2}, "'states'"),
    ({"states": []}, "'dimension'"),
    ([1, 2], "malformed"),
    ({"dimension": 2, "states": [[[[1, 0]]]]}, "malformed"),
    ({"dimension": 2.9, "states": []}, "basis dimension"),
    ({"dimension": "2", "states": []}, "basis dimension"),
    ({**json.loads(build_state_basis(2).to_json()), "schema": 7}, "schema"),
    ({"dimension": 2, "states": [[[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]]] * 3}, "malformed"),
    ({"dimension": 2, "states": [[[[True, 0], [0, 0]], [[0, 0], [0, 0]]],
                                 [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
                                 [[[0.5, 0], [0, -0.5]], [[0, 0.5], [0.5, 0]]]]}, "true or false"),
])
def test_malformed_basis_file_error_names_file_and_field(tmp_path, capsys, basis_doc, field):
    basis = write_config(tmp_path / "basis.json", basis_doc)
    config = write_config(tmp_path / "c.json", {
        "mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"exp": "Z"},
        "basis": basis,
    })
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "basis.json" in err and field in err


def test_battery_runs_match_single_protocol_runs(tmp_path):
    n_list = [20, 40, 80]
    config = write_config(tmp_path / "c.json", {
        "mode": "battery", "dimension": 2, "N_list": n_list,
        "unitary": {"exp": "X", "scale": 0.7}, "state": {"matrix": GENERIC_STATE},
        "charges": ["Z", "Y"],
    })
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    runs = json.loads((out / "battery.json").read_text())["runs"]

    target, rho = exp_neg_i(parse_matrix("X"), 0.7), parse_matrix(GENERIC_STATE)
    charges = tuple(ExtensiveObservable(parse_matrix(name), name) for name in ("Z", "Y"))
    works = implicit_work(rho, target @ rho @ dagger(target), charges)
    assert [run["N"] for run in runs] == n_list
    for run, n in zip(runs, n_list):
        result = run_protocol(ProtocolSpec(target=target, n_rounds=n, basis=build_state_basis(2),
                                           rho_s=rho, charges=charges))
        checks = battery_deviation_check(result, works, result.total_error, charges)
        assert run["total_error"] == result.total_error
        assert run["works"] == works
        assert run["ledger_cumulative"] == result.ledger.cumulative()
        assert run["checks"] == {label: asdict(c) for label, c in checks.items()}


def test_conserve_matches_a_protocol_run(tmp_path):
    config = write_config(tmp_path / "c.json", {
        "mode": "conserve", "dimension": 2, "N": 30,
        "unitary": {"exp": "X", "scale": 0.7}, "state": {"matrix": GENERIC_STATE},
        "charges": ["Z", "Y"],
    })
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    doc = json.loads((out / "conserve.json").read_text())

    charges = tuple(ExtensiveObservable(parse_matrix(name), name) for name in ("Z", "Y"))
    result = run_protocol(ProtocolSpec(target=exp_neg_i(parse_matrix("X"), 0.7), n_rounds=30,
                                       basis=build_state_basis(2),
                                       rho_s=parse_matrix(GENERIC_STATE), charges=charges))
    assert doc["total_error"] == result.total_error
    assert doc["total_bound"] == result.total_bound
    assert doc["bound_valid"] == result.bound_valid
    assert doc["max_closure_residual"] == result.ledger.max_closure_residual()
    assert sorted(doc["ledger"]) == ["cumulative", "entries", "max_closure_residual"]
    assert doc["ledger"]["cumulative"] == result.ledger.cumulative()
    assert doc["ledger"]["max_closure_residual"] == result.ledger.max_closure_residual()
    assert len(doc["ledger"]["entries"]) == result.ledger.frame.size == 30 * 3 * 2


def test_conserve_json_entries_follow_the_ledger_arrays(tmp_path):
    # the entries in (round, slot, charge) order, each read by its own index
    rng = rng_from_seed(70)
    charges = [{"label": f"A{i}", "matrix": _pairs(random_hermitian(2, rng))} for i in range(2)]
    doc = {"mode": "conserve", "dimension": 2, "N": 4, "seed": 3, "unitary": {"random": True},
           "state": {"random": True}, "charges": charges}
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    ledger = run_protocol(cli._protocol_spec(doc, 4, rng_from_seed(3), charged=True)).ledger
    expected = [{"round": t + 1, "slot": k, "charge": ledger.charges[j],
                 "system_delta": float(ledger.system[t, k, j]),
                 "frame_delta": float(ledger.frame[t, k, j])}
                for t, k, j in np.ndindex(ledger.frame.shape)]
    entries = json.loads((out / "conserve.json").read_text())["ledger"]["entries"]
    assert entries == expected and len(entries) == 4 * 3 * 2
    assert all(type(e["system_delta"]) is float and type(e["round"]) is int for e in entries)


def test_conserve_encodes_no_list_and_each_label_once(tmp_path, monkeypatch):
    # the entries are one row template filled by one %: json.dumps sees no list, and a label is
    # encoded once however many entries carry it
    encoded, dumps = [], json.dumps

    def recording(obj, *args, **kwargs):
        encoded.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", recording)
    config = write_config(tmp_path / "c.json", {
        "mode": "conserve", "dimension": 2, "N": 7, "unitary": {"exp": "X", "scale": 0.7},
        "state": {"matrix": GENERIC_STATE}, "charges": ["Z", {"label": "%s", "matrix": "Y"}],
    })
    status = main(["--config", config, "--out", str(tmp_path / "out")])
    monkeypatch.undo()
    assert status == 0
    entries = json.loads((tmp_path / "out" / "conserve.json").read_text())["ledger"]["entries"]
    assert len(entries) == 7 * 3 * 2 and {e["charge"] for e in entries} == {"Z", "%s"}
    assert not any(isinstance(obj, (list, tuple)) for obj in encoded)
    assert [obj for obj in encoded if obj in ("Z", "%s")] == ["Z", "%s"]


def _pairs(matrix):
    return [[[float(x.real), float(x.imag)] for x in row] for row in matrix]


def test_conserve_json_with_escaped_labels_is_the_stdlib_text(tmp_path):
    # labels that the writer's %-template and the encoder must both carry through
    rng = rng_from_seed(17)
    labels = ['q"%s', "é\u2028"]
    doc = {"mode": "conserve", "dimension": 3, "N": 6, "seed": 4, "unitary": {"random": True},
           "state": {"random": True},
           "charges": [{"label": label, "matrix": _pairs(random_hermitian(3, rng))}
                       for label in labels]}
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    text = (out / "conserve.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    # the entries of the same run, laid out here by (round, slot, charge) from the arrays
    ledger = run_protocol(cli._protocol_spec(doc, 6, rng_from_seed(4), charged=True)).ledger
    n, size, _ = ledger.frame.shape
    assert ledger.charges == tuple(labels) and (n, size) == (6, 8)
    expected = [{"round": t + 1, "slot": k, "charge": label,
                 "system_delta": float(ledger.system[t, k, j]),
                 "frame_delta": float(ledger.frame[t, k, j])}
                for t, k, (j, label) in itertools.product(range(n), range(size),
                                                          enumerate(labels))]
    assert json.loads(text)["ledger"]["entries"] == expected


# Each exit-1 rule, driven by an injected fault at 10x and at 0.1x its threshold. The thresholds
# are written here as literals, not imported, so a loosened constant in the package fails them.
def _run_mode(tmp_path, doc):
    out = tmp_path / "out"
    status = main(["--config", write_config(tmp_path / "c.json", doc), "--out", str(out)])
    return status, json.loads((out / f"{doc['mode']}.json").read_text())


@pytest.mark.parametrize("residual, status", [(1e-9, 1), (1e-11, 0)], ids=["10x", "0.1x"])
def test_conserve_exits_1_past_a_closure_residual_of_1e_10(tmp_path, monkeypatch, residual, status):
    runs = cli._protocol_runs

    def faulty(spec, n_list):  # one particle's charge gain moved off the system's loss
        results = runs(spec, n_list)
        for result in results:
            result.ledger.frame[0, 0, 0] += residual
        return results

    monkeypatch.setattr(cli, "_protocol_runs", faulty)
    got, doc = _run_mode(tmp_path, {
        "mode": "conserve", "dimension": 2, "N": 50, "unitary": {"exp": "X", "scale": 0.6},
        "state": {"basis": 0}, "charges": ["X", "Z"]})
    assert got == status
    assert doc["max_closure_residual"] == pytest.approx(residual, rel=1e-3)


@pytest.mark.parametrize("margin, status", [(-1e-8, 1), (-1e-10, 0)], ids=["10x", "0.1x"])
def test_thermo_exits_1_past_a_second_law_margin_of_minus_1e_9(tmp_path, monkeypatch, margin,
                                                                 status):
    book = cli._work_records

    def faulty(*args):  # the first draw's record books a second-law violation of -margin
        first, *rest = book(*args)
        return [replace(first, margin_bath_only=margin), *rest]

    monkeypatch.setattr(cli, "_work_records", faulty)
    got, doc = _run_mode(tmp_path, {**THERMO_CONFIG, "draws": 20})
    assert got == status
    assert doc["worst_margin"] == margin


@pytest.mark.parametrize("excess, status", [(1e-11, 1), (1e-13, 0)], ids=["10x", "0.1x"])
def test_battery_fails_a_deviation_1e_12_past_its_bound(tmp_path, monkeypatch, excess, status):
    runs = cli._protocol_runs

    def faulty(spec, n_list):  # the ledger moved to its bound, total_error·||Z||, plus ``excess``
        works = implicit_work(spec.rho_s, spec.target @ spec.rho_s @ dagger(spec.target),
                              spec.charges)
        results = runs(spec, n_list)
        for result in results:
            cumulative = result.ledger.cumulative()["Z"]
            result.ledger.frame[0, 0, 0] += works["Z"] + result.total_error - cumulative + excess
        return results

    monkeypatch.setattr(cli, "_protocol_runs", faulty)
    got, doc = _run_mode(tmp_path, {
        "mode": "battery", "dimension": 2, "N": 100, "unitary": {"exp": "X", "scale": np.pi / 4},
        "state": {"matrix": GENERIC_STATE}, "charges": ["Z"]})
    assert got == status
    check = doc["runs"][0]["checks"]["Z"]
    assert check["bound"] > 1e-4  # a real bound, not a zero one
    assert check["deviation"] - check["bound"] == pytest.approx(excess, rel=1e-2)
    assert check["passed"] is (status == 0)


def _reject_constant(name):
    raise ValueError(f"output is not strict JSON: contains {name}")


def test_thermo_output_is_strict_json(tmp_path):
    config = write_config(tmp_path / "c.json", {
        "mode": "thermo", "dimension": 2, "charges": ["X", "Z"], "betas": [0.4, 0.7],
        "bath_subsystems": 2, "draws": 5, "seed": 3,
    })
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "swapframe.cli", "--config", config, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads((out / "thermo.json").read_text(), parse_constant=_reject_constant)
    assert doc["draws"] == 5 and len(doc["records"]) == 5


def test_converge_output_is_strict_json_at_the_fp_floor(tmp_path):
    # an identity target leaves every error at the fp floor, so no rate can be fit
    config = write_config(tmp_path / "c.json", {
        "mode": "converge", "dimension": 2, "N_list": [10, 20, 40], "unitary": {"matrix": "I"},
    })
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    doc = json.loads((out / "converge.json").read_text(), parse_constant=_reject_constant)
    assert doc["slope"] is None and doc["intercept"] is None
    assert len(doc["rows"]) == 3


CONSERVE_CONFIG = {"mode": "conserve", "dimension": 2, "N": 1, "unitary": {"exp": "Z"},
                   "charges": ["Z"]}
LEDGER_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e-5, 1e16, 1e22])
LEDGER_LABELS = st.sampled_from(["%", "%s", '"', "\\", "é", "\u2028", "%%d", "entries",
                                 'x"entries": []']) | st.text(max_size=3)


@st.composite
def _ledgers(draw):
    """A (round, slot, charge) ledger of finite float64 deltas under distinct labels."""
    labels = draw(st.lists(LEDGER_LABELS, min_size=1, max_size=3, unique=True))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), len(labels))
    system, frame = (draw(hnp.arrays(np.float64, shape, elements=LEDGER_FLOATS)) for _ in range(2))
    return BatteryLedger(tuple(labels), system, frame)


@settings(max_examples=40, deadline=None)
@given(_ledgers())
@example(BatteryLedger(("%", "%s", '"', "\\", "é", "\u2028"), np.full((1, 1, 6), -0.0),
                       np.array([[[5e-324, 1e-5, 1e16, 1e22, -1e22, 0.1]]])))
@example(BatteryLedger(("entries", 'x"entries": []'), np.zeros((1, 2, 2)),
                       np.array([[[0.5, 1.5], [-0.5, 2.5]]])))
@example(BatteryLedger(("A",), np.zeros((2, 1, 1)), np.full((2, 1, 1), 1.7e308)))
def test_conserve_entries_are_the_stdlib_indented_text(ledger):
    # the whole conserve.json of a drawn ledger, with its entries spliced into the stdlib's text;
    # the protocol run is replaced by one that returns the drawn ledger
    result = SimpleNamespace(ledger=ledger, total_error=0.0, total_bound=1.0, bound_valid=True)
    with np.errstate(over="ignore", invalid="ignore"):  # the summaries of a huge ledger
        residual, cumulative = ledger.max_closure_residual(), ledger.cumulative()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_protocol_runs", lambda spec, n_list: [result]):
        out, stdout, stderr = Path(tmp, "out"), io.StringIO(), io.StringIO()
        config = write_config(Path(tmp, "c.json"), CONSERVE_CONFIG)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--config", config, "--out", str(out)])
        if not np.isfinite([residual, *cumulative.values()]).all():
            # an overflowing sum is refused by the one dump, before any file is written
            assert code == 2 and not (out / "conserve.json").exists()
            err = stderr.getvalue().splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            return
        text = (out / "conserve.json").read_text()
    assert code == (0 if residual <= 1e-10 else 1)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    records = [{"round": t + 1, "slot": k, "charge": ledger.charges[j],
                "system_delta": ledger.system[t, k, j].item(),
                "frame_delta": ledger.frame[t, k, j].item()}
               for t, k, j in np.ndindex(ledger.frame.shape)]
    assert json.loads(text)["ledger"]["entries"] == records


def test_main_builds_no_argument_parser(tmp_path, monkeypatch):
    # the parser is built once, at import; a call only parses
    def refuse(*args, **kwargs):
        raise AssertionError("main built an ArgumentParser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    config = write_config(tmp_path / "c.json", {
        "mode": "conserve", "dimension": 2, "N": 3, "unitary": {"matrix": "H"}, "charges": ["Z"],
    })
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == 0


# Small valid configs, one per mode, holding every optional field so the fuzz test
# can overwrite it too.
FUZZ_BASES = (
    {"mode": "converge", "dimension": 2, "N_list": [2, 4, 8], "seed": 0, "basis": "default",
     "unitary": {"exp": "Z", "scale": 0.5}, "state": {"plus": True}},
    {"mode": "conserve", "dimension": 2, "N": 3, "unitary": {"random": True},
     "state": {"basis": 0}, "charges": ["Z", {"matrix": "X", "label": "B"}]},
    {"mode": "thermo", "dimension": 2, "charges": ["Z"], "betas": [0.5], "bath_subsystems": 2,
     "draws": 3},
    {"mode": "battery", "dimension": 2, "N_list": [4, 8], "unitary": {"matrix": "H"},
     "state": {"random": True}, "charges": ["X", {"matrix": "Y"}]},
    {"mode": "conserve", "dimension": 2, "N": 3,
     "unitary": {"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
     "state": {"matrix": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]},
     "charges": [{"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], "label": "Z"}]},
)
FUZZ_POOL = (None, True, False, -1, 0, 1, 2, 3, 2.5, float("nan"), "Z", "converge", [], [1], {})
# A huge value goes only where it is refused before any work is done: 10**5 to a capped
# integer field, by its cap, and 10**400 to a number field (a scale, a beta or an entry of
# an [re, im] pair, the last of three list indices in a row), as out of float range.
CAPPED_FIELDS = {"dimension", "bath_subsystems"}


def _fuzz_paths(node, path=()):
    """The key path of every value inside a config, at any depth."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _fuzz_paths(child, path + (key,))


def _records_violation(doc):
    if doc["mode"] == "converge":
        return doc["violations"] > 0
    if doc["mode"] == "conserve":
        return doc["max_closure_residual"] > 1e-10 or (
            doc["bound_valid"] and doc["total_error"] > doc["total_bound"])
    if doc["mode"] == "thermo":
        return doc["worst_margin"] < -SECOND_LAW_SLACK
    return not all(c["passed"] for run in doc["runs"] for c in run["checks"].values())


@settings(max_examples=150)
@given(st.data())
def test_fuzzed_config_keeps_the_exit_contract(data):
    config = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(data.draw(st.integers(1, 2))):
        *parents, key = data.draw(st.sampled_from(list(_fuzz_paths(config))))
        pool = FUZZ_POOL + ((10**5,) if key in CAPPED_FIELDS else ())
        pair_entry = len(parents) >= 2 and all(type(k) is int for k in (*parents[-2:], key))
        number = key == "scale" or parents[-1:] == ["betas"] or pair_entry
        huge = number and data.draw(st.booleans())
        value = 10**400 if huge else copy.deepcopy(data.draw(st.sampled_from(pool)))
        functools.reduce(operator.getitem, parents, config)[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        out, stdout, stderr = Path(tmp, "out"), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--config", write_config(Path(tmp, "c.json"), config), "--out", str(out)])
        assert code in (0, 1, 2), stderr.getvalue()
        if code == 2:
            err = stderr.getvalue().splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
        if code in (0, 1):
            (written,) = out.glob("*.json")
            text = written.read_text()
            assert _records_violation(json.loads(text)) == (code == 1)
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
