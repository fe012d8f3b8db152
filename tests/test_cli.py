import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from swapframe import cli
from swapframe.basis import build_state_basis
from swapframe.cli import ConfigError, main, parse_matrix
from swapframe.conservation import ExtensiveObservable
from swapframe.linalg import dagger, exp_neg_i
from swapframe.protocol import ProtocolSpec, run_protocol
from swapframe.thermo import battery_deviation_check, implicit_work

GENERIC_STATE = [
    [[0.85, 0.0], [0.15, -0.1]],
    [[0.15, 0.1], [0.15, 0.0]],
]


# A bad config must be refused before any joint-space array exists: under this
# address-space limit an oversized allocation fails with MemoryError (exit 3).
ADDRESS_SPACE_LIMIT = 2 * 1024**3
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


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def out_of_memory(d, rng):
        raise MemoryError("cannot allocate the bath unitary")

    monkeypatch.setattr(cli, "haar_unitary", out_of_memory)
    config = write_config(tmp_path / "c.json", {
        "mode": "thermo", "dimension": 2, "charges": ["Z"], "betas": [1.0], "draws": 3,
    })
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["internal error: MemoryError: cannot allocate the bath unitary"]


def test_unreadable_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    assert main(["--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text("{not json")
    assert main(["--config", str(bad), "--out", str(tmp_path)]) == 2


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
], ids=["missing_basis_file", "scalar_betas", "top_level_list", "zero_bath_subsystems",
        "scalar_N_list", "list_dimension", "empty_N_list", "battery_scalar_N_list", "zero_draws",
        "list_scale", "list_state_basis", "list_seed", "nested_betas", "scalar_charges",
        "numeric_basis", "numeric_out", "list_charge_label", "out_names_a_file",
        "basis_file_without_states", "bath_over_dimension_cap", "round_map_over_dimension_cap",
        "nan_beta", "overflowing_beta"])
def test_bad_config_exits_2_without_traceback(tmp_path, doc, named):
    # "{tmp}" stands for the test's directory, which holds the config file itself
    doc = json.loads(json.dumps(doc).replace("{tmp}", tmp_path.as_posix()))
    config = write_config(tmp_path / "c.json", doc)
    # a config that sets its own output directory is run without --out, which would override it
    out = [] if isinstance(doc, dict) and "out" in doc else ["--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-m", "swapframe.cli", "--config", config, *out],
        capture_output=True, text=True, env=SINGLE_THREAD_ENV, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and named in proc.stderr


@pytest.mark.parametrize("basis_doc, field", [
    ({"dimension": 2}, "'states'"),
    ({"states": []}, "'dimension'"),
    ([1, 2], "malformed"),
    ({"dimension": 2, "states": [[[[1, 0]]]]}, "malformed"),
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
        assert run["checks"] == {label: c.to_json_dict() for label, c in checks.items()}


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
