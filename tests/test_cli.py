import contextlib
import copy
import functools
import io
import json
import operator
import os
import resource
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapframe import cli
from swapframe.basis import build_state_basis
from swapframe.cli import ConfigError, main, parse_matrix
from swapframe.conservation import ExtensiveObservable
from swapframe.linalg import dagger, exp_neg_i
from swapframe.protocol import ProtocolSpec, run_protocol
from swapframe.thermo import SECOND_LAW_SLACK, battery_deviation_check, implicit_work

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


@pytest.mark.parametrize("error", [MemoryError, KeyError], ids=lambda error: error.__name__)
def test_internal_error_exits_3(tmp_path, capsys, monkeypatch, error):
    # a KeyError is a library fault, not a bad config: no config path raises one
    def fail(d, rng):
        raise error("cannot allocate the bath unitary")

    monkeypatch.setattr(cli, "haar_unitary", fail)
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
], ids=["missing_basis_file", "scalar_betas", "top_level_list", "zero_bath_subsystems",
        "scalar_N_list", "list_dimension", "empty_N_list", "battery_scalar_N_list", "zero_draws",
        "list_scale", "list_state_basis", "list_seed", "nested_betas", "scalar_charges",
        "numeric_basis", "numeric_out", "list_charge_label", "out_names_a_file",
        "basis_file_without_states", "bath_over_dimension_cap", "round_map_over_dimension_cap",
        "nan_beta", "overflowing_beta", "fractional_N", "string_N", "bool_draws",
        "negative_seed", "bool_scale", "string_scale", "bool_beta", "list_mode", "string_random",
        "string_plus", "huge_int_scale"])
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, request, doc, named):
    # "{tmp}" stands for the test's directory, which holds the config file itself
    doc = json.loads(json.dumps(doc).replace("{tmp}", tmp_path.as_posix()))
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
    assert "Traceback" not in err
    assert err.startswith("error: ") and named in err


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
)
FUZZ_POOL = (None, True, False, -1, 0, 1, 2, 3, 2.5, float("nan"), "Z", "converge", [], [1], {})
# A huge value goes only where it is refused before any work is done: 10**5 to a capped
# integer field, by its cap, and 10**400 to a number field, as out of float range.
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
        number = key == "scale" or parents[-1:] == ["betas"]
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
            assert _records_violation(json.loads(written.read_text())) == (code == 1)
