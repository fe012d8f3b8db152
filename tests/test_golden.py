"""The golden corpus: CLI output files and seeded library values, pinned byte for byte.

``tests/golden/regen.py`` wrote them. Under another numpy version or BLAS build than the one
``golden/manifest.json`` names, the last bits of a float may move, so the files are compared by
value instead: numbers within 1e-12 relative (two numbers both below ``FIT_FLOOR`` are fp noise
and pass), keys, lengths, strings, flags and exit statuses exactly. A warning then says that
bytes were not compared. Nothing here is skipped.
"""

import json
import math
import shutil
import warnings

import pytest

from golden import regen
from swapframe.bounds import FIT_FLOOR

MANIFEST = json.loads((regen.GOLDEN / "manifest.json").read_text())
EXACT = MANIFEST["fingerprint"] == regen.fingerprint()


def _note_inexact():
    if not EXACT:
        warnings.warn(f"numpy/BLAS {regen.fingerprint()} is not the corpus's "
                      f"{MANIFEST['fingerprint']}: compared values within 1e-12, not bytes")


def _values(text: str, name: str):
    """A file's values: JSON as parsed, CSV as rows of cells, each a float where it reads as one."""
    if name.endswith(".json"):
        return json.loads(text)
    rows = [line.split(",") for line in text.splitlines()]
    return [[_number(cell) for cell in row] for row in rows]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _close(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_close, a, b))
    if type(a) in (int, float) and type(b) in (int, float):  # bool is neither
        return (math.isclose(a, b, rel_tol=1e-12, abs_tol=FIT_FLOOR)
                or (math.isnan(a) and math.isnan(b)))
    return type(a) is type(b) and a == b


def _mismatches(stored, fresh, exact: bool) -> list:
    """Names of the files of directory ``stored`` that ``fresh`` does not reproduce."""
    names = sorted(path.name for path in stored.iterdir())
    assert sorted(path.name for path in fresh.iterdir()) == names
    if exact:
        return [n for n in names if (stored / n).read_bytes() != (fresh / n).read_bytes()]
    return [n for n in names if not _close(_values((stored / n).read_text(), n),
                                           _values((fresh / n).read_text(), n))]


def test_corpus_holds_every_run_and_no_other():
    names = [regen.run_name(*run) for run in regen.RUNS]
    assert len(regen.CONFIGS) == 9 and len(names) == 54
    assert sorted(MANIFEST["exits"]) == sorted(names)
    stored = sorted(f"{p.parent.name}/{p.name}" for p in (regen.GOLDEN / "out").glob("*/*"))
    assert stored == sorted(names)


@pytest.mark.parametrize("config", regen.CONFIGS)
def test_cli_outputs_match_the_golden_corpus(config, tmp_path):
    for _, seed, verbose in (run for run in regen.RUNS if run[0] == config):
        name = regen.run_name(config, seed, verbose)
        out = tmp_path / name
        out.mkdir(parents=True)
        assert regen.run_cli(config, seed, verbose, out) == MANIFEST["exits"][name]
        assert _mismatches(regen.GOLDEN / "out" / name, out, EXACT) == [], name
    _note_inexact()


def test_library_values_match_the_golden_corpus():
    stored, fresh = (regen.GOLDEN / "library.json").read_text(), regen.library_text()
    assert fresh == stored if EXACT else _close(json.loads(stored), json.loads(fresh))
    _note_inexact()


def test_value_comparison_passes_rounding_and_catches_a_change(tmp_path):
    # the comparison another numpy or BLAS build takes, run here on stored files
    stored = regen.GOLDEN / "out" / regen.run_name("converge_floor", 1, False)
    fresh = tmp_path / "fresh"
    shutil.copytree(stored, fresh)
    doc = json.loads((fresh / "converge.json").read_text())
    doc["rows"][0]["analytic_bound"] *= 1 + 1e-13
    (fresh / "converge.json").write_text(json.dumps(doc))
    assert _mismatches(stored, fresh, exact=False) == []  # also: nan == nan in the CSV
    assert _mismatches(stored, fresh, exact=True) == ["converge.json"]
    for change in (lambda r: r.update(analytic_bound=r["analytic_bound"] * (1 + 1e-9)),
                   lambda r: r.update(valid=True), lambda r: r.update(measured_error=1e-13)):
        changed = json.loads(json.dumps(doc))
        change(changed["rows"][1])
        (fresh / "converge.json").write_text(json.dumps(changed))
        assert _mismatches(stored, fresh, exact=False) == ["converge.json"]
    (fresh / "converge.json").write_text(json.dumps(doc))
    csv = (fresh / "converge.csv").read_text()
    (fresh / "converge.csv").write_text(csv.replace("nan", "-1.0", 1))
    assert _mismatches(stored, fresh, exact=False) == ["converge.csv"]
