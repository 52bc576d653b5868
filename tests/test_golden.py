"""Golden outputs: the six shipped configs must reproduce tests/golden/.

The files were written by ``onewaysim <command> --config configs/<name>.yaml
--out tests/golden/<name>``.  Structure, keys, strings and integers must
match exactly; JSON floats to 1e-12 and CSV floats (printed with %.12g) to
1e-11.  A change that moves a value on purpose regenerates the files with
the same command and says so in CHANGES.md.
"""

import csv
import json
import math
from pathlib import Path

import pytest
import yaml

from onewaysim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = (
    "witness_ideal",
    "witness_fitted",
    "grover",
    "gate_horseshoe",
    "gate_box",
    "visibility",
)

JSON_TOL = 1e-12
CSV_TOL = 1e-11


def _compare_json(expected, actual, where="$"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), where
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            _compare_json(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for index, (e, a) in enumerate(zip(expected, actual)):
            _compare_json(e, a, f"{where}[{index}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), where
        assert math.isclose(actual, expected, rel_tol=0.0, abs_tol=JSON_TOL), (
            where, expected, actual
        )
    else:  # str, int, bool, None: exact, type included
        assert type(actual) is type(expected) and actual == expected, (
            where, expected, actual
        )


def _is_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _compare_cell(expected: str, actual: str, where: str) -> None:
    if _is_int(expected) and _is_int(actual):
        assert actual == expected, where
        return
    try:
        e, a = float(expected), float(actual)
    except ValueError:
        assert actual == expected, where
        return
    assert math.isclose(a, e, rel_tol=0.0, abs_tol=CSV_TOL), (where, expected, actual)


def _compare_csv(expected_path: Path, actual_path: Path) -> None:
    with open(expected_path, newline="", encoding="utf-8") as handle:
        expected = list(csv.reader(handle))
    with open(actual_path, newline="", encoding="utf-8") as handle:
        actual = list(csv.reader(handle))
    assert actual[0] == expected[0], "header"
    assert len(actual) == len(expected), "row count"
    for row, (e_row, a_row) in enumerate(zip(expected[1:], actual[1:]), start=1):
        assert len(a_row) == len(e_row), f"row {row}"
        for col, (e, a) in enumerate(zip(e_row, a_row)):
            _compare_cell(e, a, f"row {row} column {expected[0][col]}")


@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_config_matches_golden(name, tmp_path):
    config = ROOT / "configs" / f"{name}.yaml"
    command = yaml.safe_load(config.read_text(encoding="utf-8"))["experiment"]
    prefix = tmp_path / name
    assert main([command, "--config", str(config), "--out", str(prefix)]) == 0

    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    actual = json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8"))
    _compare_json(expected, actual)

    (golden_csv,) = GOLDEN.glob(f"{name}_*.csv")
    produced = sorted(p.name for p in tmp_path.glob(f"{name}_*.csv"))
    assert produced == [golden_csv.name]
    _compare_csv(golden_csv, tmp_path / golden_csv.name)


def test_golden_comparison_catches_a_moved_value(tmp_path):
    # the comparison itself must fail on a change just above its tolerance
    expected = json.loads((GOLDEN / "grover.json").read_text(encoding="utf-8"))
    moved = json.loads(json.dumps(expected))
    moved["success_probability"] += 2 * JSON_TOL
    with pytest.raises(AssertionError):
        _compare_json(expected, moved)
    recounted = json.loads(json.dumps(expected))
    recounted["trials"] += 1
    with pytest.raises(AssertionError):
        _compare_json(expected, recounted)
    golden_csv = GOLDEN / "grover_distribution.csv"
    lines = golden_csv.read_text(encoding="utf-8").splitlines()
    outcome, value = lines[1].split(",")
    lines[1] = f"{outcome},{float(value) + 2 * CSV_TOL!r}"
    edited = tmp_path / "edited.csv"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(AssertionError):
        _compare_csv(golden_csv, edited)
