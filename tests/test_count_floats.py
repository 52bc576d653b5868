"""Bit-for-bit pins of the exact tables that ``simulate_counts`` draws from.

numpy's multinomial splits a uniform table at a conditional probability
of exactly 0.5, where one ulp decides between two draws, so a refactor
that moves an exact table by one ulp re-draws the counts of a seed.  The
golden file holds ``float.hex`` of every ``grover_run`` table (4 marks,
feed-forward on and off) and of ``joint_distribution`` for both witness
settings, on the ideal pure cluster, the fitted noisy source and three
seeded noise models.  They are compared with ``==``.

Regenerate with ``PYTHONPATH=src python tests/test_count_floats.py``
only for a change that moves these floats on purpose, and say so in
CHANGES.md.
"""

import json
from pathlib import Path

from onewaysim.cluster import c4_state
from onewaysim.mbqc import _MARKS, grover_run
from onewaysim.photonics import WITNESS_SETTINGS, joint_distribution

from conftest import PIN_MODELS, hex_floats, noisy

PINS = Path(__file__).resolve().parent / "golden" / "count_floats.json"


def pinned_tables():
    """Every pinned table, keyed by state, then by search case or setting."""
    out = {}
    for name, model in PIN_MODELS.items():
        state, tables = noisy(c4_state(), model), {}
        for marked in _MARKS:
            for feedforward in (True, False):
                key = f"grover_{marked}_{'ff' if feedforward else 'noff'}"
                tables[key] = dict(hex_floats(grover_run(marked, feedforward, state)))
        for setting in WITNESS_SETTINGS:
            tables[f"joint_{setting}"] = dict(hex_floats(joint_distribution(state, setting)))
        out[name] = tables
    return out


def test_count_feeding_floats_are_unchanged_bit_for_bit():
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    actual = pinned_tables()
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert sorted(actual[name]) == sorted(expected[name]), name
        for key, table in expected[name].items():
            assert actual[name][key] == table, (name, key)


if __name__ == "__main__":
    PINS.write_text(json.dumps(pinned_tables(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
