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

import numpy as np

from onewaysim.cluster import c4_state
from onewaysim.mbqc import _MARKS, grover_run
from onewaysim.photonics import (
    REFERENCE_WITNESS_TERMS,
    WITNESS_OBSERVABLES,
    WITNESS_SETTINGS,
    NoiseModel,
    apply_noise,
    fit_noise,
    joint_distribution,
)

PINS = Path(__file__).resolve().parent / "golden" / "count_floats.json"
NOISE_SEEDS = (5, 17, 2024)


def _states():
    fitted, _ = fit_noise([REFERENCE_WITNESS_TERMS[w][0] for w in WITNESS_OBSERVABLES])
    states = {"ideal": c4_state(), "fitted": apply_noise(c4_state(), fitted)}
    for seed in NOISE_SEEDS:
        model = NoiseModel(*np.random.default_rng(seed).uniform(0.0, 0.4, size=3).tolist())
        states[f"noise_{seed}"] = apply_noise(c4_state(), model)
    return states


def _hex_table(table):
    return {key: float(value).hex() for key, value in table.items()}


def pinned_tables():
    """Every pinned table, keyed by state, then by search case or setting."""
    out = {}
    for name, state in _states().items():
        tables = {}
        for marked in _MARKS:
            for feedforward in (True, False):
                key = f"grover_{marked}_{'ff' if feedforward else 'noff'}"
                tables[key] = _hex_table(grover_run(marked, feedforward, state))
        for setting in WITNESS_SETTINGS:
            tables[f"joint_{setting}"] = _hex_table(joint_distribution(state, setting))
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
