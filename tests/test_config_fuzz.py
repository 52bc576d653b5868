"""Generated configs for every subcommand exit 0 or 2, never 1.

Exit code 1 means an internal error; any config a user can write must
either run or be rejected with a message (exit 2).  The generated values
mix valid settings with wrong types, out-of-range numbers, exponents that
YAML 1.1 reads as text, unknown keys, and valid values at fields the
command does not read.

Valid generated configs also print exact numbers that equal the noise
model's closed forms.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from onewaysim.cli import _FIELDS, main
from onewaysim.photonics import COINCIDENCE_RATE_HZ, DETECTOR_PAIRS

import oracles

pytest_plugins = ("pytester",)

COMMANDS = ("witness", "grover", "gate", "visibility")

# field path -> the subcommands that read it
_READERS = {tuple(field.path.split(".")): field.commands for field in _FIELDS}

_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from(["1e-9", "3e2", "nan", "ideal", "fit"]),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["a", "fit"]), st.integers(-1, 1), max_size=2),
)
_unit = st.floats(0.0, 1.0)
# near-ideal noise, which a uniform draw from [0, 1] practically never
# reaches; PyYAML writes these as 1.0e-12 etc., which YAML 1.1 reads as floats
_tiny = st.sampled_from([1.0e-12, 3.0e-12, 1.0e-11, 1.0e-10, 1.0e-9])
_noise_level = st.one_of(_unit, _tiny)

# fields a user may set besides the experiment guard, each with values a
# command that reads it accepts; the sample count and the coincidence budget
# stay small to keep every run short
_VALID = {
    ("source", "theta"): st.floats(-7.0, 7.0),
    ("noise",): st.one_of(
        st.sampled_from(["ideal", "fit"]),
        st.fixed_dictionaries(
            {},
            optional={
                "path_dephasing_a": _noise_level,
                "path_dephasing_b": _noise_level,
                "white_noise": _noise_level,
            },
        ),
        st.fixed_dictionaries({"white_noise": _tiny}),
        # generic white noise: the optional keys above are mostly left out,
        # and their draws favour 0 and values near it
        st.fixed_dictionaries(
            {
                "path_dephasing_a": _unit,
                "path_dephasing_b": _unit,
                "white_noise": st.floats(1e-6, 1.0),
            }
        ),
        st.fixed_dictionaries(
            {"fit": st.fixed_dictionaries(
                {"targets": st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)}
            )}
        ),
    ),
    ("seed",): st.integers(0, 2**40),
    ("duration",): st.floats(1e-4, 2.0),
    ("rate",): st.floats(1.0, 2e4),
    ("grover", "marked"): st.sampled_from(["00", "01", "10", "11"]),
    ("grover", "feedforward"): st.booleans(),
    ("gate", "kind"): st.sampled_from(["horseshoe", "box"]),
    ("gate", "alpha"): st.floats(-20.0, 20.0),
    ("gate", "beta"): st.one_of(st.floats(-20.0, 20.0), st.integers(-10, 10)),
    ("visibility", "detector_pair"): st.sampled_from(("all",) + tuple(DETECTOR_PAIRS)),
    ("visibility", "samples"): st.integers(2, 32).map(lambda half: 2 * half),
}

# ints no float holds: each float field must name itself, not fail converting
_HUGE = st.sampled_from([10**400, -(10**400)])

# values that must be rejected (or, for a few, still run) at each field; at
# a field the command does not read, every value of _VALID is wrong as well
_WRONG = {
    ("experiment",): st.sampled_from(["bogus", 3, *COMMANDS]),
    ("source", "theta"): st.one_of(st.sampled_from([math.inf, math.nan, "1e-9"]), _HUGE),
    ("noise",): st.sampled_from(["bogus", {"white_noise": 1.5}, {"extra": 1}]),
    ("noise", "fit"): st.one_of(
        st.fixed_dictionaries({"targets": st.lists(st.floats(-1.5, 1.5), max_size=8)}),
        st.fixed_dictionaries({"targets": st.lists(_junk, min_size=6, max_size=6)}),
        st.fixed_dictionaries({"targets": st.lists(_HUGE, min_size=6, max_size=6)}),
    ),
    ("noise", "path_dephasing_a"): _HUGE,
    ("noise", "path_dephasing_b"): st.one_of(st.floats(-1.0, 2.0), st.just(math.inf), _HUGE),
    ("noise", "white_noise"): _HUGE,
    ("seed",): st.one_of(st.integers(-3, -1), _HUGE),
    ("duration",): st.one_of(st.sampled_from([0.0, -1.0, math.inf, 1e-9]), _HUGE),
    ("rate",): st.one_of(st.sampled_from([0, -5, 1e19, 1e30, 1e-6]), _HUGE),
    ("grover", "marked"): st.sampled_from(["22", 0, 11, "0"]),
    ("gate", "kind"): st.just("ring"),
    ("gate", "alpha"): st.one_of(st.sampled_from([math.inf, -math.inf, math.nan]), _HUGE),
    ("gate", "beta"): _HUGE,
    ("visibility", "detector_pair"): st.just("D9-D9"),
    ("visibility", "samples"): st.one_of(st.integers(-2, 5), st.floats(0.0, 64.0), _HUGE),
    ("threads",): st.integers(1, 4),
}


def _set(config: dict, path, value) -> None:
    for key in path[:-1]:
        if not isinstance(config.get(key), dict):
            config[key] = {}
        config = config[key]
    config[path[-1]] = value


@st.composite
def _configs(draw, command):
    shape = draw(st.integers(0, 9))
    if shape == 0:  # not a mapping, or a mapping of nonsense
        return draw(st.one_of(_junk, st.dictionaries(st.text(max_size=4), _junk, max_size=3)))
    valid = {("experiment",): st.just(command), **_VALID}
    read = [path for path in sorted(valid) if command in _READERS[path]]
    config: dict = {}
    # a set iterates in hash order, which varies with PYTHONHASHSEED; drawing
    # the values in sorted path order keeps the generated configs reproducible
    for path in sorted(draw(st.sets(st.sampled_from(read)))):
        _set(config, path, draw(valid[path]))
    if shape <= 4:  # one field gets a wrong type or value
        path = draw(st.sampled_from(sorted(_WRONG) + sorted(valid)))
        if path in valid and path not in read:
            _set(config, path, draw(valid[path]))
        else:
            _set(config, path, draw(_WRONG.get(path, _junk)))
    return config


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_generated_config_exits_0_or_2(command, data):
    config = data.draw(_configs(command), label="config")
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "config.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        code = main([command, "--config", str(path), "--out", str(Path(scratch) / "run")])
    assert code in (0, 2), f"exit {code} for {config!r}"


# a key of 4000 hex digits, which no str can show (Python's int-to-str limit
# is 4300 digits), at the top level and in each mapping a config may hold
_HUGE_KEY = "0x" + "f" * 4000


@pytest.mark.parametrize(
    "sections, shown",
    [
        ((), "an int of 16000 bits"),
        (("source",), "'source.an int of 16000 bits'"),
        (("noise",), "'noise.an int of 16000 bits'"),
        (("noise", "fit"), "'noise.fit.an int of 16000 bits'"),
    ],
    ids=["top", "source", "noise", "noise.fit"],
)
def test_a_key_too_long_to_print_exits_2(tmp_path, capsys, sections, shown):
    text = "".join(f"{'  ' * depth}{name}:\n" for depth, name in enumerate(sections))
    indent = "  " * len(sections)
    text += f"{indent}? {_HUGE_KEY}\n{indent}: 1\n"
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["witness", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: unknown config field {shown}\n"


@st.composite
def _valid_configs(draw, command):
    read = [path for path in sorted(_VALID) if command in _READERS[path]]
    config = {"experiment": command}
    for path in sorted(draw(st.sets(st.sampled_from(read)))):
        _set(config, path, draw(_VALID[path]))
    return config


def _check_closed_forms(document):
    """Every exact number of a document against the noise model's closed
    forms, with white-noise weight p and dephasing product q = (1-a)(1-b)
    read from the document's noise block."""
    noise = document["noise"]
    p = noise.get("white_noise", 0.0)
    q = oracles.dephasing_product(
        noise.get("path_dephasing_a", 0.0), noise.get("path_dephasing_b", 0.0)
    )

    def close(got, want):
        assert got == pytest.approx(want, rel=0.0, abs=1e-13)

    command = document["command"]
    if command == "witness":
        for word, value in document["exact"]["terms"].items():
            close(value, oracles.witness_term(word, p, q, document["theta"]))
    elif command == "grover":
        # below p ~ 5e-12 the search walk drops the off-mark branches, a
        # known defect pinned by a strict xfail in test_analysis
        if 4e-13 <= p < 5e-12:
            return
        marked, feedforward = document["marked"], document["feedforward"]
        for mark, value in document["distribution"].items():
            close(value, oracles.search_probability(mark, marked, feedforward, p))
    elif command == "gate":
        closed = oracles.gate_fidelity(document["kind"], p, q, document["alpha"])
        for value in document["fidelities"].values():
            close(value, closed)
    else:
        for pair, fringe in document["fringes"].items():
            for theta, value in zip(fringe["thetas"], fringe["probabilities"]):
                close(value, oracles.fringe(pair, p, q, theta))


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_generated_config_output_matches_the_closed_forms(command, data):
    config = data.draw(_valid_configs(command), label="config")
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "config.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        out = Path(scratch) / "run"
        code = main([command, "--config", str(path), "--out", str(out), "--format", "json"])
        if code == 2:  # a valid config may still draw no coincidences
            expected = config.get("duration", 1.0) * config.get("rate", COINCIDENCE_RATE_HZ)
            assert command in ("witness", "grover") and expected < 50.0, config
            return
        assert code == 0, f"exit {code} for {config!r}"
        document = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    _check_closed_forms(document)


# draws the first configs of every command and prints their reprs, one a line
_DRAW_CONFIGS = """
from hypothesis import given, settings, strategies as st
import test_config_fuzz as fuzz

for command in fuzz.COMMANDS:
    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def record(data):
        print(repr(data.draw(fuzz._configs(command))))

    record()
"""


def test_generated_configs_do_not_depend_on_the_hash_seed():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    drawn = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        result = subprocess.run(
            [sys.executable, "-c", _DRAW_CONFIGS],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        drawn.append(result.stdout.splitlines())
    assert len(drawn[0]) >= 4 * 30
    assert drawn[0] == drawn[1]


# a falsifying example must be reported as one failure: with warnings as
# errors, a DeprecationWarning from mypy_extensions raised in hypothesis's
# report hook used to end the session in INTERNALERROR, and every later
# test was lost
_FALSIFIED_PROBE = """
from hypothesis import given, strategies as st

@given(st.integers(0, 10))
def test_falsified(x):
    assert x < 5

def test_after():
    pass
"""


def test_a_falsifying_example_leaves_later_tests_running(pytester):
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    pytester.makepyprojecttoml(pyproject.read_text(encoding="utf-8"))
    pytester.makepyfile(test_probe=_FALSIFIED_PROBE)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_probe.py", timeout=120)
    result.assert_outcomes(failed=1, passed=1)
