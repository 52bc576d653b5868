"""End-to-end tests of the command line front end."""

import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import test_config_fuzz
import test_golden
from onewaysim import analysis, cli, photonics, qcore
from onewaysim.analysis import simulate_witness_records, witness_from_counts, witness_value
from onewaysim.cli import ConfigError, from_mapping, load_config, main
from onewaysim.mbqc import grover_run

import oracles
from conftest import PIN_MODELS, SEED_RANGE, count_states, hex_floats, noisy, spy

SRC = Path(cli.__file__).resolve().parents[1]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run_fresh(argv, **env):
    """Run ``python -m onewaysim`` on these sources in a new interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "onewaysim", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
        timeout=120,
    )


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_load_config_defaults():
    cfg = load_config(None, "witness")
    model, info = cfg["noise"]
    assert model.is_ideal() and info == {"kind": "ideal"}
    assert cfg["seed"] == 0
    assert cfg["duration"] == 1.0
    assert cfg["gate.kind"] == "horseshoe"
    assert cfg["visibility.detector_pair"] == "all"
    assert cfg["source.theta"] == cfg["gate.alpha"] == cfg["gate.beta"] == 0.0
    assert cfg["rate"] == 12000.0
    assert (cfg["grover.marked"], cfg["grover.feedforward"]) == ("00", True)
    assert cfg["visibility.samples"] == 24


def test_load_config_full(tmp_path):
    path = _write(
        tmp_path,
        "config.yaml",
        """
experiment: grover
seed: 12
duration: 2.5
rate: 500
noise:
  path_dephasing_b: 0.05
  white_noise: 0.1
grover:
  marked: "01"
  feedforward: false
""",
    )
    cfg = load_config(path, "grover")
    assert cfg["experiment"] == "grover"
    assert cfg["seed"] == 12
    assert cfg["duration"] == 2.5
    assert cfg["grover.marked"] == "01"
    assert cfg["grover.feedforward"] is False
    model, info = cfg["noise"]
    assert model.path_dephasing_b == 0.05
    assert info["kind"] == "parameters"


def test_load_config_rejects_unknown_keys(tmp_path):
    path = _write(tmp_path, "config.yaml", "bogus_key: 1\n")
    with pytest.raises(ConfigError, match="bogus_key"):
        load_config(path, "witness")


def test_load_config_rejects_unquoted_mark(tmp_path):
    # YAML reads a bare 00 as the integer 0; the error must say so
    path = _write(tmp_path, "config.yaml", "grover:\n  marked: 00\n")
    with pytest.raises(ConfigError, match="quote"):
        load_config(path, "grover")


def test_load_config_rejects_bad_noise(tmp_path):
    path = _write(tmp_path, "config.yaml", "noise:\n  white_noise: 1.5\n")
    with pytest.raises(ConfigError, match="'noise.white_noise'"):
        load_config(path, "witness")


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.yaml", "witness")


def test_load_config_accepts_json(tmp_path):
    path = _write(tmp_path, "config.json", '{"seed": 3, "noise": "fit"}')
    cfg = load_config(path, "witness")
    assert cfg["seed"] == 3
    model, info = cfg["noise"]
    assert info["kind"] == "fit"
    assert 0.0 < model.white_noise < 0.2
    assert info["fit_residual"] > 0.0


def test_resolve_noise_fit_targets(tmp_path):
    path = _write(
        tmp_path,
        "config.yaml",
        "noise:\n  fit:\n    targets: [0.9, 0.9, 0.9, 0.9, 0.9, 0.9]\n",
    )
    model, info = load_config(path, "witness")["noise"]
    assert info["kind"] == "fit"
    assert model.white_noise == pytest.approx(0.1, abs=1e-4)
    assert model.path_dephasing_b == pytest.approx(0.0, abs=1e-4)


# ---------------------------------------------------------------------------
# command runs
# ---------------------------------------------------------------------------


def test_witness_command_writes_files(tmp_path, capsys):
    prefix = str(tmp_path / "w")
    assert main(["witness", "--out", prefix, "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "witness" in out and f"wrote {prefix}.json" in out

    document = json.loads((tmp_path / "w.json").read_text())
    assert document["command"] == "witness"
    assert document["seed"] == 7
    assert document["exact"]["witness"] == pytest.approx(-1.0)
    assert document["exact"]["fidelity_bound"] == pytest.approx(1.0)
    assert set(document["counted"]["terms"]) == {
        "XXIZ", "XXZI", "IIZZ", "IZXX", "ZIXX", "ZZII",
    }

    csv_lines = (tmp_path / "w_terms.csv").read_text().splitlines()
    assert csv_lines[0] == "term,exact,estimate,stderr"
    assert len(csv_lines) == 7
    assert csv_lines[1].startswith("XXIZ,1,")


def test_witness_command_is_deterministic(tmp_path):
    prefix_a = str(tmp_path / "a")
    prefix_b = str(tmp_path / "b")
    assert main(["witness", "--out", prefix_a, "--seed", "11"]) == 0
    assert main(["witness", "--out", prefix_b, "--seed", "11"]) == 0
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
    assert (
        (tmp_path / "a_terms.csv").read_text()
        == (tmp_path / "b_terms.csv").read_text()
    )
    prefix_c = str(tmp_path / "c")
    assert main(["witness", "--out", prefix_c, "--seed", "12"]) == 0
    assert (tmp_path / "a.json").read_text() != (tmp_path / "c.json").read_text()


def test_witness_stdout_mode(capsys):
    assert main(["witness"]) == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    assert document["command"] == "witness"
    assert captured.err.startswith("witness ")


@pytest.mark.parametrize("command", ["witness", "grover", "gate", "visibility"])
def test_stdout_is_one_json_document(command, capsys):
    assert main([command]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["command"] == command
    assert captured.err.strip()


@pytest.mark.parametrize("name", test_golden.CONFIGS)
def test_stdout_document_is_the_json_file(name, tmp_path, capsys):
    config = test_golden.ROOT / "configs" / f"{name}.yaml"
    command = yaml.safe_load(config.read_text(encoding="utf-8"))["experiment"]
    argv = [command, "--config", str(config), "--seed", "3"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "run"), "--format", "json"]) == 0
    text = (tmp_path / "run.json").read_text(encoding="utf-8")
    assert stdout == text
    # the text format, indented by two with sorted keys, without pinning numbers
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# output text
# ---------------------------------------------------------------------------

# keys with quotes, backslashes, control and non-ASCII characters, a lone
# surrogate included; floats with NaN, +-inf, -0.0 and subnormals
_KEYS = st.text() | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "é ü", "\u2028", "\ud800", "😀"]
)
_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308, 1e-310]
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200)
    | st.integers(-(2**200), -(2**64))
    | _FLOATS
    | _FLOATS.map(np.float64)
    | _KEYS
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_KEYS, inner),
    max_leaves=40,
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(document=_DOCUMENTS)
def test_json_writer_gives_the_stdlib_text(document):
    assert cli._json(document) == json.dumps(document, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "document", [{1: 0}, {True: 0}, {None: 0}, {1.5: 0}, {("a",): 0}, {"a": [{"b": 0, 2: 0}]}]
)
def test_json_writer_rejects_a_key_that_is_no_str(document):
    with pytest.raises(TypeError):
        cli._json(document)


def test_json_writer_formats_list_floats_without_a_call_each(monkeypatch):
    # a finite float in a list is formatted inline; the rest go to json.dumps
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda value: calls.append(value) or dumps(value))
    values = [0.1, -2.5e-300, 1e300, 0.0, -0.0, 5e-324]
    assert cli._json({"x": values}) == dumps({"x": values}, indent=2, sort_keys=True)
    assert calls == []
    others = [math.inf, math.nan, np.float64(0.5), 1, True, None, "a"]
    assert cli._json(others) == dumps(others, indent=2, sort_keys=True)
    assert list(map(repr, calls)) == list(map(repr, others))


@pytest.mark.parametrize("name", test_golden.CONFIGS)
def test_csv_lines_are_the_cell_by_cell_text(name, tmp_path, monkeypatch):
    # each subcommand's line format writes what formatting cell by cell did
    config = test_golden.ROOT / "configs" / f"{name}.yaml"
    command = yaml.safe_load(config.read_text(encoding="utf-8"))["experiment"]
    handler, results = cli._COMMANDS[command][0], []
    monkeypatch.setitem(
        cli._COMMANDS,
        command,
        (lambda *args: results.append(handler(*args)) or results[-1],)
        + cli._COMMANDS[command][1:],
    )
    prefix = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(prefix), "--format", "csv"]) == 0
    _, csv_name, header, _, rows, _ = results[0]
    text = (tmp_path / f"run_{csv_name}.csv").read_text(encoding="utf-8")
    assert text == oracles.csv_text(header.split(","), rows)


def test_witness_fitted_run(tmp_path):
    config = _write(tmp_path, "config.yaml", "experiment: witness\nnoise: fit\n")
    prefix = str(tmp_path / "wf")
    assert main(["witness", "--config", config, "--out", prefix]) == 0
    document = json.loads((tmp_path / "wf.json").read_text())
    assert document["noise"]["kind"] == "fit"
    assert document["exact"]["witness"] == pytest.approx(-0.7656, abs=1e-3)
    assert abs(document["counted"]["witness"] - document["exact"]["witness"]) < 0.03


@pytest.mark.parametrize("noise", ["ideal", {"white_noise": 0.05, "path_dephasing_b": 0.1}])
def test_witness_reads_one_table_per_setting(monkeypatch, noise):
    cfg = from_mapping({"noise": noise, "source": {"theta": 0.4}, "seed": 9}, "witness")
    model = cfg["noise"][0]
    state = noisy(photonics.source_state(0.4), model)
    exact = cli._report_fields(witness_value(state))
    records = simulate_witness_records(state, cfg["rate"], cfg["duration"], cfg["seed"])
    counted = cli._report_fields(witness_from_counts(records))
    tables = spy(monkeypatch, qcore._rotated_diagonal)
    products = spy(monkeypatch, qcore._product_basis)
    traces = spy(monkeypatch, qcore.expectation)
    document = cli.cmd_witness(cfg, model)[0]
    # one readout of each setting's table; no rotation built, no word traced
    assert (len(tables), len(products), len(traces)) == (2, 0, 0)
    assert document["exact"] == exact
    assert document["counted"] == counted


def _exact_by_public_chain(state):
    """The exact witness fields from joint_distribution and the sign rule."""
    terms = {}
    for setting, words in oracles.SETTING_WORDS.items():
        table = photonics.joint_distribution(state, setting)
        signs = np.array([[oracles.sign(word, key) for key in table] for word in words])
        terms.update(zip(words, (signs @ np.array(list(table.values()))).tolist()))
    witness = (4.0 - sum(terms[word] for word in photonics.WITNESS_OBSERVABLES)) / 2.0
    return {"terms": terms, "witness": witness, "fidelity_bound": 0.5 - 0.5 * witness}


def _counted_by_public_chain(state, rate, duration, seed):
    """The counted witness fields from joint_distribution, simulate_counts and
    witness_from_counts, each setting drawn with seed (seed, sorted index)."""
    records = [
        analysis.simulate_counts(
            photonics.joint_distribution(state, setting), rate, duration, (seed, index), setting
        )
        for index, setting in enumerate(sorted(photonics.WITNESS_SETTINGS))
    ]
    return cli._report_fields(witness_from_counts(records))


@pytest.mark.parametrize("model", PIN_MODELS.values(), ids=("None", "fitted", "5", "17", "2024"))
def test_witness_command_equals_the_public_chain_bit_for_bit(monkeypatch, model):
    # the models whose tables test_count_floats pins; the oracle is built
    # from checked public calls only
    for theta in (0.0, 0.4, math.pi, -2.5):
        cfg = {"source.theta": theta, "rate": 9000.0, "duration": 0.8, "seed": 4}
        state = noisy(photonics.source_state(theta), model)
        exact = _exact_by_public_chain(state)
        counted = _counted_by_public_chain(state, cfg["rate"], cfg["duration"], cfg["seed"])
        built = []
        count_states(monkeypatch, built)
        document = cli.cmd_witness(cfg, model)[0]
        monkeypatch.undo()
        assert built == []  # the source and its noisy matrix stay arrays
        assert hex_floats(document["exact"]) == hex_floats(exact)
        assert hex_floats(document["counted"]) == hex_floats(counted)
        # JSON takes the totals as they are: Python ints, not numpy's
        assert all(type(n) is int for n in document["counted"]["setting_totals"].values())


@pytest.mark.parametrize("noise", ["ideal", {"white_noise": 0.05, "path_dephasing_a": 0.02}])
def test_witness_run_draws_and_counts_without_the_public_checks(monkeypatch, noise):
    # the tables are the library's own: a witness run re-checks none of them,
    # so it neither calls the public draw or estimate nor builds a record
    cfg = from_mapping({"noise": noise, "seed": 3}, "witness")
    draws = spy(monkeypatch, analysis.simulate_counts)
    estimates = spy(monkeypatch, analysis.witness_from_counts)
    records = spy(monkeypatch, analysis.CountRecord)
    document = cli.cmd_witness(cfg, cfg["noise"][0])[0]
    assert (draws, estimates, records) == ([], [], [])
    assert sum(document["counted"]["setting_totals"].values()) > 0


def test_grover_command(tmp_path):
    config = _write(
        tmp_path, "config.yaml", 'grover:\n  marked: "11"\n  feedforward: true\n'
    )
    prefix = str(tmp_path / "g")
    assert main(["grover", "--config", config, "--out", prefix]) == 0
    document = json.loads((tmp_path / "g.json").read_text())
    assert document["marked"] == "11"
    assert document["success_probability"] == pytest.approx(1.0)
    csv_lines = (tmp_path / "g_distribution.csv").read_text().splitlines()
    assert csv_lines[0] == "outcome,probability"
    assert len(csv_lines) == 5


@pytest.mark.parametrize("white_noise", ["3.0e-12", "1.0e-11", "1.0e-10", "1.0e-9", "1.0e-6"])
@pytest.mark.parametrize("marked", ["00", "01", "10", "11"])
@pytest.mark.parametrize("feedforward", ["true", "false"])
def test_grover_runs_on_near_ideal_noise(tmp_path, capsys, white_noise, marked, feedforward):
    # an outcome-1 branch of weight ~1e-11 is renormalized by 1 - p0, whose
    # cancellation error alone would put its trace ~1e-5 off 1 (exit 1)
    config = _write(
        tmp_path,
        "config.yaml",
        f'noise: {{white_noise: {white_noise}}}\n'
        f'grover: {{marked: "{marked}", feedforward: {feedforward}}}\n',
    )
    code, document = _result(capsys, ["grover", "--config", config])
    assert code == 0
    table = document["distribution"]
    ideal = grover_run(marked, feedforward == "true")
    assert abs(sum(table.values()) - 1.0) <= 1e-12
    assert max(abs(table[key] - ideal[key]) for key in ideal) <= float(white_noise)


def test_gate_command(tmp_path):
    config = _write(
        tmp_path,
        "config.yaml",
        "gate:\n  kind: box\n  alpha: 0.0\n  beta: 0.0\n",
    )
    prefix = str(tmp_path / "gate")
    assert main(["gate", "--config", config, "--out", prefix]) == 0
    document = json.loads((tmp_path / "gate.json").read_text())
    assert document["kind"] == "box"
    assert document["mean_fidelity"] == pytest.approx(1.0)
    assert set(document["fidelities"]) == {"00", "01", "10", "11"}
    csv_lines = (tmp_path / "gate_fidelities.csv").read_text().splitlines()
    assert csv_lines[0] == "s2,s3,fidelity"
    assert all(line.endswith(",1") for line in csv_lines[1:])


def test_visibility_command(tmp_path):
    config = _write(
        tmp_path,
        "config.yaml",
        "noise: fit\nvisibility:\n  detector_pair: D3-D2\n  samples: 8\n",
    )
    prefix = str(tmp_path / "v")
    assert main(["visibility", "--config", config, "--out", prefix]) == 0
    document = json.loads((tmp_path / "v.json").read_text())
    assert list(document["visibilities"]) == ["D3-D2"]
    # dephasing product times (1-p)/(1-p/2) for the fitted model
    assert document["visibilities"]["D3-D2"] == pytest.approx(0.9301, abs=1e-3)
    csv_lines = (tmp_path / "v_fringes.csv").read_text().splitlines()
    assert csv_lines[0] == "detector_pair,theta,probability"
    assert len(csv_lines) == 9


def test_visibility_odd_samples_exit_code(tmp_path, capsys):
    config = _write(tmp_path, "config.yaml", "visibility:\n  samples: 5\n")
    assert main(["visibility", "--config", config, "--out", str(tmp_path / "v")]) == 2
    message = capsys.readouterr().err
    assert "visibility.samples" in message and "even" in message
    assert not (tmp_path / "v.json").exists()


def test_visibility_oversized_samples_exit_code(tmp_path, capsys):
    config = _write(tmp_path, "config.yaml", "visibility:\n  samples: 1000000000000000\n")
    assert main(["visibility", "--config", config, "--out", str(tmp_path / "v")]) == 2
    message = capsys.readouterr().err
    assert "visibility.samples" in message and "65536" in message
    assert not (tmp_path / "v.json").exists()
    cfg = from_mapping({"visibility": {"samples": 65536}}, "visibility")
    assert cfg["visibility.samples"] == 65536


def test_visibility_all_pairs(tmp_path):
    prefix = str(tmp_path / "vall")
    assert main(["visibility", "--out", prefix]) == 0
    document = json.loads((tmp_path / "vall.json").read_text())
    assert set(document["visibilities"]) == {"D1-D2", "D1-D4", "D3-D2", "D3-D4"}
    for value in document["visibilities"].values():
        assert value == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_experiment_command_mismatch(tmp_path, capsys):
    config = _write(tmp_path, "config.yaml", "experiment: witness\n")
    assert main(["grover", "--config", config]) == 2
    assert "experiment" in capsys.readouterr().err
    # the guard speaks before the fields that the invoked command ignores
    config = str(test_golden.ROOT / "configs" / "gate_box.yaml")
    assert main(["witness", "--config", config]) == 2
    assert "config is for experiment 'gate'" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    config = _write(tmp_path, "config.yaml", "unknown_field: 2\n")
    assert main(["witness", "--config", config]) == 2
    assert "unknown config field" in capsys.readouterr().err


def test_invalid_yaml_exit_code(tmp_path, capsys):
    config = _write(tmp_path, "config.yaml", "noise: [unclosed\n")
    assert main(["witness", "--config", config]) == 2
    assert "error" in capsys.readouterr().err


def test_deeply_nested_config_exit_code(tmp_path, capsys):
    # the YAML parser recurses once per level
    config = _write(tmp_path, "config.yaml", "[" * 20000)
    assert main(["witness", "--config", config]) == 2
    message = capsys.readouterr().err
    assert "cannot parse config file" in message and config in message


@pytest.mark.parametrize(
    "content",
    [
        b'seed: 1\nexperiment: "\xff"\n',
        b"seed: 2001-13-01\n",  # YAML 1.1 resolves it as a timestamp
        b"seed: !!int\n",
        b"seed: !!timestamp x\n",
    ],
    ids=["not-utf8", "no-such-date", "empty-int-tag", "bad-timestamp-tag"],
)
def test_unparsable_config_bytes_exit_code(tmp_path, capsys, content):
    path = tmp_path / "config.yaml"
    path.write_bytes(content)
    assert main(["witness", "--config", str(path)]) == 2
    message = capsys.readouterr().err
    assert "cannot parse config file" in message and str(path) in message


def test_oversized_config_exit_code(tmp_path, capsys):
    cap = 8192  # the limit the cli docstring states
    padded = "seed: 1\n" + "#" * (cap - 9) + "\n"
    assert main(["witness", "--config", _write(tmp_path, "at_cap.yaml", padded)]) == 0
    capsys.readouterr()
    config = _write(tmp_path, "over_cap.yaml", padded + "\n")
    assert main(["witness", "--config", config]) == 2
    message = capsys.readouterr().err
    assert f"cannot parse config file {config}: larger than {cap} bytes" in message


def _feed(opener, chunks):
    """A started thread that opens a write end with ``opener()`` and
    writes ``chunks`` to it, pausing before each, then closes it."""

    def feed():
        fd = opener()
        try:
            for chunk in chunks:
                time.sleep(0.05)
                os.write(fd, chunk)
        finally:
            os.close(fd)

    # a daemon: should the reader never open a FIFO, its writer blocks for good
    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    return thread


def _outputs(tmp_path, name):
    return {path.name: path.read_bytes() for path in sorted(tmp_path.glob(f"{name}*"))}


def test_config_read_from_a_fifo_in_pieces_is_read_whole(tmp_path, capsys):
    # a read of a FIFO returns what has been written so far: each piece
    # alone is a config that fails to parse or runs another experiment
    text = b"seed: 7\nnoise: {white_noise: 0.05}\nduration: 0.5\n"
    config = _write(tmp_path, "config.yaml", text.decode())
    assert main(["witness", "--config", config, "--out", str(tmp_path / "file")]) == 0
    fifo = tmp_path / "config.fifo"
    os.mkfifo(fifo)
    thread = _feed(lambda: os.open(fifo, os.O_WRONLY), [text[:10], text[10:30], text[30:]])
    try:
        assert main(["witness", "--config", str(fifo), "--out", str(tmp_path / "fifo")]) == 0
    finally:
        thread.join(timeout=10)
    file_run, fifo_run = _outputs(tmp_path, "file"), _outputs(tmp_path, "fifo")
    assert len(file_run) == 2
    assert list(fifo_run.values()) == list(file_run.values())
    assert capsys.readouterr().err == ""


def test_piped_config_past_the_cap_exit_code(tmp_path, capsys):
    # the read stops one byte past the cap, so an endless stream ends too
    cap = cli._MAX_CONFIG_BYTES
    text = b"seed: 1\n" + b"#" * (cap - 8) + b"\n"
    assert len(text) == cap + 1
    read_end, write_end = os.pipe()
    path = f"/dev/fd/{read_end}"
    thread = _feed(lambda: write_end, [text[:4096], text[4096:] + b"unread"])
    try:
        assert main(["witness", "--config", path]) == 2
        thread.join(timeout=10)
        assert os.read(read_end, 100) == b"unread"
    finally:
        os.close(read_end)
    assert capsys.readouterr().err == (
        f"error: cannot parse config file {path}: larger than {cap} bytes\n"
    )


def test_directory_as_config_exit_code(tmp_path, capsys):
    # a directory opens; the error of its read must still name the path
    assert main(["witness", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read config file: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    )


def test_longer_existing_outputs_are_truncated(tmp_path, capsys):
    prefix = str(tmp_path / "w")
    assert main(["witness", "--out", prefix]) == 0
    fresh = _outputs(tmp_path, "w")
    summary = capsys.readouterr().out.splitlines()[0]
    for name, data in fresh.items():
        (tmp_path / name).write_bytes(b"x" * 100_000 + data)
    assert main(["witness", "--out", prefix]) == 0
    assert _outputs(tmp_path, "w") == fresh
    assert capsys.readouterr().out == (
        f"{summary}\nwrote {prefix}.json\nwrote {prefix}_terms.csv\n"
    )


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o000], ids=oct)
def test_output_files_take_the_mode_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        assert main(["gate", "--out", str(tmp_path / "g")]) == 0
    finally:
        os.umask(previous)
    for name in ("g.json", "g_fidelities.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize(
    "unit, levels",
    [
        ("[", cli._MAX_CONFIG_BYTES),
        ("{a: ", cli._MAX_CONFIG_BYTES // 4),
        ("- ", cli._MAX_CONFIG_BYTES // 2),
        ("[", 100_000),
    ],
)
def test_deep_nesting_never_crashes_the_process(tmp_path, unit, levels):
    # libyaml's composer recurses in C once per level and segfaults past
    # ~20,000 levels; the size cap is what keeps the depth below that
    run = _run_fresh(["witness", "--config", _write(tmp_path, "config.yaml", unit * levels)])
    assert run.returncode in (0, 2), (run.returncode, run.stderr[-500:])


_LOADER_CASES = [
    (test_golden.ROOT / "configs" / f"{name}.yaml").read_text(encoding="utf-8")
    for name in test_golden.CONFIGS
] + [
    # resolver corners: octal-looking and text-looking numbers, YAML 1.1
    # booleans, null, timestamps, anchors, merge keys, block scalars, CRLF, BOM
    "grover: {marked: 00}\nrate: 1e4\nduration: 1.0e+4\nseed: 0o17\n",
    "a: [yes, No, on, OFF, ~, null, .inf, -.Inf, .nan, 0x1F, 1_000, 12:30:00]\n",
    "t: 2001-12-14t21:59:43.10-05:00\nd: 2002-12-14\n",
    "base: &b {x: 1, y: [1, 2]}\nmore:\n  <<: *b\n  y: 3\nsame: *b\n",
    "text: |\n  two\n  lines\nfolded: >\n  one\n  line\n",
    "\ufeffseed: 3\r\nnoise:\r\n  white_noise: 0.1\r\n",
]


_needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml"
)


def _assert_loaders_agree(text):
    # repr compares types as well as values, and reads NaN as equal to NaN
    expected = yaml.load(text, Loader=yaml.SafeLoader)
    assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(expected)


@_needs_libyaml
@pytest.mark.parametrize("text", _LOADER_CASES)
def test_libyaml_loader_gives_the_pure_python_mapping(text):
    _assert_loaders_agree(text)


@_needs_libyaml
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(config=st.sampled_from(test_config_fuzz.COMMANDS).flatmap(test_config_fuzz._configs))
def test_libyaml_loader_gives_the_pure_python_mapping_on_generated_configs(config):
    _assert_loaders_agree(yaml.safe_dump(config))


@pytest.mark.parametrize("name", test_golden.CONFIGS)
def test_goldens_hold_with_the_pure_python_loader(name, tmp_path, monkeypatch):
    class CountingLoader(yaml.SafeLoader):
        made = 0

        def __init__(self, stream):
            CountingLoader.made += 1
            super().__init__(stream)

    monkeypatch.setattr(cli, "_YAML_LOADER", CountingLoader)
    test_golden.test_shipped_config_matches_golden(name, tmp_path)
    assert CountingLoader.made == 1


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # help text wraps at the terminal width, which both sides read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    calls = (["witness", "--bogus"], ["--help"], ["witness"])
    cli._build_parser.cache_clear()
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = _run_fresh(argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli._build_parser.cache_info().misses == 1


def test_csv_without_out_is_an_error(capsys):
    assert main(["witness", "--format", "csv"]) == 2
    assert "requires --out" in capsys.readouterr().err


def test_format_json_only_writes_json(tmp_path):
    prefix = str(tmp_path / "j")
    assert main(["witness", "--out", prefix, "--format", "json"]) == 0
    assert (tmp_path / "j.json").exists()
    assert not (tmp_path / "j_terms.csv").exists()


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_out_into_missing_directory_exit_code(tmp_path, capsys):
    prefix = str(tmp_path / "missing" / "w")
    assert main(["witness", "--out", prefix]) == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_empty_out_prefix_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["witness", "--out", ""]) == 2
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_negative_seed_exit_code(tmp_path, capsys):
    config = _write(tmp_path, "config.yaml", "seed: -1\n")
    assert main(["witness", "--config", config]) == 2
    assert capsys.readouterr().err == f"error: config field 'seed' must be {SEED_RANGE}, got -1\n"
    assert main(["witness", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == f"error: --seed must be {SEED_RANGE}, got -1\n"
    assert main(["witness", "--seed", "0"]) == 0


def test_internal_error_exit_code(capsys, monkeypatch):
    # a fault in a command rather than in its input exits 1 and says so
    def broken(cfg, model):
        raise RuntimeError("broken handler")

    monkeypatch.setitem(cli._COMMANDS, "witness", (broken,) + cli._COMMANDS["witness"][1:])
    assert main(["witness"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "internal error: broken handler\n")


@pytest.mark.parametrize("field", ["rate", "duration"])
def test_zero_rate_or_duration_exit_code(tmp_path, capsys, field):
    # refused by the field check, before any expected count is formed
    config = _write(tmp_path, "config.yaml", f"{field}: 0\n")
    assert main(["witness", "--config", config]) == 2
    assert capsys.readouterr().err == (
        f"error: config field {field!r} must be a positive finite number, got 0\n"
    )


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("witness", "seed: 1.5\n", "seed"),
        ("grover", "seed: 2.0\n", "seed"),
        ("visibility", "visibility: {samples: 24.0}\n", "visibility.samples"),
    ],
)
def test_float_integer_field_exit_code(tmp_path, capsys, command, text, field):
    # an integer field takes no float, not even a whole one
    config = _write(tmp_path, "config.yaml", text)
    assert main([command, "--config", config]) == 2
    value = yaml.safe_load(text)
    for key in field.split("."):
        value = value[key]
    bounds = "an integer in [4, 65536]" if field == "visibility.samples" else SEED_RANGE
    assert capsys.readouterr().err == (
        f"error: config field {field!r} must be {bounds}, got {value!r}\n"
    )


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "command, path",
    [
        ("witness", "source.theta"),
        ("grover", "duration"),
        ("visibility", "rate"),
        ("witness", "noise.path_dephasing_a"),
        ("gate", "noise.path_dephasing_b"),
        ("grover", "noise.white_noise"),
        ("witness", "noise.fit.targets[5]"),
        ("gate", "gate.alpha"),
        ("gate", "gate.beta"),
        ("witness", "seed"),
    ],
)
def test_float_field_beyond_the_float_range_exit_code(tmp_path, capsys, command, path, sign):
    # an int no float holds is named by its field, never an internal error,
    # and so is a seed past 2**128 - 1, which every output document prints;
    # past Python's int-to-str limit of 4300 digits the message shows its size
    if path.startswith("noise.fit"):
        config = {"noise": {"fit": {"targets": [0.9] * 5 + ["HUGE"]}}}
    else:
        *sections, key = path.split(".")
        config = {key: "HUGE"}
        for section in reversed(sections):
            config = {section: config}
    for huge in (sign * 10**400, sign * 16**4000):
        # YAML reads a hex int of any length; repr stops at 4300 digits
        text = yaml.safe_dump(config).replace("HUGE", hex(huge))
        assert main([command, "--config", _write(tmp_path, "config.yaml", text)]) == 2
        message = capsys.readouterr().err
        assert message.startswith(f"error: config field {path!r} must ")
        shown = repr(huge) if abs(huge) == 10**400 else "an int of 16001 bits"
        assert message.endswith(f", got {shown}\n")


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "grover",
            "grover: {marked: 00}\n",
            "config field 'grover.marked' must be one of '00', '01', '10', '11', got 0 "
            "(quote it, YAML reads bare 00 as a number)",
        ),
        (
            "grover",
            "grover: {feedforward: 1}\n",
            "config field 'grover.feedforward' must be one of True, False, got 1",
        ),
        (
            "gate",
            "gate: {kind: ring}\n",
            "config field 'gate.kind' must be one of 'horseshoe', 'box', got 'ring'",
        ),
        (
            "visibility",
            "visibility: {detector_pair: D2-D1}\n",
            "config field 'visibility.detector_pair' must be one of "
            "'all', 'D1-D2', 'D1-D4', 'D3-D2', 'D3-D4', got 'D2-D1'",
        ),
        (
            "witness",
            "experiment: [witness]\n",
            "config field 'experiment' must be one of "
            "'witness', 'grover', 'gate', 'visibility', got ['witness']",
        ),
    ],
)
def test_choice_field_exit_code(tmp_path, capsys, command, text, message):
    # a value outside the field's set is named with the set and the value
    assert main([command, "--config", _write(tmp_path, "config.yaml", text)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_rate_beyond_the_sampler_exit_code(tmp_path, capsys):
    config = _write(tmp_path, "config.yaml", "rate: 1.0e+20\n")
    assert main(["witness", "--config", config]) == 2
    message = capsys.readouterr().err
    assert "'rate'" in message and "'duration'" in message
    # the cap itself, 1e18 expected coincidences, can still be drawn
    assert from_mapping({"rate": 1e18}, "witness")["rate"] == 1e18


@pytest.mark.parametrize(
    "command, reason", [("witness", "zero counts"), ("grover", "no counts drawn")]
)
def test_zero_counts_exit_code(tmp_path, capsys, command, reason):
    config = _write(tmp_path, "config.yaml", "rate: 0.5\nduration: 0.001\n")
    assert main([command, "--config", config]) == 2
    message = capsys.readouterr().err
    assert reason in message
    assert message.endswith(
        " (config fields 'rate' and 'duration' expect 0.0005 coincidences per setting)\n"
    )
    # a product that underflows to 0 is refused before any count is drawn
    config = _write(tmp_path, "tiny.yaml", "rate: 1.0e-200\nduration: 1.0e-200\n")
    assert main([command, "--config", config]) == 2
    assert capsys.readouterr().err == (
        "error: config fields 'rate' and 'duration': "
        "rate * duration must lie in (0, 1e+18], got 0.0\n"
    )


@pytest.mark.parametrize("command", ["gate", "grover", "visibility"])
def test_source_theta_only_applies_to_witness(tmp_path, capsys, command):
    config = _write(tmp_path, "config.yaml", "source:\n  theta: 0.3\n")
    assert main([command, "--config", config]) == 2
    assert "source.theta" in capsys.readouterr().err
    assert main(["witness", "--config", config]) == 0


# ---------------------------------------------------------------------------
# the field table
# ---------------------------------------------------------------------------

# a value of each field that differs from its default and that the commands
# reading the field accept; the experiment guard accepts only the invoked
# command, so it shows that it is read by failing on another one
_NON_DEFAULT = {
    "source.theta": 0.3,
    "noise": {"white_noise": 0.05},
    "seed": 5,
    "duration": 0.5,
    "rate": 6000.0,
    "grover.marked": "11",
    "grover.feedforward": False,
    "gate.kind": "box",
    "gate.alpha": 0.4,
    "gate.beta": 0.7,
    "visibility.detector_pair": "D1-D4",
    "visibility.samples": 8,
}


def _field_config(tmp_path, path, value):
    section, _, key = path.rpartition(".")
    config = {section: {key: value}} if section else {key: value}
    return _write(tmp_path, "config.yaml", yaml.safe_dump(config))


def _result(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if code == 0 else None


@pytest.mark.parametrize(
    "path, command",
    [
        (field.path, command)
        for field in cli._FIELDS
        for command in cli._COMMANDS
        if command not in field.commands
    ],
)
def test_field_is_rejected_by_commands_that_ignore_it(tmp_path, capsys, path, command):
    config = _field_config(tmp_path, path, _NON_DEFAULT[path])
    assert main([command, "--config", config]) == 2
    message = capsys.readouterr().err
    assert f"config field {path!r} only applies to" in message
    assert f"{command!r} would ignore it" in message


@pytest.mark.parametrize(
    "path, command",
    [(field.path, command) for field in cli._FIELDS for command in field.commands],
)
def test_field_changes_the_output_of_commands_that_read_it(tmp_path, capsys, path, command):
    if path == "experiment":
        commands = list(cli._COMMANDS)
        value = commands[(commands.index(command) + 1) % len(commands)]
    else:
        value = _NON_DEFAULT[path]
    default = _result(capsys, [command])
    assert default[0] == 0
    assert _result(capsys, [command, "--config", _field_config(tmp_path, path, value)]) != default


def _readme_schema():
    """The README's config schema block, and the commands each field line names."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    readers, section = {}, ""
    lines = re.findall(r"^( *)(\w+):([^#\n]*)(?:#\s*\[([^\]]*)\])?", block, re.MULTILINE)
    for indent, key, value, commands in lines:
        if not value.strip():
            section = f"{key}."
        else:
            readers[(section if indent else "") + key] = commands
    return yaml.safe_load(block), readers


def test_readme_schema_lists_every_field_and_its_commands():
    document, readers = _readme_schema()
    paths = []
    for top, entry in document.items():
        paths += [f"{top}.{key}" for key in entry] if isinstance(entry, dict) else [top]
    assert sorted(paths) == sorted(field.path for field in cli._FIELDS)
    every = tuple(cli._COMMANDS)
    assert readers == {
        field.path: "all" if field.commands == every else ", ".join(field.commands)
        for field in cli._FIELDS
    }


def test_noise_error_names_the_same_field_under_every_hash_seed(tmp_path):
    config = _write(
        tmp_path,
        "config.yaml",
        "noise: {white_noise: x, path_dephasing_a: y, path_dephasing_b: z}\n",
    )
    runs = [
        _run_fresh(["witness", "--config", config], PYTHONHASHSEED=str(seed))
        for seed in range(6)
    ]
    assert {(run.returncode, run.stderr) for run in runs} == {(2, runs[0].stderr)}
    # the first bad parameter in the file
    assert "'noise.white_noise'" in runs[0].stderr


_NOISE_FORMS = (
    "config field 'noise' must be 'ideal', 'fit', a mapping of noise parameters "
    "(path_dephasing_a, path_dephasing_b, white_noise) or a mapping "
    "{fit: {targets: [six numbers]}}"
)


@pytest.mark.parametrize(
    "noise, message",
    [
        (
            "{white_noise: 1.5}",
            "config field 'noise.white_noise' must lie in [0, 1], got 1.5",
        ),
        (
            "{white_noise: 0.1, path_dephasing_b: -0.5}",
            "config field 'noise.path_dephasing_b' must lie in [0, 1], got -0.5",
        ),
        (
            "{fit: {targets: [0.9, 0.9, 0.9, 0.9, 0.9, 2.0]}}",
            "config field 'noise.fit.targets[5]' must lie in [-1, 1], got 2.0",
        ),
        ("bogus", _NOISE_FORMS),
        ("[0.1]", _NOISE_FORMS),
    ],
)
def test_noise_error_names_its_config_path(tmp_path, capsys, noise, message):
    # noise values are checked with the other fields, in file order, so the
    # rate beyond the sampler further down is not reached
    config = _write(tmp_path, "config.yaml", f"noise: {noise}\nrate: 1.0e+30\n")
    for command in cli._COMMANDS:
        assert main([command, "--config", config]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_threads_key_is_rejected(tmp_path, capsys):
    config = _write(tmp_path, "config.yaml", "threads: 1\n")
    assert main(["witness", "--config", config]) == 2
    assert "'threads'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, written", [("1e-9", "1.0e-9"), ("2.5e3", "2.5e+3"), ("3E+2", "3.0e+2")]
)
def test_exponent_read_as_text_names_the_fix(tmp_path, text, written):
    path = _write(tmp_path, "config.yaml", f"duration: {text}\n")
    with pytest.raises(ConfigError, match="must be a positive finite number") as info:
        load_config(path, "witness")
    assert "YAML 1.1" in str(info.value) and written in str(info.value)
    # the suggested spelling parses as a number
    assert load_config(_write(tmp_path, "fixed.yaml", f"duration: {written}\n"), "witness")


def test_fit_target_read_as_text_names_the_fix(tmp_path):
    path = _write(
        tmp_path, "config.yaml", "noise:\n  fit:\n    targets: [0.9, 0.9, 0.9, 0.9, 0.9, 1e-3]\n"
    )
    with pytest.raises(ConfigError, match=r"'noise\.fit\.targets\[5\]' must lie in") as info:
        load_config(path, "witness")
    assert "write 1.0e-3" in str(info.value)
