"""End-to-end tests of the command line front end."""

import json

import pytest

from onewaysim.cli import ConfigError, ExperimentConfig, load_config, main, resolve_noise


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.noise == "ideal"
    assert cfg.seed == 0
    assert cfg.duration == 1.0
    assert cfg.gate_kind == "horseshoe"
    assert cfg.visibility_pair == "all"


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
    cfg = load_config(path)
    assert cfg.experiment == "grover"
    assert cfg.seed == 12
    assert cfg.duration == 2.5
    assert cfg.grover_marked == "01"
    assert cfg.grover_feedforward is False
    model, info = resolve_noise(cfg)
    assert model.path_dephasing_b == 0.05
    assert info["kind"] == "parameters"


def test_load_config_rejects_unknown_keys(tmp_path):
    path = _write(tmp_path, "config.yaml", "bogus_key: 1\n")
    with pytest.raises(ConfigError, match="bogus_key"):
        load_config(path)


def test_load_config_rejects_unquoted_mark(tmp_path):
    # YAML reads a bare 00 as the integer 0; the error must say so
    path = _write(tmp_path, "config.yaml", "grover:\n  marked: 00\n")
    with pytest.raises(ConfigError, match="quote"):
        load_config(path)


def test_load_config_rejects_bad_noise(tmp_path):
    path = _write(tmp_path, "config.yaml", "noise:\n  white_noise: 1.5\n")
    cfg = load_config(path)
    with pytest.raises(ConfigError, match="white_noise"):
        resolve_noise(cfg)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.yaml")


def test_load_config_accepts_json(tmp_path):
    path = _write(tmp_path, "config.json", '{"seed": 3, "noise": "fit"}')
    cfg = load_config(path)
    assert cfg.seed == 3
    model, info = resolve_noise(cfg)
    assert info["kind"] == "fit"
    assert 0.0 < model.white_noise < 0.2
    assert info["fit_residual"] > 0.0


def test_resolve_noise_fit_targets(tmp_path):
    path = _write(
        tmp_path,
        "config.yaml",
        "noise:\n  fit:\n    targets: [0.9, 0.9, 0.9, 0.9, 0.9, 0.9]\n",
    )
    model, info = resolve_noise(load_config(path))
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


def test_witness_fitted_run(tmp_path):
    config = _write(tmp_path, "config.yaml", "experiment: witness\nnoise: fit\n")
    prefix = str(tmp_path / "wf")
    assert main(["witness", "--config", config, "--out", prefix]) == 0
    document = json.loads((tmp_path / "wf.json").read_text())
    assert document["noise"]["kind"] == "fit"
    assert document["exact"]["witness"] == pytest.approx(-0.7656, abs=1e-3)
    assert abs(document["counted"]["witness"] - document["exact"]["witness"]) < 0.03


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
    cfg = ExperimentConfig.from_mapping({"visibility": {"samples": 65536}})
    assert cfg.visibility_samples == 65536


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
    assert "'seed'" in capsys.readouterr().err
    assert main(["witness", "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_rate_beyond_the_sampler_exit_code(tmp_path, capsys):
    config = _write(tmp_path, "config.yaml", "rate: 1.0e+20\n")
    assert main(["witness", "--config", config]) == 2
    message = capsys.readouterr().err
    assert "'rate'" in message and "'duration'" in message


@pytest.mark.parametrize(
    "command, reason", [("witness", "zero counts"), ("grover", "no counts drawn")]
)
def test_zero_counts_exit_code(tmp_path, capsys, command, reason):
    config = _write(tmp_path, "config.yaml", "rate: 0.5\nduration: 0.001\n")
    assert main([command, "--config", config]) == 2
    message = capsys.readouterr().err
    assert reason in message and "'rate'" in message and "'duration'" in message


@pytest.mark.parametrize("command", ["gate", "grover", "visibility"])
def test_source_theta_only_applies_to_witness(tmp_path, capsys, command):
    config = _write(tmp_path, "config.yaml", "source:\n  theta: 0.3\n")
    assert main([command, "--config", config]) == 2
    assert "source.theta" in capsys.readouterr().err
    assert main(["witness", "--config", config]) == 0


def test_threads_key_is_rejected(tmp_path, capsys):
    config = _write(tmp_path, "config.yaml", "threads: 1\n")
    assert main(["witness", "--config", config]) == 2
    assert "'threads'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, written", [("1e-9", "1.0e-9"), ("2.5e3", "2.5e+3"), ("3E+2", "3.0e+2")]
)
def test_exponent_read_as_text_names_the_fix(tmp_path, text, written):
    path = _write(tmp_path, "config.yaml", f"duration: {text}\n")
    with pytest.raises(ConfigError, match="must be a number") as info:
        load_config(path)
    assert "YAML 1.1" in str(info.value) and written in str(info.value)
    # the suggested spelling parses as a number
    assert load_config(_write(tmp_path, "fixed.yaml", f"duration: {written}\n"))


def test_fit_target_read_as_text_names_the_fix(tmp_path):
    path = _write(
        tmp_path, "config.yaml", "noise:\n  fit:\n    targets: [0.9, 0.9, 0.9, 0.9, 0.9, 1e-3]\n"
    )
    with pytest.raises(ConfigError, match="six numbers") as info:
        load_config(path)
    assert "write 1.0e-3" in str(info.value)
