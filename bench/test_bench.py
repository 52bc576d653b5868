"""Self-tests of the benchmark: inputs, tracing and output checks.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import checks
import run
import speed
import workloads
from tracing import Tracer

CLI = run.import_cli()
REFERENCE = run.load_reference()


def _inputs(workload, tmp_path, seed=workloads.DEFAULT_SEED):
    return run.build_inputs(workload, seed, tmp_path, REFERENCE)


def _by_name(inputs, name):
    return next(i for i, item in enumerate(inputs) if item.config_path.name == name)


def _snapshot():
    import onewaysim.qcore as qcore

    state = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "onewaysim" or name.startswith("onewaysim.")
        for attr, value in vars(module).items()
        if callable(value)
    }
    state[("DensityMatrix", "__init__")] = qcore.DensityMatrix.__dict__["__init__"]
    return state


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mixed", [True, False])
def test_generator_is_deterministic_and_seeded(mixed):
    first = workloads.generated_inputs(7, mixed)
    assert first == workloads.generated_inputs(7, mixed)
    assert first != workloads.generated_inputs(8, mixed)
    # cost-relevant choices are the same multiset for every seed
    def shape(inputs):
        out = []
        for command, cfg in inputs:
            section = cfg.get(command, {})
            keys = ("marked", "feedforward", "kind", "detector_pair", "samples")
            out.append((command,) + tuple(section.get(k) for k in keys))
        return sorted(out, key=repr)

    assert shape(first) == shape(workloads.generated_inputs(8, mixed))


@pytest.mark.parametrize("mixed", [True, False])
def test_generated_configs_keep_to_the_cli_contract(mixed):
    for command, cfg in workloads.generated_inputs(3, mixed):
        assert cfg["experiment"] == command
        assert "threads" not in cfg
        assert ("source" in cfg) == (command == "witness")
        assert yaml.safe_load(yaml.safe_dump(cfg)) == cfg
        if command == "visibility":
            assert cfg["visibility"]["samples"] % 2 == 0
        if mixed:
            noise = cfg["noise"]
            assert 0.01 <= noise["white_noise"] <= 0.1
            assert 0.0 <= noise["path_dephasing_a"] <= 0.1
            assert 0.0 <= noise["path_dephasing_b"] <= 0.1
        else:
            assert cfg["noise"] == "ideal"


def test_shipped_inputs_rotate_with_the_seed():
    configs = run.CONFIGS
    base = workloads.shipped_inputs(configs, 0)
    assert sorted(map(str, workloads.shipped_inputs(configs, 2))) == sorted(map(str, base))
    assert workloads.shipped_inputs(configs, 2)[0] == base[2]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_traced_outputs_are_identical_and_wrappers_restored(tmp_path):
    inputs = _inputs("pure_sweep", tmp_path) + _inputs("shipped_fit", tmp_path)[:1]
    client = run.Client(CLI, tmp_path)

    def outputs():
        files = {}
        for index, item in enumerate(inputs):
            _, code = client.call(index, item)
            assert code == 0
            for path in sorted(tmp_path.glob(f"out_{index:03d}*")):
                files[(index, path.name)] = path.read_bytes()
        return files

    before = _snapshot()
    plain = outputs()
    with Tracer() as tracer:
        assert _snapshot() != before
        traced = outputs()
    assert tracer.calls("cli.main") == len(inputs)
    assert traced == plain
    assert _snapshot() == before


def test_times_are_scaled_to_the_reference_speed(tmp_path, monkeypatch):
    # a machine running at half the reference speed
    monkeypatch.setattr(speed, "calibrate", lambda: 2 * speed.REFERENCE_S)
    inputs = _inputs("pure_sweep", tmp_path)
    firsts = {item.command: index for index, item in reversed(list(enumerate(inputs)))}
    client = run.Client(CLI, tmp_path)
    with Tracer() as tracer:
        calls = [client.timed(index, inputs[index], tracer) for index in firsts.values()]
    assert all(call.error is None and call.scale == 0.5 for call in calls)
    scaled = [call.seconds / 2 for call in calls]
    assert [call.reference_seconds for call in calls] == scaled
    root = tracer.stats["cli.main"][2]
    assert 0.8 * sum(scaled) < root <= sum(scaled)
    metrics = run.end_to_end_metrics(calls, [1.0, 3.0])
    for call in calls:
        assert metrics[f"{call.command}_ms"][0] == pytest.approx(call.reference_seconds * 1e3)
    assert metrics["invocations_per_s"][0] == pytest.approx(len(calls) / sum(scaled))
    assert metrics["setup_s"][0] == 2.0


def _traced_call(tmp_path, workload, name):
    inputs = _inputs(workload, tmp_path)
    index = _by_name(inputs, name)
    client = run.Client(CLI, tmp_path)
    with Tracer() as tracer:
        assert client.invoke(index, inputs[index]).error is None
    return tracer


def test_call_count_anchors(tmp_path):
    fitted = _traced_call(tmp_path, "shipped_fit", "witness_fitted.yaml")
    assert fitted.calls("photonics.fit_noise") == 1
    assert fitted.edge_calls("photonics.fit_noise", "photonics.apply_noise") == 577
    assert fitted.edge_calls("photonics.fit_noise", "qcore.expectation") == 3462

    scan = _traced_call(tmp_path, "shipped_fit", "visibility.yaml")
    assert scan.calls("photonics.visibility_fringe") == 96
    assert scan.calls("photonics.beam_splitter") == 192

    search = _traced_call(tmp_path, "shipped_fit", "grover.yaml")
    assert search.calls("mbqc.run_pattern") == 16
    assert search.branches_returned == 16


def test_pure_search_wastes_impossible_branches(tmp_path):
    inputs = _inputs("pure_sweep", tmp_path)
    index = next(i for i, item in enumerate(inputs) if item.command == "grover")
    client = run.Client(CLI, tmp_path)
    with Tracer() as tracer:
        assert client.invoke(index, inputs[index]).error is None
    assert tracer.edge_calls("mbqc.branch_distribution", "mbqc.run_pattern") == 16
    assert tracer.branches_returned == 4


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _output(tmp_path, workload, index):
    inputs = _inputs(workload, tmp_path)
    client = run.Client(CLI, tmp_path)
    item = inputs[index]
    _, code = client.call(index, item)
    assert code == 0
    doc, rows = client.outputs(index, item)
    return item, doc, rows


def _check(item, doc, rows, reference=True):
    checks.check_invocation(
        item.command, item.config, doc, rows, item.reference if reference else None
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_default_seed_output_passes(tmp_path, workload):
    inputs = _inputs(workload, tmp_path)
    client = run.Client(CLI, tmp_path)
    assert all(item.reference is not None for item in inputs)
    for index, item in enumerate(inputs):
        assert client.invoke(index, item).error is None


def _tamper_counted_term(doc, rows):
    doc["counted"]["terms"]["IZXX"] *= -1.0
    doc["counted"]["witness"] = (4.0 - sum(doc["counted"]["terms"].values())) / 2.0
    doc["counted"]["fidelity_bound"] = 0.5 - doc["counted"]["witness"] / 2.0


def _tamper_totals(doc, rows):
    doc["counted"]["setting_totals"]["XXZZ"] += 1


def _tamper_fidelity(doc, rows):
    doc["fidelities"]["01"] -= 1e-3
    doc["mean_fidelity"] = sum(doc["fidelities"].values()) / 4.0


def _tamper_fringe(doc, rows):
    doc["fringes"]["D1-D4"]["probabilities"][3] += 1e-4


def _tamper_csv(doc, rows):
    rows[2][1] = "0.5"


@pytest.mark.parametrize(
    "name, tamper",
    [
        ("witness_fitted.yaml", _tamper_counted_term),
        ("witness_fitted.yaml", _tamper_totals),
        ("gate_box.yaml", _tamper_fidelity),
        ("visibility.yaml", _tamper_fringe),
        ("grover.yaml", _tamper_csv),
    ],
)
def test_checker_rejects_tampered_output(tmp_path, name, tamper):
    inputs = _inputs("shipped_fit", tmp_path)
    item, doc, rows = _output(tmp_path, "shipped_fit", _by_name(inputs, name))
    _check(item, doc, rows)
    tamper(doc, rows)
    with pytest.raises(checks.CheckError):
        _check(item, doc, rows)


def test_checker_rejects_negated_term_without_reference(tmp_path):
    inputs = _inputs("mixed_sweep", tmp_path)
    index = next(i for i, item in enumerate(inputs) if item.command == "witness")
    item, doc, rows = _output(tmp_path, "mixed_sweep", index)
    _check(item, doc, rows, reference=False)
    doc["exact"]["terms"]["ZZII"] *= -1.0
    with pytest.raises(checks.CheckError):
        _check(item, doc, rows, reference=False)


def _closed_form_fit(targets):
    """Least squares of the noise model in closed form: two means."""
    from onewaysim.photonics import NoiseModel

    t = dict(zip(checks.WORDS, targets))
    keep = sum(t[w] for w in ("XXIZ", "XXZI", "IIZZ", "ZZII")) / 4.0
    q = (t["IZXX"] + t["ZIXX"]) / 2.0 / keep
    residual = sum((t[w] - keep) ** 2 for w in ("XXIZ", "XXZI", "IIZZ", "ZZII"))
    residual += sum((t[w] - keep * q) ** 2 for w in ("IZXX", "ZIXX"))
    return NoiseModel(0.0, 1.0 - q, 1.0 - keep), residual


def test_checker_accepts_the_closed_form_model(tmp_path, monkeypatch):
    import onewaysim.cli as cli_module
    import onewaysim.photonics as photonics

    model, _ = _closed_form_fit(
        [photonics.REFERENCE_WITNESS_TERMS[w][0] for w in checks.WORDS]
    )
    assert model.white_noise == pytest.approx(0.06675, abs=1e-12)
    assert model.path_dephasing_b == pytest.approx(0.0365926, abs=1e-7)
    monkeypatch.setattr(cli_module, "fit_noise", _closed_form_fit)
    inputs = _inputs("shipped_fit", tmp_path)
    client = run.Client(CLI, tmp_path)
    moved = 0.0
    for index, item in enumerate(inputs):
        assert client.invoke(index, item).error is None
        doc, _ = client.outputs(index, item)
        if item.command == "witness":
            moved = max(
                abs(doc["counted"]["terms"][w] - item.reference["counted"]["terms"][w])
                for w in checks.WORDS
            )
    # the check has to tolerate the multinomial draw moving with the model
    assert moved > 1e-4


def test_reference_comparison_is_strict_on_copies(tmp_path):
    inputs = _inputs("pure_sweep", tmp_path)
    index = next(i for i, item in enumerate(inputs) if item.command == "grover")
    item, doc, rows = _output(tmp_path, "pure_sweep", index)
    wrong = copy.deepcopy(doc)
    wrong["trials"] += 1
    with pytest.raises(checks.CheckError):
        checks.compare_reference(wrong, item.reference)
    wrong = copy.deepcopy(doc)
    wrong["extra"] = 1
    with pytest.raises(checks.CheckError):
        checks.compare_reference(wrong, item.reference)


# ---------------------------------------------------------------------------
# the command itself
# ---------------------------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in Path(run.HERE).iterdir():
        if path.is_file():
            shutil.copy(path, bench / path.name)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pure_sweep", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
