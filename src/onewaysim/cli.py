"""Command line front end.

Four subcommands mirror the analysis pipelines: ``witness``,
``grover``, ``gate``, and ``visibility``.  Each accepts a YAML config
file (JSON works too, it is a YAML subset), an output prefix, an
optional seed override, and an output format.  Runs are fully
deterministic: the same config and seed produce byte-identical output
files.

Without ``--out`` the JSON document is the only thing on stdout and the
summary line goes to stderr, so stdout always parses as one document.

Exit codes: 0 on success, 2 for configuration or usage problems, 1 for
internal errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import yaml

from .analysis import (
    NoCountsError,
    gate_fidelity_report,
    grover_report,
    simulate_witness_records,
    witness_from_counts,
    witness_value,
)
from .mbqc import _MARKS
from .photonics import (
    COINCIDENCE_RATE_HZ,
    DETECTOR_PAIRS,
    NoiseModel,
    REFERENCE_WITNESS_TERMS,
    SourceParams,
    WITNESS_OBSERVABLES,
    apply_noise,
    fit_noise,
    source_state,
    visibility_scans,
)


class ConfigError(Exception):
    """Invalid configuration; reported with exit code 2."""


_COMMANDS = ("witness", "grover", "gate", "visibility")

_TOP_KEYS = {
    "experiment",
    "source",
    "noise",
    "seed",
    "duration",
    "rate",
    "grover",
    "gate",
    "visibility",
}
_NOISE_KEYS = {"path_dephasing_a", "path_dephasing_b", "white_noise"}

# numpy's Poisson sampler refuses means beyond the int64 range (~9.2e18)
_MAX_EXPECTED_COUNTS = 1e18

# fringe phases per scan: the whole phase grid is allocated at once
_MAX_VISIBILITY_SAMPLES = 65536

# a number in exponent form that YAML 1.1 reads as text: no decimal point
# in the mantissa, or no sign on the exponent
_TEXT_EXPONENT = re.compile(r"([-+]?[0-9]+)(\.[0-9]*)?[eE]([-+]?)([0-9]+)")


def _as_mapping(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config field {name!r} must be a mapping")
    return value


def _check_keys(mapping: dict, allowed, prefix: str = "") -> None:
    for key in mapping:
        if key not in allowed:
            shown = f"{prefix}{key}"
            raise ConfigError(f"unknown config field {shown!r}")


def _number_hint(value) -> str:
    match = _TEXT_EXPONENT.fullmatch(value.strip()) if isinstance(value, str) else None
    if match is None:
        return ""
    mantissa, fraction, sign, digits = match.groups()
    written = f"{mantissa}{fraction or '.0'}e{sign or '+'}{digits}"
    return f" (YAML 1.1 reads {value!r} as text; write {written})"


def _number(mapping: dict, key: str, default, name: str, minimum=None, positive=False):
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {name!r} must be a number{_number_hint(value)}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"config field {name!r} must be finite")
    if positive and value <= 0:
        raise ConfigError(f"config field {name!r} must be positive")
    if minimum is not None and value < minimum:
        raise ConfigError(f"config field {name!r} must be >= {minimum}")
    return value


def _integer(mapping: dict, key: str, default, name: str, minimum=None) -> int:
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field {name!r} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"config field {name!r} must be >= {minimum}")
    return int(value)


@dataclass
class ExperimentConfig:
    """Validated run configuration with experiment defaults."""

    experiment: Optional[str] = None
    theta: Optional[float] = None  # None when the config sets no source.theta
    noise: object = "ideal"
    seed: int = 0
    duration: float = 1.0
    rate: float = COINCIDENCE_RATE_HZ
    grover_marked: str = "00"
    grover_feedforward: bool = True
    gate_kind: str = "horseshoe"
    gate_alpha: float = 0.0
    gate_beta: float = 0.0
    visibility_pair: str = "all"
    visibility_samples: int = 24

    @classmethod
    def from_mapping(cls, data: Optional[dict]) -> "ExperimentConfig":
        if data is None:
            data = {}
        data = _as_mapping(data, "<top level>")
        _check_keys(data, _TOP_KEYS)
        cfg = cls()

        experiment = data.get("experiment")
        if experiment is not None:
            if experiment not in _COMMANDS:
                raise ConfigError(
                    f"config field 'experiment' must be one of {_COMMANDS}"
                )
            cfg.experiment = experiment

        source = _as_mapping(data.get("source", {}), "source")
        _check_keys(source, {"theta"}, "source.")
        if "theta" in source:
            cfg.theta = _number(source, "theta", 0.0, "source.theta")

        cfg.noise = _validated_noise(data.get("noise", "ideal"))
        cfg.seed = _integer(data, "seed", 0, "seed", minimum=0)
        cfg.duration = _number(data, "duration", 1.0, "duration", positive=True)
        cfg.rate = _number(data, "rate", COINCIDENCE_RATE_HZ, "rate", positive=True)
        expected = cfg.rate * cfg.duration
        if expected > _MAX_EXPECTED_COUNTS:
            raise ConfigError(
                f"config fields 'rate' and 'duration' ask for {expected:.3g} "
                f"coincidences, more than the {_MAX_EXPECTED_COUNTS:.0e} that can be drawn"
            )

        grover = _as_mapping(data.get("grover", {}), "grover")
        _check_keys(grover, {"marked", "feedforward"}, "grover.")
        marked = grover.get("marked", "00")
        if not isinstance(marked, str) or marked not in _MARKS:
            raise ConfigError(
                "config field 'grover.marked' must be one of '00','01','10','11' "
                "(quote it, YAML reads bare 00 as a number)"
            )
        cfg.grover_marked = marked
        feedforward = grover.get("feedforward", True)
        if not isinstance(feedforward, bool):
            raise ConfigError("config field 'grover.feedforward' must be a boolean")
        cfg.grover_feedforward = feedforward

        gate = _as_mapping(data.get("gate", {}), "gate")
        _check_keys(gate, {"kind", "alpha", "beta"}, "gate.")
        kind = gate.get("kind", "horseshoe")
        if kind not in ("horseshoe", "box"):
            raise ConfigError("config field 'gate.kind' must be 'horseshoe' or 'box'")
        cfg.gate_kind = kind
        cfg.gate_alpha = _number(gate, "alpha", 0.0, "gate.alpha")
        cfg.gate_beta = _number(gate, "beta", 0.0, "gate.beta")

        visibility = _as_mapping(data.get("visibility", {}), "visibility")
        _check_keys(visibility, {"detector_pair", "samples"}, "visibility.")
        pair = visibility.get("detector_pair", "all")
        if pair != "all" and pair not in DETECTOR_PAIRS:
            raise ConfigError(
                "config field 'visibility.detector_pair' must be 'all' or one of "
                + ", ".join(DETECTOR_PAIRS)
            )
        cfg.visibility_pair = pair
        cfg.visibility_samples = _integer(
            visibility, "samples", 24, "visibility.samples", minimum=4
        )
        if cfg.visibility_samples % 2:
            raise ConfigError("config field 'visibility.samples' must be even")
        if cfg.visibility_samples > _MAX_VISIBILITY_SAMPLES:
            raise ConfigError(
                f"config field 'visibility.samples' must be <= {_MAX_VISIBILITY_SAMPLES}"
            )
        return cfg


def _validated_noise(spec):
    if spec == "ideal" or spec == "fit":
        return spec
    mapping = _as_mapping(spec, "noise")
    if "fit" in mapping:
        _check_keys(mapping, {"fit"}, "noise.")
        fit = _as_mapping(mapping["fit"], "noise.fit")
        _check_keys(fit, {"targets"}, "noise.fit.")
        targets = fit.get("targets")
        if (
            not isinstance(targets, (list, tuple))
            or len(targets) != 6
            or any(isinstance(t, bool) or not isinstance(t, (int, float)) for t in targets)
        ):
            hints = "".join(map(_number_hint, targets)) if isinstance(targets, list) else ""
            raise ConfigError(
                "config field 'noise.fit.targets' must list six numbers in the "
                "order " + ", ".join(WITNESS_OBSERVABLES) + hints
            )
        return {"fit": {"targets": [float(t) for t in targets]}}
    _check_keys(mapping, _NOISE_KEYS, "noise.")
    params = {}
    for key in _NOISE_KEYS:
        params[key] = _number(mapping, key, 0.0, f"noise.{key}")
    return params


def load_config(path: Optional[str]) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig.from_mapping(None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (yaml.YAMLError, RecursionError) as exc:  # deep nesting recurses
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    return ExperimentConfig.from_mapping(data)


def resolve_noise(cfg: ExperimentConfig) -> Tuple[NoiseModel, Dict[str, object]]:
    """Build the noise model, fitting it when the config asks for that."""
    spec = cfg.noise
    if spec == "ideal":
        return NoiseModel.ideal(), {"kind": "ideal"}
    if spec == "fit":
        targets = [REFERENCE_WITNESS_TERMS[w][0] for w in WITNESS_OBSERVABLES]
    elif isinstance(spec, dict) and "fit" in spec:
        targets = spec["fit"]["targets"]
    else:
        try:
            model = NoiseModel(**spec)
        except ValueError as exc:
            raise ConfigError(f"invalid noise parameters: {exc}") from exc
        return model, {"kind": "parameters", **_model_dict(model)}
    try:
        model, residual = fit_noise(targets)
    except ValueError as exc:
        raise ConfigError(f"invalid fit targets: {exc}") from exc
    info = {
        "kind": "fit",
        "fit_targets": list(targets),
        "fit_residual": residual,
        **_model_dict(model),
    }
    return model, info


def _model_dict(model: NoiseModel) -> Dict[str, float]:
    return {
        "path_dephasing_a": model.path_dephasing_a,
        "path_dephasing_b": model.path_dephasing_b,
        "white_noise": model.white_noise,
    }


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(json.dumps(document, indent=2, sort_keys=True))
        handle.write("\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(cell) for cell in row) + "\n")


# what a subcommand hands to _emit: document, CSV name, header, rows, summary
_Result = Tuple[dict, str, Tuple[str, ...], list, str]


def _emit(prefix: Optional[str], fmt: str, result: _Result) -> int:
    """Write the requested outputs and report them; return the exit code.

    Without a prefix the JSON document goes to stdout and the summary to
    stderr, so stdout holds nothing but the document.
    """
    document, csv_name, header, rows, summary = result
    if prefix is None:
        print(json.dumps(document, indent=2, sort_keys=True))
        print(summary, file=sys.stderr)
        return 0
    written = []
    try:
        if fmt in ("json", "both"):
            written.append(f"{prefix}.json")
            _write_json(written[-1], document)
        if fmt in ("csv", "both"):
            written.append(f"{prefix}_{csv_name}.csv")
            _write_csv(written[-1], header, rows)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {written[-1]!r}: {exc.strerror}") from exc
    print(summary)
    for path in written:
        print(f"wrote {path}")
    return 0


def _common_document(cfg: ExperimentConfig, noise_info: dict) -> dict:
    return {
        "seed": cfg.seed,
        "duration": cfg.duration,
        "rate": cfg.rate,
        "noise": noise_info,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_witness(cfg: ExperimentConfig) -> _Result:
    model, noise_info = resolve_noise(cfg)
    theta = 0.0 if cfg.theta is None else cfg.theta
    state = source_state(SourceParams(theta))
    prepared = state if model.is_ideal() else apply_noise(state, model)
    exact = witness_value(prepared)
    records = simulate_witness_records(prepared, cfg.rate, cfg.duration, cfg.seed)
    counted = witness_from_counts(records)

    document = _common_document(cfg, noise_info)
    document.update(
        {
            "command": "witness",
            "theta": theta,
            "exact": {
                "terms": exact.terms,
                "witness": exact.witness,
                "fidelity_bound": exact.fidelity_bound,
            },
            "counted": {
                "terms": counted.terms,
                "term_stderrs": counted.term_stderrs,
                "witness": counted.witness,
                "witness_stderr": counted.witness_stderr,
                "fidelity_bound": counted.fidelity_bound,
                "fidelity_bound_stderr": counted.fidelity_bound_stderr,
                "setting_totals": counted.setting_totals,
            },
        }
    )
    rows = [
        (
            word,
            exact.terms[word],
            counted.terms[word],
            counted.term_stderrs[word],
        )
        for word in WITNESS_OBSERVABLES
    ]
    summary = "witness %.6f (exact %.6f), fidelity bound %.6f" % (
        counted.witness, exact.witness, counted.fidelity_bound
    )
    return document, "terms", ("term", "exact", "estimate", "stderr"), rows, summary


def cmd_grover(cfg: ExperimentConfig) -> _Result:
    model, noise_info = resolve_noise(cfg)
    report = grover_report(
        noise=None if model.is_ideal() else model,
        feedforward=cfg.grover_feedforward,
        marked=cfg.grover_marked,
        rate=cfg.rate,
        duration=cfg.duration,
        seed=cfg.seed,
    )
    document = _common_document(cfg, noise_info)
    document.update(
        {
            "command": "grover",
            "marked": report.marked,
            "feedforward": report.feedforward,
            "distribution": report.distribution,
            "success_probability": report.success_probability,
            "trials": report.trials,
            "estimated_success": report.estimated_success,
            "estimate_stderr": report.estimate_stderr,
        }
    )
    rows = [
        (outcome, report.distribution[outcome])
        for outcome in sorted(report.distribution)
    ]
    summary = "search success %.6f (estimated %.6f +- %.6f from %d counts)" % (
        report.success_probability,
        report.estimated_success,
        report.estimate_stderr,
        report.trials,
    )
    return document, "distribution", ("outcome", "probability"), rows, summary


def cmd_gate(cfg: ExperimentConfig) -> _Result:
    model, noise_info = resolve_noise(cfg)
    report = gate_fidelity_report(
        cfg.gate_kind,
        cfg.gate_alpha,
        cfg.gate_beta,
        noise=None if model.is_ideal() else model,
    )
    fidelities = {f"{s2}{s3}": value for (s2, s3), value in report.items()}
    mean = sum(report.values()) / len(report)
    document = _common_document(cfg, noise_info)
    document.update(
        {
            "command": "gate",
            "kind": cfg.gate_kind,
            "alpha": cfg.gate_alpha,
            "beta": cfg.gate_beta,
            "fidelities": fidelities,
            "mean_fidelity": mean,
        }
    )
    rows = [
        (s2, s3, report[(s2, s3)]) for s2 in (0, 1) for s3 in (0, 1)
    ]
    summary = "%s gate alpha=%.4f beta=%.4f mean branch fidelity %.6f" % (
        cfg.gate_kind, cfg.gate_alpha, cfg.gate_beta, mean
    )
    return document, "fidelities", ("s2", "s3", "fidelity"), rows, summary


def cmd_visibility(cfg: ExperimentConfig) -> _Result:
    model, noise_info = resolve_noise(cfg)
    pairs = DETECTOR_PAIRS if cfg.visibility_pair == "all" else (cfg.visibility_pair,)
    scans = visibility_scans(model, pairs, cfg.visibility_samples)
    document = _common_document(cfg, noise_info)
    document.update(
        {
            "command": "visibility",
            "samples": cfg.visibility_samples,
            "visibilities": {scan.detector_pair: scan.visibility for scan in scans},
            "fringes": {
                scan.detector_pair: {
                    "thetas": list(scan.thetas),
                    "probabilities": list(scan.probabilities),
                }
                for scan in scans
            },
        }
    )
    rows = [
        (scan.detector_pair, theta, probability)
        for scan in scans
        for theta, probability in zip(scan.thetas, scan.probabilities)
    ]
    summary = "\n".join(
        "visibility %s %.6f" % (scan.detector_pair, scan.visibility) for scan in scans
    )
    return document, "fringes", ("detector_pair", "theta", "probability"), rows, summary


_HANDLERS = {
    "witness": cmd_witness,
    "grover": cmd_grover,
    "gate": cmd_gate,
    "visibility": cmd_visibility,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onewaysim",
        description="simulate the two-photon four-qubit cluster experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("witness", "stabilizer witness and fidelity bound"),
        ("grover", "four-entry search on the box cluster"),
        ("gate", "two-qubit gate branch fidelities"),
        ("visibility", "interference fringe visibilities"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="YAML config file")
        cmd.add_argument("--out", help="output path prefix")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        cmd.add_argument(
            "--format",
            choices=("json", "csv", "both"),
            help="outputs to write (default: both with --out, json to stdout otherwise)",
        )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.experiment is not None and cfg.experiment != args.command:
            raise ConfigError(
                f"config is for experiment {cfg.experiment!r}, "
                f"but the {args.command!r} command was invoked"
            )
        if cfg.theta is not None and args.command != "witness":
            raise ConfigError(
                "config field 'source.theta' only applies to the witness command; "
                f"{args.command!r} would ignore it"
            )
        if args.out == "":
            raise ConfigError("--out must name a path prefix, got an empty string")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            cfg.seed = args.seed
        fmt = args.format or ("both" if args.out else "json")
        if args.out is None and fmt != "json":
            raise ConfigError("--format csv/both requires --out")
        try:
            result = _HANDLERS[args.command](cfg)
        except NoCountsError as exc:
            raise ConfigError(
                f"{exc} (config fields 'rate' and 'duration' expect "
                f"{cfg.rate * cfg.duration:.3g} coincidences per setting)"
            ) from exc
        return _emit(args.out, fmt, result)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
