"""Command line front end.

Four subcommands mirror the analysis pipelines: ``witness``,
``grover``, ``gate``, and ``visibility``.  Each accepts a YAML config
file (JSON works too, it is a YAML subset), an output prefix, an
optional seed override, and an output format.  Runs are fully
deterministic: the same config and seed produce byte-identical output
files.

Without ``--out`` the JSON document is the only thing on stdout and the
summary line goes to stderr, so stdout always parses as one document.

Each config field is one row of ``_FIELDS``: its path, its default, the
check its value must pass, and the subcommands that read it.  A checked
config maps each path to its value, e.g. ``cfg["gate.alpha"]``; the
noise check also builds (or fits) the noise model, so a bad noise
parameter or fit target is named by its path like any other field.  A
field the invoked subcommand does not read is rejected rather than
ignored; all four read ``seed``, ``duration``, ``rate`` and ``noise``,
which ``main`` adds to every output document, and the ``experiment``
guard.

Exit codes: 0 on success, 2 for configuration or usage problems (a
config file larger than 8192 bytes or not valid UTF-8 among them), 1 for
internal errors.

Configs are parsed with libyaml when PyYAML was built with it, and with
PyYAML's pure-Python loader otherwise; both give the same mappings.  The
argparse parser is built on the first ``main`` call and reused by every
later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import fields
from typing import Callable, Dict, NamedTuple, Optional, Tuple

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
    WITNESS_OBSERVABLES,
    apply_noise,
    fit_noise,
    source_state,
    visibility_scans,
)


class ConfigError(Exception):
    """Invalid configuration; reported with exit code 2."""


# numpy's Poisson sampler refuses means beyond the int64 range (~9.2e18)
_MAX_EXPECTED_COUNTS = 1e18

# fringe phases per scan: the whole phase grid is allocated at once
_MAX_VISIBILITY_SAMPLES = 65536

# bytes read from a config file: each nesting level takes at least one byte,
# and libyaml's composer recurses in C once per level, crashing the process
# (not raising) somewhere past 20,000 levels
_MAX_CONFIG_BYTES = 8192

_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# a number in exponent form that YAML 1.1 reads as text: no decimal point
# in the mantissa, or no sign on the exponent
_TEXT_EXPONENT = re.compile(r"([-+]?[0-9]+)(\.[0-9]*)?[eE]([-+]?)([0-9]+)")

_NOISE_KEYS = tuple(field.name for field in fields(NoiseModel))


def _as_mapping(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config field {name!r} must be a mapping")
    return value


def _check_keys(mapping: dict, allowed, prefix: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown config field {prefix + str(key)!r}")


def _number_hint(value) -> str:
    match = _TEXT_EXPONENT.fullmatch(value.strip()) if isinstance(value, str) else None
    if match is None:
        return ""
    mantissa, fraction, sign, digits = match.groups()
    written = f"{mantissa}{fraction or '.0'}e{sign or '+'}{digits}"
    return f" (YAML 1.1 reads {value!r} as text; write {written})"


# field checks: each takes a config value and the field's path, and returns
# the value to store or raises a ConfigError that names the path


def _number(value, name: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {name!r} must be a number{_number_hint(value)}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"config field {name!r} must be finite")
    if positive and value <= 0:
        raise ConfigError(f"config field {name!r} must be positive")
    return value


def _integer(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field {name!r} must be an integer")
    if value < minimum:
        raise ConfigError(f"config field {name!r} must be >= {minimum}")
    return int(value)


def _samples(value, name: str) -> int:
    samples = _integer(value, name, minimum=4)
    if samples % 2:
        raise ConfigError(f"config field {name!r} must be even")
    if samples > _MAX_VISIBILITY_SAMPLES:
        raise ConfigError(f"config field {name!r} must be <= {_MAX_VISIBILITY_SAMPLES}")
    return samples


def _boolean(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config field {name!r} must be a boolean")
    return value


def _choice(*options: str, hint: str = ""):
    shown = ", ".join(map(repr, options))

    def check(value, name: str) -> str:
        if not isinstance(value, str) or value not in options:
            raise ConfigError(f"config field {name!r} must be one of {shown}{hint}")
        return value

    return check


def _noise(spec, name: str) -> Tuple[NoiseModel, Dict[str, object]]:
    """The noise model and the noise block of the output documents."""
    if spec == "ideal":
        return NoiseModel.ideal(), {"kind": "ideal"}
    if spec == "fit":
        targets = [REFERENCE_WITNESS_TERMS[w][0] for w in WITNESS_OBSERVABLES]
    elif not isinstance(spec, dict):
        raise ConfigError(
            f"config field {name!r} must be 'ideal', 'fit', a mapping of noise parameters "
            f"({', '.join(_NOISE_KEYS)}) or a mapping {{fit: {{targets: [six numbers]}}}}"
        )
    elif "fit" in spec:
        _check_keys(spec, {"fit"}, f"{name}.")
        fit = _as_mapping(spec["fit"], f"{name}.fit")
        _check_keys(fit, {"targets"}, f"{name}.fit.")
        targets = fit.get("targets")
        if (
            not isinstance(targets, (list, tuple))
            or len(targets) != 6
            or any(isinstance(t, bool) or not isinstance(t, (int, float)) for t in targets)
        ):
            hints = "".join(map(_number_hint, targets)) if isinstance(targets, list) else ""
            raise ConfigError(
                f"config field '{name}.fit.targets' must list six numbers in the "
                "order " + ", ".join(WITNESS_OBSERVABLES) + hints
            )
        targets = [float(t) for t in targets]
    else:
        _check_keys(spec, _NOISE_KEYS, f"{name}.")
        # a parameter left out keeps the NoiseModel default
        params = {key: _number(value, f"{name}.{key}") for key, value in spec.items()}
        for key, value in params.items():
            try:
                NoiseModel(**{key: value})  # its range check, one parameter at a time
            except ValueError as exc:
                raise ConfigError(f"config field '{name}.{key}': {exc}") from exc
        model = NoiseModel(**params)
        return model, {"kind": "parameters", **vars(model)}
    try:
        model, residual = fit_noise(targets)
    except ValueError as exc:
        raise ConfigError(f"config field '{name}.fit.targets': {exc}") from exc
    return model, {
        "kind": "fit", "fit_targets": targets, "fit_residual": residual, **vars(model)
    }


def from_mapping(data: Optional[dict], command: str) -> Dict[str, object]:
    """Check a parsed config for the ``command`` subcommand.

    Every key must be a ``_FIELDS`` path that ``command`` reads, and
    ``experiment``, if set, must be ``command``.  Returns every field's
    checked value, or checked default, keyed by its path.
    """
    data = _as_mapping({} if data is None else data, "<top level>")
    experiment = data.get("experiment", command)
    if experiment != command and experiment in _EVERY:
        raise ConfigError(
            f"config is for experiment {experiment!r}, "
            f"but the {command!r} command was invoked"
        )
    cfg: Dict[str, object] = {"experiment": command}
    for top, entry in data.items():
        if top in _SECTIONS:
            items = [(f"{top}.{key}", v) for key, v in _as_mapping(entry, top).items()]
        else:
            items = [(top, entry)]
        for path, value in items:
            field = _FIELD_AT.get(path)
            if field is None:
                raise ConfigError(f"unknown config field {path!r}")
            if command not in field.commands:
                raise ConfigError(
                    f"config field {path!r} only applies to the "
                    f"{'/'.join(field.commands)} command; {command!r} would ignore it"
                )
            cfg[path] = field.check(value, path)
    for field in _FIELDS:
        if field.path not in cfg:
            cfg[field.path] = field.check(field.default, field.path)
    expected = cfg["rate"] * cfg["duration"]
    if expected > _MAX_EXPECTED_COUNTS:
        raise ConfigError(
            f"config fields 'rate' and 'duration' ask for {expected:.3g} "
            f"coincidences, more than the {_MAX_EXPECTED_COUNTS:.0e} that can be drawn"
        )
    return cfg


def load_config(path: Optional[str], command: str) -> Dict[str, object]:
    """Read and check the config file at ``path`` for ``command``."""
    if path is None:
        return from_mapping(None, command)
    try:
        with open(path, "rb") as handle:
            raw = handle.read(_MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if len(raw) > _MAX_CONFIG_BYTES:
        raise ConfigError(
            f"cannot parse config file {path}: larger than {_MAX_CONFIG_BYTES} bytes"
        )
    try:
        data = yaml.load(raw.decode("utf-8"), Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError, IndexError, AttributeError, RecursionError) as exc:
        # besides bytes that are not UTF-8, PyYAML's safe constructor raises the
        # three builtin errors on some scalars ('2001-13-01', '!!int', '!!timestamp
        # x'), and its pure-Python composer recurses once per nesting level
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    return from_mapping(data, command)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    return "%.12g" % value if isinstance(value, float) else str(value)


# what a subcommand hands to _emit: document, CSV name, header, rows, summary
_Result = Tuple[dict, str, Tuple[str, ...], list, str]


def _emit(prefix: Optional[str], fmt: str, result: _Result) -> int:
    """Write the requested outputs and report them; return the exit code.

    Without a prefix (``fmt`` is then json) the JSON document goes to
    stdout and the summary to stderr, so stdout holds nothing but the
    document, in the same text as the JSON file.
    """
    document, csv_name, header, rows, summary = result
    outputs = []
    if fmt in ("json", "both"):
        outputs.append((".json", json.dumps(document, indent=2, sort_keys=True) + "\n"))
    if fmt in ("csv", "both"):
        lines = [header] + [[_fmt(cell) for cell in row] for row in rows]
        csv_text = "".join(",".join(line) + "\n" for line in lines)
        outputs.append((f"_{csv_name}.csv", csv_text))
    if prefix is None:
        sys.stdout.write(outputs[0][1])
        print(summary, file=sys.stderr)
        return 0
    for suffix, text in outputs:
        path = prefix + suffix
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"--out: cannot write {path!r}: {exc.strerror}") from exc
    print(summary)
    for suffix, _ in outputs:
        print(f"wrote {prefix}{suffix}")
    return 0


def _report_fields(report) -> dict:
    """The fields of an analysis report that are set."""
    return {key: value for key, value in vars(report).items() if value is not None}


# ---------------------------------------------------------------------------
# subcommands: each returns its own document fields, and main adds the rest
# ---------------------------------------------------------------------------


def cmd_witness(cfg: dict, model: NoiseModel) -> _Result:
    theta = cfg["source.theta"]
    state = source_state(theta)
    prepared = state if model.is_ideal() else apply_noise(state, model)
    exact = witness_value(prepared)
    records = simulate_witness_records(prepared, cfg["rate"], cfg["duration"], cfg["seed"])
    counted = witness_from_counts(records)
    document = {
        "theta": theta,
        "exact": _report_fields(exact),
        "counted": _report_fields(counted),
    }
    rows = [
        (word, exact.terms[word], counted.terms[word], counted.term_stderrs[word])
        for word in WITNESS_OBSERVABLES
    ]
    summary = "witness %.6f (exact %.6f), fidelity bound %.6f" % (
        counted.witness, exact.witness, counted.fidelity_bound
    )
    return document, "terms", ("term", "exact", "estimate", "stderr"), rows, summary


def cmd_grover(cfg: dict, model: NoiseModel) -> _Result:
    report = grover_report(
        noise=model,
        feedforward=cfg["grover.feedforward"],
        marked=cfg["grover.marked"],
        rate=cfg["rate"],
        duration=cfg["duration"],
        seed=cfg["seed"],
    )
    rows = sorted(report.distribution.items())
    summary = "search success %.6f (estimated %.6f +- %.6f from %d counts)" % (
        report.success_probability,
        report.estimated_success,
        report.estimate_stderr,
        report.trials,
    )
    return _report_fields(report), "distribution", ("outcome", "probability"), rows, summary


def cmd_gate(cfg: dict, model: NoiseModel) -> _Result:
    kind, alpha, beta = cfg["gate.kind"], cfg["gate.alpha"], cfg["gate.beta"]
    report = gate_fidelity_report(kind, alpha, beta, noise=model)
    mean = sum(report.values()) / len(report)
    document = {
        "kind": kind,
        "alpha": alpha,
        "beta": beta,
        "fidelities": {f"{s2}{s3}": value for (s2, s3), value in report.items()},
        "mean_fidelity": mean,
    }
    rows = [(s2, s3, report[(s2, s3)]) for s2 in (0, 1) for s3 in (0, 1)]
    summary = "%s gate alpha=%.4f beta=%.4f mean branch fidelity %.6f" % (
        kind, alpha, beta, mean
    )
    return document, "fidelities", ("s2", "s3", "fidelity"), rows, summary


def cmd_visibility(cfg: dict, model: NoiseModel) -> _Result:
    pair, samples = cfg["visibility.detector_pair"], cfg["visibility.samples"]
    scans = visibility_scans(model, DETECTOR_PAIRS if pair == "all" else (pair,), samples)
    document = {
        "samples": samples,
        "visibilities": {scan.detector_pair: scan.visibility for scan in scans},
        "fringes": {
            scan.detector_pair: {
                "thetas": list(scan.thetas),
                "probabilities": list(scan.probabilities),
            }
            for scan in scans
        },
    }
    rows = [
        (scan.detector_pair, theta, probability)
        for scan in scans
        for theta, probability in zip(scan.thetas, scan.probabilities)
    ]
    summary = "\n".join(
        "visibility %s %.6f" % (scan.detector_pair, scan.visibility) for scan in scans
    )
    return document, "fringes", ("detector_pair", "theta", "probability"), rows, summary


# subcommand -> (handler, help text), in the order --help lists them
_COMMANDS = {
    "witness": (cmd_witness, "stabilizer witness and fidelity bound"),
    "grover": (cmd_grover, "four-entry search on the box cluster"),
    "gate": (cmd_gate, "two-qubit gate branch fidelities"),
    "visibility": (cmd_visibility, "interference fringe visibilities"),
}


class _Field(NamedTuple):
    path: str  # dotted config path, and the field's key in a checked config
    default: object  # taken, and checked, when a config leaves the field out
    check: Callable[[object, str], object]  # (value, path) -> checked value
    commands: Tuple[str, ...]  # the subcommands that read it


_EVERY = tuple(_COMMANDS)

# every config field; a subcommand rejects a field it does not read, and
# all of them read the counting and noise fields their documents report.
# The experiment guard's value is always the invoked command.
_FIELDS = (
    _Field("experiment", None, _choice(*_COMMANDS), _EVERY),
    _Field("source.theta", 0.0, _number, ("witness",)),
    _Field("noise", "ideal", _noise, _EVERY),
    _Field("seed", 0, functools.partial(_integer, minimum=0), _EVERY),
    _Field("duration", 1.0, functools.partial(_number, positive=True), _EVERY),
    _Field("rate", COINCIDENCE_RATE_HZ, functools.partial(_number, positive=True), _EVERY),
    _Field(
        "grover.marked",
        "00",
        _choice(*_MARKS, hint=" (quote it, YAML reads bare 00 as a number)"),
        ("grover",),
    ),
    _Field("grover.feedforward", True, _boolean, ("grover",)),
    _Field("gate.kind", "horseshoe", _choice("horseshoe", "box"), ("gate",)),
    _Field("gate.alpha", 0.0, _number, ("gate",)),
    _Field("gate.beta", 0.0, _number, ("gate",)),
    _Field(
        "visibility.detector_pair", "all", _choice("all", *DETECTOR_PAIRS), ("visibility",)
    ),
    _Field("visibility.samples", 24, _samples, ("visibility",)),
)

_FIELD_AT = {field.path: field for field in _FIELDS}
_SECTIONS = {field.path.partition(".")[0] for field in _FIELDS if "." in field.path}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onewaysim",
        description="simulate the two-photon four-qubit cluster experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
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
        cfg = load_config(args.config, args.command)
        if args.out == "":
            raise ConfigError("--out must name a path prefix, got an empty string")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            cfg["seed"] = args.seed
        fmt = args.format or ("both" if args.out else "json")
        if args.out is None and fmt != "json":
            raise ConfigError("--format csv/both requires --out")
        model, noise = cfg["noise"]
        try:
            result = _COMMANDS[args.command][0](cfg, model)
        except NoCountsError as exc:
            raise ConfigError(
                f"{exc} (config fields 'rate' and 'duration' expect "
                f"{cfg['rate'] * cfg['duration']:.3g} coincidences per setting)"
            ) from exc
        result[0].update(
            command=args.command, seed=cfg["seed"], duration=cfg["duration"],
            rate=cfg["rate"], noise=noise,
        )
        return _emit(args.out, fmt, result)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
