"""Command line front end.

Four subcommands mirror the analysis pipelines: ``witness``,
``grover``, ``gate``, and ``visibility``.  Each accepts a YAML config
file (JSON works too, it is a YAML subset), an output prefix, an
optional seed override, and an output format.  Runs are fully
deterministic: the same config and seed produce byte-identical output
files.

Without ``--out`` the JSON document is the only thing on stdout and the
summary line goes to stderr, so stdout always parses as one document.
It is ``json.dumps(indent=2, sort_keys=True)``'s text, written by ``_json``:
before Python 3.13 ``indent`` sends ``json.dumps`` to its pure-Python encoder.

Each config field is one row of ``_FIELDS``: its path, its default, the
check its value must pass, and the subcommands that read it.  The check
is the library's own check of the same argument (``qcore._check_finite``
for ``gate.alpha``, ``photonics._check_samples`` for
``visibility.samples``, ...), run once with the name ``config field
'<path>'``; ``_check`` turns its ValueError into a ConfigError.  Only
the YAML shapes, unknown and ignored fields, the ``experiment`` guard,
the ``"all"`` detector pair and the YAML-text hints are the CLI's own.
A checked config maps each path to its value, e.g. ``cfg["gate.alpha"]``,
a float field's value always a float; the noise check also builds (or
fits) the noise model, so a bad noise parameter or fit target is named
by its path like any other field.  A field the invoked subcommand does
not read is rejected rather than ignored; all four read ``seed``,
``duration``, ``rate`` and ``noise``, which ``main`` adds to every
output document, and the ``experiment`` guard.

Exit codes: 0 on success, 2 for configuration or usage problems (a
config file larger than 8192 bytes or not valid UTF-8 among them) and
for an output that cannot be written (an ``--out`` file, or stdout on a
full disk or a closed pipe), 1 for internal errors.

Configs are parsed with libyaml when PyYAML was built with it, and with
PyYAML's pure-Python loader otherwise; both give the same mappings.  The
argparse parser is built on the first ``main`` call and reused by every
later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import yaml

from .analysis import NoCountsError, _check_rate, _check_seed, _counted_report, _draw_tables
from .analysis import _exact_report, _setting_tables, gate_fidelity_report, grover_report
from .mbqc import _GATES, _MARKS
from .photonics import (
    COINCIDENCE_RATE_HZ,
    DETECTOR_PAIRS,
    NoiseModel,
    REFERENCE_WITNESS_TERMS,
    WITNESS_OBSERVABLES,
    _check_samples,
    _noisy,
    _source_amplitudes,
    fit_noise,
    visibility_scans,
)
from .qcore import _check_finite, _check_member, _check_unit, _shown


class ConfigError(Exception):
    """Invalid configuration; reported with exit code 2."""


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


def _key(key) -> str:
    """A config key in a path, any but a str as ``_shown`` shows it (a huge int has no str)."""
    return key if isinstance(key, str) else _shown(key)


def _check_keys(mapping: dict, allowed, prefix: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown config field {prefix + _key(key)!r}")


def _number_hint(value) -> str:
    match = _TEXT_EXPONENT.fullmatch(value.strip()) if isinstance(value, str) else None
    if match is None:
        return ""
    mantissa, fraction, sign, digits = match.groups()
    written = f"{mantissa}{fraction or '.0'}e{sign or '+'}{digits}"
    return f" (YAML 1.1 reads {value!r} as text; write {written})"


def _check(check, value, name: str, *args, hint: str = ""):
    """``check(value, name, *args)``, one of the library's argument checks,
    whose ValueError is raised as a ConfigError ending in the YAML hints."""
    try:
        return check(value, name, *args)
    except ValueError as exc:
        raise ConfigError(f"{exc}{_number_hint(value)}{hint}") from exc


def _field(check, *args, hint: str = ""):
    """A ``_FIELDS`` check: the library's ``check`` with the name
    ``config field '<path>'``."""
    return lambda value, path: _check(check, value, f"config field {path!r}", *args, hint=hint)


def _noise(spec, name: str) -> Tuple[NoiseModel, Dict[str, object]]:
    """The noise model and the noise block of the output documents."""
    if spec == "ideal":
        return NoiseModel(), {"kind": "ideal"}
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
        if not isinstance(targets, (list, tuple)) or len(targets) != 6:
            raise ConfigError(
                f"config field '{name}.fit.targets' must list six numbers in the "
                "order " + ", ".join(WITNESS_OBSERVABLES)
            )
        # fit_noise's check of each target, named by its config path
        targets = [
            _check(_check_unit, t, f"config field '{name}.fit.targets[{i}]'", -1.0)
            for i, t in enumerate(targets)
        ]
    else:
        _check_keys(spec, _NOISE_KEYS, f"{name}.")
        # NoiseModel's check of each parameter, in file order; one left out
        # keeps its default
        params = {
            key: _check(_check_unit, value, f"config field '{name}.{key}'")
            for key, value in spec.items()
        }
        model = NoiseModel(**params)
        return model, {"kind": "parameters", **vars(model)}
    model, residual = fit_noise(targets)
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
    cfg: Dict[str, object] = {**_DEFAULTS, "experiment": command}
    for top, entry in data.items():
        if top in _SECTIONS:
            items = [(f"{top}.{_key(key)}", v) for key, v in _as_mapping(entry, top).items()]
        else:
            items = [(top, entry)]
        for path, value in items:
            field = _FIELD_AT.get(path)
            if field is None:
                raise ConfigError(f"unknown config field {_shown(path)}")
            if command not in field.commands:
                raise ConfigError(
                    f"config field {path!r} only applies to the "
                    f"{'/'.join(field.commands)} command; {command!r} would ignore it"
                )
            cfg[path] = field.check(value, path)
    try:
        _check_rate(cfg["rate"], cfg["duration"])
    except ValueError as exc:
        raise ConfigError(f"config fields 'rate' and 'duration': {exc}") from exc
    return cfg


def load_config(path: Optional[str], command: str) -> Dict[str, object]:
    """Read and check the config file at ``path`` for ``command``."""
    if path is None:
        return from_mapping(None, command)
    try:
        fd = os.open(path, os.O_RDONLY)
        # a pipe may hand the text over in pieces: read to EOF, or to one byte
        # past the cap, where the next read asks for 0 bytes and gets b""
        try:
            raw = b""
            while chunk := os.read(fd, _MAX_CONFIG_BYTES + 1 - len(raw)):
                raw += chunk
        finally:
            os.close(fd)
    except OSError as exc:
        # a directory opens, and os.read's error then names no file
        exc.filename = exc.filename or path
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # os.open refuses a path holding a NUL byte
        raise ConfigError(f"--config: cannot read {path!r}: {exc}") from exc
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


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``; a non-str key raises TypeError."""
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    keys = sorted(value) if isinstance(value, dict) else None
    items, ends = (value, "[]") if keys is None else ([value[k] for k in keys], "{}")
    inner = indent + "  "
    # finite floats inline: a call per element would cost what this saves
    texts = [repr(v) if type(v) is float and v - v == 0 else _json(v, inner) for v in items]
    if keys is not None:
        texts = [encode_basestring_ascii(k) + ": " + t for k, t in zip(keys, texts)]
    return ends[0] + inner + ("," + inner).join(texts) + indent + ends[1] if texts else ends


# a subcommand's result: document, CSV name, header, line format, rows, summary
_Result = Tuple[dict, str, str, str, list, str]


def _emit(prefix: Optional[str], fmt: str, result: _Result) -> int:
    """Write the requested outputs and report them; return the exit code.

    Without a prefix (``fmt`` is then json) the JSON document goes to
    stdout and the summary to stderr, so stdout holds nothing but the
    document, in the same text as the JSON file.  An output that cannot
    be written, stdout included, raises a ConfigError.
    """
    document, csv_name, header, line, rows, summary = result
    outputs = []
    if fmt in ("json", "both"):
        outputs.append((".json", _json(document) + "\n"))
    if fmt in ("csv", "both"):
        lines = [header] + [line % row for row in rows]
        outputs.append((f"_{csv_name}.csv", "\n".join(lines) + "\n"))
    text = outputs[0][1]
    if prefix is not None:
        for suffix, data in outputs:
            path = prefix + suffix
            try:
                # open("w")'s flags and mode, without its buffer and codec layers
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
                try:
                    view = memoryview(data.encode())
                    while view:  # os.write may write part of it
                        view = view[os.write(fd, view):]
                finally:
                    os.close(fd)
            except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
                reason = exc.strerror if isinstance(exc, OSError) else exc
                raise ConfigError(f"--out: cannot write {path!r}: {reason}") from exc
        text = summary + "\n" + "".join(f"wrote {prefix}{s}\n" for s, _ in outputs)
    try:  # flushed here, so that a full disk or closed pipe is reported, not met at exit
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is sys.__stdout__:  # drop what the failed flush kept, or exit fails on it
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write to stdout: {exc.strerror or exc}") from exc
    if prefix is None:
        print(summary, file=sys.stderr)
    return 0


def _report_fields(report) -> dict:
    """The fields of an analysis report that are set."""
    return {key: value for key, value in vars(report).items() if value is not None}


# ---------------------------------------------------------------------------
# subcommands: each returns its own document fields, and main adds the rest
# ---------------------------------------------------------------------------


def cmd_witness(cfg: dict, model: NoiseModel) -> _Result:
    theta = cfg["source.theta"]
    prepared = _noisy(_source_amplitudes(theta), model)
    tables = _setting_tables(prepared)  # for both reports
    exact = _exact_report(tables)
    counted = _counted_report(_draw_tables(tables, cfg["rate"], cfg["duration"], cfg["seed"]))
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
    return document, "terms", "term,exact,estimate,stderr", "%s,%.12g,%.12g,%.12g", rows, summary


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
    return _report_fields(report), "distribution", "outcome,probability", "%s,%.12g", rows, summary


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
    return document, "fidelities", "s2,s3,fidelity", "%s,%s,%.12g", rows, summary


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
    return document, "fringes", "detector_pair,theta,probability", "%s,%.12g,%.12g", rows, summary


# subcommand -> (handler, help text), in the order --help lists them
_COMMANDS = {
    "witness": (cmd_witness, "stabilizer witness and fidelity bound"),
    "grover": (cmd_grover, "four-entry search on the box cluster"),
    "gate": (cmd_gate, "two-qubit gate branch fidelities"),
    "visibility": (cmd_visibility, "interference fringe visibilities"),
}


class _Field(NamedTuple):
    path: str  # dotted config path, and the field's key in a checked config
    default: object  # checked once, and taken when a config leaves the field out
    check: Callable[[object, str], object]  # (value, path) -> checked value
    commands: Tuple[str, ...]  # the subcommands that read it


_EVERY = tuple(_COMMANDS)

# rate and duration, each checked as _check_rate checks it
_POSITIVE = _field(functools.partial(_check_finite, positive=True))

# every config field; a subcommand rejects a field it does not read, and
# all of them read the counting and noise fields their documents report.
# The experiment guard's value is always the invoked command.
_FIELDS = (
    _Field("experiment", None, _field(_check_member, _EVERY), _EVERY),
    _Field("source.theta", 0.0, _field(_check_finite), ("witness",)),
    _Field("noise", "ideal", _noise, _EVERY),
    _Field("seed", 0, _field(_check_seed), _EVERY),
    _Field("duration", 1.0, _POSITIVE, _EVERY),
    _Field("rate", COINCIDENCE_RATE_HZ, _POSITIVE, _EVERY),
    _Field(
        "grover.marked",
        "00",
        _field(_check_member, _MARKS, hint=" (quote it, YAML reads bare 00 as a number)"),
        ("grover",),
    ),
    _Field("grover.feedforward", True, _field(_check_member, (True, False)), ("grover",)),
    # the layout of the gate table's first row, the horseshoe, by default
    _Field("gate.kind", tuple(_GATES)[0], _field(_check_member, tuple(_GATES)), ("gate",)),
    _Field("gate.alpha", 0.0, _field(_check_finite), ("gate",)),
    _Field("gate.beta", 0.0, _field(_check_finite), ("gate",)),
    _Field(
        "visibility.detector_pair",
        "all",
        _field(_check_member, ("all",) + DETECTOR_PAIRS),
        ("visibility",),
    ),
    _Field("visibility.samples", 24, _field(_check_samples), ("visibility",)),
)

_FIELD_AT = {field.path: field for field in _FIELDS}
# each default, checked once: a config that leaves its field out gets it
_DEFAULTS = {f.path: f.check(f.default, f.path) for f in _FIELDS if f.default is not None}
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
            cfg["seed"] = _check(_check_seed, args.seed, "--seed")
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
