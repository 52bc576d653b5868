"""Correctness checks for one CLI invocation's output files.

Every invocation is checked three ways:

* against closed forms of the noise model, valid for any config.  With
  white-noise weight p and path dephasings a, b (q = (1-a)(1-b)):
  witness terms XXIZ, XXZI, IIZZ, ZZII = 1-p and IZXX, ZIXX =
  (1-p) q cos(theta); search success with feedforward 1 - 3p/4 (p/4 for
  each other entry), 1/4 everywhere without it; horseshoe branch fidelity
  (1-p)(1+q)/2 + p/4, box (1-p)(1 - (1-q) sin^2(alpha)/2) + p/4; fringe
  (1-p)/8 + p/16 +- (1-p) q cos(theta)/8.  Exact values must match to
  1e-5, counted estimates must lie within 6 binomial standard errors;
* against invariants (W = (4 - sum of terms)/2, bound = 1/2 - W/2,
  distributions summing to 1, fidelities and visibilities in [0, 1], the
  CSV table agreeing with the JSON document, config values echoed);
* against a stored reference document when one exists (the shipped
  configs, and the generated configs of the default seed): exact
  quantities to 1e-5, each counted estimate within one of its own reported
  standard errors, setting totals and trial counts equal.
"""

from __future__ import annotations

import csv
import json
import math
from typing import List, Optional, Tuple

EXACT_TOL = 1e-5
INVARIANT_TOL = 1e-9
STDERR_REL_TOL = 0.1
COUNT_SIGMAS = 6.0

WORDS = ("XXIZ", "XXZI", "IIZZ", "IZXX", "ZIXX", "ZZII")
WORD_SETTING = {
    "XXIZ": "XXZZ", "XXZI": "XXZZ", "IIZZ": "XXZZ",
    "IZXX": "ZZXX", "ZIXX": "ZZXX", "ZZII": "ZZXX",
}
MARKS = ("00", "01", "10", "11")
DETECTOR_PAIRS = ("D1-D2", "D1-D4", "D3-D2", "D3-D4")
FRINGE_SIGN = {"D1-D2": 1.0, "D1-D4": -1.0, "D3-D2": -1.0, "D3-D4": 1.0}
CSV_NAMES = {
    "witness": "terms",
    "grover": "distribution",
    "gate": "fidelities",
    "visibility": "fringes",
}
DEFAULT_RATE = 12000.0


class CheckError(AssertionError):
    """An output that does not match what the config implies."""


def read_outputs(prefix: str, command: str) -> Tuple[dict, List[List[str]]]:
    with open(f"{prefix}.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    with open(f"{prefix}_{CSV_NAMES[command]}.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return doc, rows


def _fail(what: str, got, want) -> None:
    raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def _close(what: str, got, want, tol: float) -> None:
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        _fail(what, got, want)
    if not abs(got - want) <= tol:
        _fail(what, got, want)


def _equal(what: str, got, want) -> None:
    if type(got) is not type(want) or got != want:
        _fail(what, got, want)


def _in_unit(what: str, value) -> None:
    if not -INVARIANT_TOL <= value <= 1.0 + INVARIANT_TOL:
        _fail(what, value, "a value in [0, 1]")


# ---------------------------------------------------------------------------
# config echo and noise parameters
# ---------------------------------------------------------------------------


def _noise_params(config: dict, doc: dict) -> Tuple[float, float, float]:
    """(a, b, p) of the run, after checking the noise block echoes the config."""
    info = doc["noise"]
    spec = config.get("noise", "ideal")
    if spec == "ideal":
        _equal("noise", info, {"kind": "ideal"})
        return 0.0, 0.0, 0.0
    keys = ("path_dephasing_a", "path_dephasing_b", "white_noise")
    if spec == "fit":
        _equal("noise.kind", info["kind"], "fit")
        if not info["fit_residual"] >= 0.0:
            _fail("noise.fit_residual", info["fit_residual"], ">= 0")
        for key in keys:
            _in_unit(f"noise.{key}", info[key])
    else:
        _equal("noise.kind", info["kind"], "parameters")
        for key in keys:
            _close(f"noise.{key}", info[key], float(spec.get(key, 0.0)), 0.0)
    return tuple(float(info[key]) for key in keys)


def _check_common(config: dict, doc: dict, command: str) -> None:
    _equal("command", doc["command"], command)
    _equal("seed", doc["seed"], int(config.get("seed", 0)))
    _close("duration", doc["duration"], float(config.get("duration", 1.0)), 0.0)
    _close("rate", doc["rate"], float(config.get("rate", DEFAULT_RATE)), 0.0)


# ---------------------------------------------------------------------------
# per-subcommand checks against closed forms and invariants
# ---------------------------------------------------------------------------


def _witness_report(what: str, report: dict) -> None:
    terms = report["terms"]
    if sorted(terms) != sorted(WORDS):
        _fail(f"{what}.terms keys", sorted(terms), sorted(WORDS))
    for word in WORDS:
        if not -1.0 - INVARIANT_TOL <= terms[word] <= 1.0 + INVARIANT_TOL:
            _fail(f"{what}.terms.{word}", terms[word], "a value in [-1, 1]")
    witness = (4.0 - sum(terms[w] for w in WORDS)) / 2.0
    _close(f"{what}.witness", report["witness"], witness, INVARIANT_TOL)
    _close(f"{what}.fidelity_bound", report["fidelity_bound"], 0.5 - witness / 2.0, INVARIANT_TOL)


def _check_witness(config: dict, doc: dict, rows) -> None:
    a, b, p = _noise_params(config, doc)
    theta = float(config.get("source", {}).get("theta", 0.0))
    _close("theta", doc["theta"], theta, 0.0)
    q = (1.0 - a) * (1.0 - b)
    closed = {w: 1.0 - p for w in WORDS}
    closed["IZXX"] = closed["ZIXX"] = (1.0 - p) * q * math.cos(theta)

    exact, counted = doc["exact"], doc["counted"]
    _witness_report("exact", exact)
    _witness_report("counted", counted)
    totals = counted["setting_totals"]
    if sorted(totals) != ["XXZZ", "ZZXX"] or any(
        not isinstance(n, int) or n < 1 for n in totals.values()
    ):
        _fail("counted.setting_totals", totals, "positive counts for XXZZ and ZZXX")
    for word in WORDS:
        _close(f"exact.terms.{word}", exact["terms"][word], closed[word], EXACT_TOL)
        n = totals[WORD_SETTING[word]]
        sigma = math.sqrt(max(1.0 - closed[word] ** 2, 0.0) / n)
        _close(
            f"counted.terms.{word}",
            counted["terms"][word],
            closed[word],
            COUNT_SIGMAS * (sigma + 1.0 / n),
        )
        if not counted["term_stderrs"][word] >= 0.0:
            _fail(f"counted.term_stderrs.{word}", counted["term_stderrs"][word], ">= 0")
    if not counted["witness_stderr"] >= 0.0:
        _fail("counted.witness_stderr", counted["witness_stderr"], ">= 0")
    _close(
        "counted.fidelity_bound_stderr",
        counted["fidelity_bound_stderr"],
        counted["witness_stderr"] / 2.0,
        INVARIANT_TOL,
    )

    table = [(w, exact["terms"][w], counted["terms"][w], counted["term_stderrs"][w]) for w in WORDS]
    _check_csv(rows, ["term", "exact", "estimate", "stderr"], table)


def _check_grover(config: dict, doc: dict, rows) -> None:
    _, _, p = _noise_params(config, doc)
    section = config.get("grover", {})
    marked = section.get("marked", "00")
    feedforward = section.get("feedforward", True)
    _equal("marked", doc["marked"], marked)
    _equal("feedforward", doc["feedforward"], feedforward)
    dist = doc["distribution"]
    if sorted(dist) != list(MARKS):
        _fail("distribution keys", sorted(dist), list(MARKS))
    for mark in MARKS:
        if feedforward:
            closed = 1.0 - 0.75 * p if mark == marked else p / 4.0
        else:
            closed = 0.25
        _close(f"distribution.{mark}", dist[mark], closed, EXACT_TOL)
        _in_unit(f"distribution.{mark}", dist[mark])
    _close("distribution sum", sum(dist.values()), 1.0, INVARIANT_TOL)
    success = doc["success_probability"]
    _close("success_probability", success, dist[marked], 0.0)
    trials = doc["trials"]
    if not isinstance(trials, int) or trials < 1:
        _fail("trials", trials, "a positive count")
    estimate = doc["estimated_success"]
    _in_unit("estimated_success", estimate)
    sigma = math.sqrt(max(success * (1.0 - success), 0.0) / trials)
    _close("estimated_success", estimate, success, COUNT_SIGMAS * (sigma + 1.0 / trials))
    _close(
        "estimate_stderr",
        doc["estimate_stderr"],
        math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials),
        INVARIANT_TOL,
    )
    _check_csv(rows, ["outcome", "probability"], [(m, dist[m]) for m in MARKS])


def _check_gate(config: dict, doc: dict, rows) -> None:
    a, b, p = _noise_params(config, doc)
    section = config.get("gate", {})
    kind = section.get("kind", "horseshoe")
    alpha = float(section.get("alpha", 0.0))
    _equal("kind", doc["kind"], kind)
    _close("alpha", doc["alpha"], alpha, 0.0)
    _close("beta", doc["beta"], float(section.get("beta", 0.0)), 0.0)
    q = (1.0 - a) * (1.0 - b)
    if kind == "horseshoe":
        closed = (1.0 - p) * (1.0 + q) / 2.0 + p / 4.0
    else:
        closed = (1.0 - p) * (1.0 - (1.0 - q) * math.sin(alpha) ** 2 / 2.0) + p / 4.0
    fids = doc["fidelities"]
    if sorted(fids) != list(MARKS):
        _fail("fidelities keys", sorted(fids), list(MARKS))
    for key in MARKS:
        _close(f"fidelities.{key}", fids[key], closed, EXACT_TOL)
        _in_unit(f"fidelities.{key}", fids[key])
    _close("mean_fidelity", doc["mean_fidelity"], sum(fids.values()) / 4.0, INVARIANT_TOL)
    table = [(k[0], k[1], fids[k]) for k in MARKS]
    _check_csv(rows, ["s2", "s3", "fidelity"], table)


def _check_visibility(config: dict, doc: dict, rows) -> None:
    a, b, p = _noise_params(config, doc)
    section = config.get("visibility", {})
    samples = int(section.get("samples", 24))
    pair = section.get("detector_pair", "all")
    pairs = list(DETECTOR_PAIRS) if pair == "all" else [pair]
    _equal("samples", doc["samples"], samples)
    if sorted(doc["visibilities"]) != pairs or sorted(doc["fringes"]) != pairs:
        _fail("detector pairs", sorted(doc["fringes"]), pairs)
    q = (1.0 - a) * (1.0 - b)
    table = []
    for name in pairs:
        fringe = doc["fringes"][name]
        thetas, probs = fringe["thetas"], fringe["probabilities"]
        if len(thetas) != samples or len(probs) != samples:
            _fail(f"fringes.{name} length", len(probs), samples)
        for k, (theta, prob) in enumerate(zip(thetas, probs)):
            _close(f"fringes.{name}.thetas[{k}]", theta, 2.0 * math.pi * k / samples, 1e-12)
            closed = (1.0 - p) / 8.0 + p / 16.0 + FRINGE_SIGN[name] * (1.0 - p) * q * math.cos(theta) / 8.0
            _close(f"fringes.{name}.probabilities[{k}]", prob, closed, EXACT_TOL)
            _in_unit(f"fringes.{name}.probabilities[{k}]", prob)
            table.append((name, theta, prob))
        top, bottom = max(probs), min(probs)
        visibility = doc["visibilities"][name]
        _close(f"visibilities.{name}", visibility, (top - bottom) / (top + bottom), INVARIANT_TOL)
        _close(f"visibilities.{name}", visibility, 2.0 * (1.0 - p) * q / (2.0 - p), EXACT_TOL)
        _in_unit(f"visibilities.{name}", visibility)
    _check_csv(rows, ["detector_pair", "theta", "probability"], table)


def _check_csv(rows: List[List[str]], header: List[str], table) -> None:
    if not rows or rows[0] != header:
        _fail("csv header", rows[:1], header)
    body = rows[1:]
    if len(body) != len(table):
        _fail("csv row count", len(body), len(table))
    for index, (row, want) in enumerate(zip(body, table)):
        if len(row) != len(want):
            _fail(f"csv row {index}", row, want)
        for cell, value in zip(row, want):
            if isinstance(value, float):
                _close(f"csv row {index}", float(cell), value, 1e-11 * max(1.0, abs(value)))
            elif cell != str(value):
                _fail(f"csv row {index}", cell, value)


_CHECKS = {
    "witness": _check_witness,
    "grover": _check_grover,
    "gate": _check_gate,
    "visibility": _check_visibility,
}


# ---------------------------------------------------------------------------
# stored reference
# ---------------------------------------------------------------------------

# counted estimate -> the standard error it is allowed to move by
_COUNTED = {
    ("counted", "witness"): ("counted", "witness_stderr"),
    ("counted", "fidelity_bound"): ("counted", "fidelity_bound_stderr"),
    ("estimated_success",): ("estimate_stderr",),
}
_STDERRS = {
    ("counted", "witness_stderr"),
    ("counted", "fidelity_bound_stderr"),
    ("estimate_stderr",),
}
_EXACT_COUNTS = {("trials",), ("counted", "setting_totals")}


def _lookup(doc: dict, path: Tuple[str, ...]):
    for key in path:
        doc = doc[key]
    return doc


def _counted_stderr(path: Tuple[str, ...], doc: dict) -> Optional[float]:
    if path[:2] == ("counted", "terms"):
        return doc["counted"]["term_stderrs"][path[2]]
    if path in _COUNTED:
        return _lookup(doc, _COUNTED[path])
    return None


def compare_reference(doc: dict, reference: dict) -> None:
    """Raise CheckError unless ``doc`` matches the stored reference."""

    def walk(got, want, path: Tuple[str, ...]) -> None:
        where = ".".join(path) or "<document>"
        if isinstance(want, dict):
            if not isinstance(got, dict) or sorted(got) != sorted(want):
                _fail(f"{where} keys", sorted(got) if isinstance(got, dict) else got, sorted(want))
            for key in want:
                walk(got[key], want[key], path + (key,))
            return
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                _fail(f"{where} length", got, want)
            for index, (g, w) in enumerate(zip(got, want)):
                walk(g, w, path + (str(index),))
            return
        if path[:2] in _EXACT_COUNTS or not isinstance(want, float):
            _equal(where, got, want)
            return
        stderr = _counted_stderr(path, doc)
        if stderr is not None:
            _close(where, got, want, stderr + 1e-12)
        elif path in _STDERRS or path[:2] == ("counted", "term_stderrs"):
            _close(where, got, want, STDERR_REL_TOL * abs(want) + INVARIANT_TOL)
        else:
            _close(where, got, want, EXACT_TOL)

    walk(doc, reference, ())


def check_invocation(
    command: str,
    config: dict,
    doc: dict,
    rows: List[List[str]],
    reference: Optional[dict] = None,
) -> None:
    """Raise CheckError if the output of one invocation is wrong."""
    try:
        _check_common(config, doc, command)
        _CHECKS[command](config, doc, rows)
        if reference is not None:
            compare_reference(doc, reference)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckError(f"malformed {command} output: {exc!r}") from exc
