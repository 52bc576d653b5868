"""Witness evaluation, counting statistics, and experiment summaries.

The entanglement witness used throughout is

    W = (4*I - (XXIZ + XXZI + IIZZ + IZXX + ZIXX + ZZII)) / 2

whose six words split into two coincidence settings: XXZZ (paths in Z,
polarizations along +/-) yields XXIZ, XXZI, IIZZ and ZZXX (paths on
beam splitters, polarizations in H/V) yields IZXX, ZIXX, ZZII.  A
negative expectation proves genuine four-partite entanglement, and
F >= 1/2 - <W>/2 bounds the fidelity to the linear cluster from below.

Counting statistics follow the experiment: a Poisson distributed total
number of coincidences per setting is split multinomially over the 16
outcomes.  Standard errors propagate through the outcome signs either
by the delta method or by a parametric bootstrap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .cluster import BOX_FRAME, HORSESHOE_FRAME, FrameMap, c4_state
from .mbqc import (
    GateOutputSpec,
    MeasurementPattern,
    _apply_byproducts,
    box_gate,
    box_pattern,
    grover_run,
    horseshoe_gate,
    horseshoe_pattern,
)
from .photonics import (
    COINCIDENCE_RATE_HZ,
    ApparatusSetting,
    NoiseModel,
    WITNESS_OBSERVABLES,
    WITNESS_SETTINGS,
    _b_alpha_basis,
    apply_noise,
    joint_distribution,
)
from .qcore import (
    _FORCED_MIN_WEIGHT,
    ImpossibleOutcomeError,
    PauliString,
    State,
    _density_array,
    _product_basis,
    expectation,
)

_SETTING_TERMS = {
    "XXZZ": ("XXIZ", "XXZI", "IIZZ"),
    "ZZXX": ("IZXX", "ZIXX", "ZZII"),
}


@dataclass(frozen=True)
class WitnessReport:
    """Six stabilizer estimates and the derived witness quantities.

    Standard error fields are None when the values are exact
    expectations rather than count estimates.
    """

    terms: Dict[str, float]
    witness: float
    fidelity_bound: float
    term_stderrs: Optional[Dict[str, float]] = None
    witness_stderr: Optional[float] = None
    fidelity_bound_stderr: Optional[float] = None
    setting_totals: Optional[Dict[str, int]] = None


def _report_from_terms(
    terms: Dict[str, float],
    term_stderrs: Optional[Dict[str, float]] = None,
    witness_stderr: Optional[float] = None,
    setting_totals: Optional[Dict[str, int]] = None,
) -> WitnessReport:
    total = sum(terms[w] for w in WITNESS_OBSERVABLES)
    witness = (4.0 - total) / 2.0
    return WitnessReport(
        terms=dict(terms),
        witness=witness,
        fidelity_bound=0.5 - 0.5 * witness,
        term_stderrs=term_stderrs,
        witness_stderr=witness_stderr,
        fidelity_bound_stderr=None if witness_stderr is None else witness_stderr / 2.0,
        setting_totals=setting_totals,
    )


def witness_value(state: State) -> WitnessReport:
    """Exact witness evaluation on a four-qubit state."""
    terms = {
        word: expectation(state, PauliString(word)) for word in WITNESS_OBSERVABLES
    }
    return _report_from_terms(terms)


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------


class NoCountsError(ValueError):
    """Raised when a setting drew no coincidences to estimate from."""


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts of one run at one apparatus setting."""

    counts: Dict[str, int]
    duration: float
    rate: float
    setting: Optional[Tuple[ApparatusSetting, ApparatusSetting]] = None

    def total(self) -> int:
        return int(sum(self.counts.values()))


def simulate_counts(
    probabilities: Mapping[str, float],
    rate: float,
    duration: float,
    seed,
    setting: Optional[Tuple[ApparatusSetting, ApparatusSetting]] = None,
) -> CountRecord:
    """Draw counts for one setting: Poisson total, multinomial split.

    ``seed`` is anything numpy's default_rng accepts (int or a sequence
    of ints).  Outcome keys are processed in sorted order, so a fixed
    seed fully determines the counts.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    keys = sorted(probabilities)
    if not keys:
        raise ValueError("empty probability table")
    values = np.array([float(probabilities[k]) for k in keys])
    if values.min() < -1e-9:
        raise ValueError("negative probability")
    values = np.clip(values, 0.0, None)
    total_p = values.sum()
    if abs(total_p - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total_p!r}, not 1")
    values = values / total_p
    rng = np.random.default_rng(seed)
    total = int(rng.poisson(rate * duration))
    drawn = rng.multinomial(total, values) if total > 0 else np.zeros(len(keys), int)
    return CountRecord(
        counts={k: int(c) for k, c in zip(keys, drawn)},
        duration=float(duration),
        rate=float(rate),
        setting=setting,
    )


def simulate_witness_records(
    state: State,
    rate: float = COINCIDENCE_RATE_HZ,
    duration: float = 1.0,
    seed: int = 0,
) -> Tuple[CountRecord, CountRecord]:
    """Counts for both witness settings of a four-qubit state."""
    records = []
    for index, name in enumerate(sorted(WITNESS_SETTINGS)):
        settings = WITNESS_SETTINGS[name]
        probabilities = joint_distribution(state, settings)
        records.append(
            simulate_counts(
                probabilities, rate, duration, (int(seed), index), setting=settings
            )
        )
    return tuple(records)


def _classify_setting(
    settings: Optional[Tuple[ApparatusSetting, ApparatusSetting]]
) -> str:
    if settings is None:
        raise ValueError("count record carries no apparatus setting")
    a, b = settings
    if (
        a.kind == b.kind == "path_Z"
        and a.polarization_basis == b.polarization_basis == "PM"
    ):
        return "XXZZ"
    if (
        a.kind == b.kind == "path_B_alpha"
        and abs(a.alpha) < 1e-9
        and abs(b.alpha) < 1e-9
        and a.polarization_basis == b.polarization_basis == "HV"
    ):
        return "ZZXX"
    raise ValueError("setting pair does not match either witness setting")


def _term_sign(word: str, key: str) -> float:
    sign = 1.0
    for letter, bit in zip(word, key):
        if letter != "I" and bit == "1":
            sign = -sign
    return sign


def _merge_counts(records: Iterable[CountRecord]) -> Dict[str, Dict[str, int]]:
    merged: Dict[str, Dict[str, int]] = {}
    for record in records:
        name = _classify_setting(record.setting)
        bucket = merged.setdefault(name, {})
        for key, count in record.counts.items():
            if len(key) != 4 or any(ch not in "01" for ch in key):
                raise ValueError(f"invalid outcome key {key!r}")
            if count < 0:
                raise ValueError("negative count")
            bucket[key] = bucket.get(key, 0) + int(count)
    missing = set(_SETTING_TERMS) - set(merged)
    if missing:
        raise ValueError(f"missing counts for settings: {sorted(missing)}")
    return merged


def _estimate_terms(bucket: Dict[str, int], words) -> Dict[str, float]:
    total = sum(bucket.values())
    if total == 0:
        raise NoCountsError("a witness setting has zero counts")
    out = {}
    for word in words:
        out[word] = (
            sum(count * _term_sign(word, key) for key, count in bucket.items()) / total
        )
    return out


def _delta_stderrs(merged):
    term_err: Dict[str, float] = {}
    witness_var = 0.0
    for name, words in _SETTING_TERMS.items():
        bucket = merged[name]
        total = sum(bucket.values())
        estimates = _estimate_terms(bucket, words)
        for word in words:
            var = (
                sum(
                    count * (_term_sign(word, key) - estimates[word]) ** 2
                    for key, count in bucket.items()
                )
                / total**2
            )
            term_err[word] = math.sqrt(var)
        # the three words of one setting share counts, so their sum is
        # propagated jointly rather than term by term
        sum_value = sum(estimates.values())
        sum_var = (
            sum(
                count
                * (sum(_term_sign(w, key) for w in words) - sum_value) ** 2
                for key, count in bucket.items()
            )
            / total**2
        )
        witness_var += sum_var / 4.0
    return term_err, math.sqrt(witness_var)


def _bootstrap_stderrs(merged, n_boot: int, seed: int):
    rng = np.random.default_rng((int(seed), 0xB007))
    term_samples = {w: [] for w in WITNESS_OBSERVABLES}
    witness_samples = []
    for _ in range(n_boot):
        terms = {}
        for name, words in _SETTING_TERMS.items():
            bucket = merged[name]
            keys = sorted(bucket)
            resampled = {k: int(rng.poisson(bucket[k])) for k in keys}
            if sum(resampled.values()) == 0:
                resampled = dict(bucket)
            terms.update(_estimate_terms(resampled, words))
        for word, value in terms.items():
            term_samples[word].append(value)
        witness_samples.append((4.0 - sum(terms.values())) / 2.0)
    term_err = {
        w: float(np.std(v, ddof=1)) for w, v in term_samples.items()
    }
    return term_err, float(np.std(witness_samples, ddof=1))


def witness_from_counts(
    records: Iterable[CountRecord],
    stderr_method: str = "delta",
    n_boot: int = 200,
    seed: int = 0,
) -> WitnessReport:
    """Estimate the witness from coincidence counts.

    ``records`` must cover both witness settings (duplicates are summed).
    stderr_method 'delta' linearizes around the estimate; 'bootstrap'
    resamples the counts n_boot times instead.
    """
    merged = _merge_counts(records)
    terms: Dict[str, float] = {}
    for name, words in _SETTING_TERMS.items():
        terms.update(_estimate_terms(merged[name], words))
    if stderr_method == "delta":
        term_err, witness_err = _delta_stderrs(merged)
    elif stderr_method == "bootstrap":
        if n_boot < 2:
            raise ValueError("bootstrap needs at least two replicas")
        term_err, witness_err = _bootstrap_stderrs(merged, n_boot, seed)
    else:
        raise ValueError(f"unknown stderr method {stderr_method!r}")
    totals = {name: sum(merged[name].values()) for name in _SETTING_TERMS}
    return _report_from_terms(
        terms,
        term_stderrs=term_err,
        witness_stderr=witness_err,
        setting_totals=totals,
    )


# ---------------------------------------------------------------------------
# gate and search summaries
# ---------------------------------------------------------------------------


def _prepare_state(noise: Optional[NoiseModel]) -> State:
    base = c4_state()
    if noise is None or noise.is_ideal():
        return base
    return apply_noise(base, noise)


def _branch_maps(frame: FrameMap, pattern: MeasurementPattern) -> np.ndarray:
    """K_s for every outcome branch s of a pattern, without its feedforward.

    K_s maps a source-frame (|C4>) state onto the unnormalised residual
    of branch s on the readout qubits: the frame map, then the bra of its
    outcome on every measured qubit.  Stacked as (branch, readout index,
    source index), branches in lexicographic outcome order.
    """
    n = len(frame.sources)
    rows = [frame.local_matrix(q) for q in range(n)]
    for qubit, alpha in pattern.steps:
        rows[qubit] = _b_alpha_basis(alpha) @ rows[qubit]
    u = _product_basis(rows).reshape((2,) * (2 * n))
    steps = [q for q, _ in pattern.steps]
    inputs = [n + frame.sources.index(k) for k in range(n)]
    u = u.transpose(steps + list(pattern.readout) + inputs)
    return u.reshape(2 ** len(steps), 2 ** len(pattern.readout), 2**n)


# gate kind -> (graph frame, pattern, closed-form branch output)
_GATES = {
    "horseshoe": (HORSESHOE_FRAME, horseshoe_pattern, horseshoe_gate),
    "box": (BOX_FRAME, box_pattern, box_gate),
}


def gate_fidelity_report(
    kind: str,
    alpha: float,
    beta: float,
    noise: Optional[NoiseModel] = None,
) -> Dict[Tuple[int, int], float]:
    """Branch fidelities of a measured gate against its closed form.

    For each outcome pair s = (s2, s3) of the uncorrected pattern, the
    unnormalised residual is R_s = K_s rho K_s^dagger (see
    :func:`_branch_maps`), read straight off the source-frame state for
    all four branches at once.  The fidelity is t_s^dagger R_s t_s /
    tr R_s, with t_s the closed-form branch output: the (0, 0) output
    with the pattern's feedforward Paulis of branch s.
    """
    if kind not in _GATES:
        raise ValueError(f"unknown gate kind {kind!r}")
    frame, pattern_fn, target_fn = _GATES[kind]
    pattern = pattern_fn(alpha, beta)
    maps = _branch_maps(frame, pattern)
    branches = list(itertools.product((0, 1), repeat=len(pattern.steps)))
    rho = _density_array(_prepare_state(noise))
    residuals = maps @ rho @ maps.conj().swapaxes(1, 2)
    weights = np.trace(residuals, axis1=1, axis2=2).real
    target = target_fn(GateOutputSpec(alpha, beta))
    targets = np.array(
        [_apply_byproducts(target, pattern, branch).amplitudes for branch in branches]
    )
    overlaps = np.einsum("si,sij,sj->s", targets.conj(), residuals, targets).real
    report = {}
    for branch, weight, value in zip(branches, weights, overlaps):
        if weight < _FORCED_MIN_WEIGHT:
            raise ImpossibleOutcomeError(f"gate branch {branch} has weight {weight:.3e}")
        report[branch] = float(value / weight)
    return report


@dataclass(frozen=True)
class GroverReport:
    """Search outcome distribution plus a counted success estimate."""

    marked: str
    feedforward: bool
    distribution: Dict[str, float]
    success_probability: float
    trials: int
    estimated_success: float
    estimate_stderr: float


def grover_report(
    noise: Optional[NoiseModel] = None,
    feedforward: bool = True,
    marked: str = "00",
    rate: float = COINCIDENCE_RATE_HZ,
    duration: float = 1.0,
    seed: int = 0,
) -> GroverReport:
    """Run the search on the (optionally noisy) cluster and count answers."""
    state = _prepare_state(noise)
    distribution = grover_run(marked, feedforward, state)
    record = simulate_counts(distribution, rate, duration, (int(seed), 0x5ea))
    total = record.total()
    if total == 0:
        raise NoCountsError("no counts drawn; increase rate or duration")
    hit = record.counts.get(marked, 0)
    estimate = hit / total
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / total)
    return GroverReport(
        marked=marked,
        feedforward=feedforward,
        distribution=distribution,
        success_probability=distribution[marked],
        trials=total,
        estimated_success=estimate,
        estimate_stderr=stderr,
    )
