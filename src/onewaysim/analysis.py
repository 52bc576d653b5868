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
outcomes.  Standard errors propagate through the +/-1 outcome signs by
the delta method, which has two closed forms here.  A term estimated as
e from N counts has variance (1 - e**2)/N.  Within one setting the
product of two words' signs is the third word's sign (XXIZ*XXZI = IIZZ,
IZXX*ZIXX = ZZII), so the three signs of an outcome sum to 3 or -1; that
sum, estimated as S, has variance (3 - S)(1 + S)/N, and the witness
variance is the sum of these over both settings divided by 4.
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
    _byproduct_arrays,
    box_gate,
    box_pattern,
    grover_run,
    horseshoe_gate,
    horseshoe_pattern,
)
from .photonics import (
    COINCIDENCE_RATE_HZ,
    NoiseModel,
    WITNESS_OBSERVABLES,
    WITNESS_SETTINGS,
    _OUTCOME_KEYS,
    _b_alpha_basis,
    _check_setting,
    apply_noise,
    joint_distribution,
)
from .qcore import (
    _FORCED_MIN_WEIGHT,
    ImpossibleOutcomeError,
    PauliString,
    State,
    _checked_states,
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


_WITNESS_WORDS = tuple(PauliString(word) for word in WITNESS_OBSERVABLES)


def witness_value(state: State) -> WitnessReport:
    """Exact witness evaluation on a four-qubit state."""
    terms = {word.letters: expectation(state, word) for word in _WITNESS_WORDS}
    return _report_from_terms(terms)


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------


class NoCountsError(ValueError):
    """Raised when a setting drew no coincidences to estimate from."""


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts of one run; ``setting`` names the witness
    setting (a key of WITNESS_SETTINGS) the counts were taken in."""

    counts: Dict[str, int]
    duration: float
    rate: float
    setting: Optional[str] = None

    def total(self) -> int:
        return int(sum(self.counts.values()))


def simulate_counts(
    probabilities: Mapping[str, float],
    rate: float,
    duration: float,
    seed,
    setting: Optional[str] = None,
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
        probabilities = joint_distribution(state, name)
        records.append(
            simulate_counts(probabilities, rate, duration, (int(seed), index), setting=name)
        )
    return tuple(records)


_KEY_INDEX = {key: index for index, key in enumerate(_OUTCOME_KEYS)}

# per setting, the +-1.0 eigenvalue of each of its three words (rows) on
# each outcome key (columns, in _OUTCOME_KEYS order): -1.0 when an odd
# number of the word's non-identity letters read bit 1
_SIGN_MATRICES = {
    name: np.array(
        [
            [
                (-1.0) ** sum(bit == "1" for letter, bit in zip(word, key) if letter != "I")
                for key in _OUTCOME_KEYS
            ]
            for word in words
        ]
    )
    for name, words in _SETTING_TERMS.items()
}


def witness_from_counts(records: Iterable[CountRecord]) -> WitnessReport:
    """Estimate the witness from coincidence counts.

    ``records`` must cover both witness settings (duplicates are summed),
    and a record whose setting is not one of their names is a ValueError.
    Standard errors come from the delta method, linearized around the
    estimate, in its closed form for +-1 outcome signs (see the module
    docstring).
    """
    # exact integer counts per setting, in _OUTCOME_KEYS order
    counts: Dict[str, list] = {}
    for record in records:
        _check_setting(record.setting)
        bucket = counts.setdefault(record.setting, [0] * len(_OUTCOME_KEYS))
        for key, count in record.counts.items():
            index = _KEY_INDEX.get(key)
            if index is None:
                raise ValueError(f"invalid outcome key {key!r}")
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise ValueError(f"count of outcome {key!r} must be an integer, got {count!r}")
            if count < 0:
                raise ValueError("negative count")
            bucket[index] += int(count)
    missing = set(_SETTING_TERMS) - set(counts)
    if missing:
        raise ValueError(f"missing counts for settings: {sorted(missing)}")
    terms: Dict[str, float] = {}
    term_err: Dict[str, float] = {}
    totals: Dict[str, int] = {}
    witness_var = 0.0
    for name, words in _SETTING_TERMS.items():
        totals[name] = sum(counts[name])
        if totals[name] == 0:
            raise NoCountsError("a witness setting has zero counts")
        n = float(totals[name])
        signs, vector = _SIGN_MATRICES[name], np.array(counts[name], dtype=float)
        estimates = signs @ vector / n
        # S from the summed signs, not from three rounded terms: where every
        # outcome's signs sum to -1, S is then -1 exactly, as an ulp off would
        # give a stderr of ~sqrt(1e-16 / N); past 2**53 counts a term or S can
        # still round an ulp beyond its bound, hence the clamps
        s = float(signs.sum(axis=0) @ vector) / n
        errors = np.sqrt(np.maximum(1.0 - estimates**2, 0.0) / n)
        terms.update(zip(words, estimates.tolist()))
        term_err.update(zip(words, errors.tolist()))
        witness_var += max((3.0 - s) * (1.0 + s), 0.0) / (4.0 * n)
    return _report_from_terms(
        terms,
        term_stderrs=term_err,
        witness_stderr=math.sqrt(witness_var),
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
    target = target_fn(GateOutputSpec(alpha, beta)).amplitudes
    chains = [_byproduct_arrays(target, pattern, branch) for branch in branches]
    _checked_states([a for chain in chains for a in chain])  # every byproduct step
    targets = np.array([chain[-1] if chain else target for chain in chains])
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
