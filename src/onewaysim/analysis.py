"""Witness evaluation, counting statistics, and experiment summaries.

The entanglement witness used throughout is

    W = (4*I - (XXIZ + XXZI + IIZZ + IZXX + ZIXX + ZZII)) / 2

whose six words split into two coincidence settings (WITNESS_SETTINGS):
XXZZ (paths in Z, polarizations along +/-) yields XXIZ, XXZI, IIZZ and
ZZXX (paths on beam splitters, polarizations in H/V) yields IZXX, ZIXX,
ZZII.  A negative expectation proves genuine four-partite entanglement,
and F >= 1/2 - <W>/2 bounds the fidelity to the linear cluster from below.
Each setting's 3x16 matrix of its words' +/-1 outcome signs (expectation's
``_word_signs``), applied to its coincidence table (joint_distribution),
gives exact terms, and applied to counts drawn from that table, estimates.
A witness run draws with simulate_counts' kernel and estimates with
witness_from_counts' arithmetic; neither re-checks the library's tables.

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
from collections import abc
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .cluster import _C4, FrameMap
from .mbqc import _GATES, _MARKS, _check_search, _gate_layout, _gate_targets, _search
from .photonics import (
    COINCIDENCE_RATE_HZ,
    NoiseModel,
    WITNESS_OBSERVABLES,
    WITNESS_SETTINGS,
    _OUTCOME_KEYS,
    _check_setting,
    _joint_table,
    _noisy,
)
from .qcore import (
    _FORCED_MIN_WEIGHT,
    ImpossibleOutcomeError,
    State,
    _b_alpha_basis,
    _check_finite,
    _check_integer,
    _check_member,
    _check_sequence,
    _check_state,
    _check_type,
    _product_basis,
    _rotated_diagonal,
    _shown,
    _word_signs,
)

# numpy's Poisson sampler refuses means beyond the int64 range (~9.2e18)
_MAX_EXPECTED_COUNTS = 1e18


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


def _setting_tables(a: np.ndarray) -> Dict[str, np.ndarray]:
    """Each witness setting's ``_joint_table`` of a four-qubit state array, by name."""
    return {name: _joint_table(a, name) for name in WITNESS_SETTINGS}


def _exact_report(probs: Mapping[str, np.ndarray]) -> WitnessReport:
    """Each setting's sign matrix applied to its table."""
    terms: Dict[str, float] = {}
    for name, words in WITNESS_SETTINGS.items():
        terms.update(zip(words, (_SIGN_MATRICES[name] @ probs[name]).tolist()))
    return _report_from_terms(terms)


def witness_value(state: State) -> WitnessReport:
    """Exact witness evaluation on a four-qubit state, read off the same
    coincidence tables the counts are drawn from."""
    return _exact_report(_setting_tables(_check_state(state, "state", 4)))


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------


class NoCountsError(ValueError):
    """Raised when a setting drew no coincidences to estimate from."""


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts of one run, a copy of the mapping given; ``setting``
    names the witness setting (a key of WITNESS_SETTINGS) they were taken in."""

    counts: Dict[str, int]
    setting: Optional[str] = None

    def __post_init__(self):
        counts = dict(_check_type(self.counts, "counts", abc.Mapping))
        for key, count in counts.items():
            _check_integer(count, f"counts[{key!r}]", 0)
        object.__setattr__(self, "counts", counts)
        if self.setting is not None:
            _check_setting(self.setting)


def simulate_counts(
    probabilities: Mapping[str, float],
    rate: float,
    duration: float,
    seed,
    setting: Optional[str] = None,
) -> CountRecord:
    """Draw counts for one setting: Poisson total, multinomial split.

    ``seed`` is an int >= 0, or a list or tuple of them (numpy's
    default_rng takes both).  Outcome keys are processed in sorted order,
    so a fixed seed fully determines the counts.
    """
    _check_rate(rate, duration)
    for part in seed if isinstance(seed, (list, tuple)) else (seed,):
        _check_seed(part)
    try:
        keys = sorted(_check_type(probabilities, "probabilities", abc.Mapping))
    except TypeError:  # keys that do not compare with each other
        shown = _shown(list(probabilities))
        raise ValueError(f"probabilities keys must sort together, got {shown}") from None
    if not keys:
        raise ValueError("empty probability table")
    values = np.array([float(probabilities[k]) for k in keys])
    # NaN, inf and any entry the sum check would reject, before summing
    bad = ~(np.isfinite(values) & (values <= 1.0 + 1e-6))
    if bad.any():
        key = keys[int(bad.argmax())]
        raise ValueError(f"probability of {key!r} is {float(probabilities[key])!r}, not in [0, 1]")
    if values.min() < -1e-9:
        raise ValueError("negative probability")
    drawn = _draw(values, rate, duration, seed)
    return CountRecord(counts={k: int(c) for k, c in zip(keys, drawn)}, setting=setting)


def _check_rate(rate: float, duration: float) -> None:
    rate = _check_finite(rate, "rate", positive=True)
    expected = rate * _check_finite(duration, "duration", positive=True)
    if not 0 < expected <= _MAX_EXPECTED_COUNTS:
        raise ValueError(
            f"rate * duration must lie in (0, {_MAX_EXPECTED_COUNTS:.0e}], got {expected!r}"
        )


def _draw(values: np.ndarray, rate: float, duration: float, seed) -> np.ndarray:
    """:func:`simulate_counts`' draw from a table whose entries it checked."""
    values = np.clip(values, 0.0, None)
    total_p = float(values.sum())
    if abs(total_p - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total_p!r}, not 1")
    values = values / total_p
    rng = np.random.default_rng(seed)
    total = int(rng.poisson(rate * duration))
    return rng.multinomial(total, values)


def simulate_witness_records(
    state: State,
    rate: float = COINCIDENCE_RATE_HZ,
    duration: float = 1.0,
    seed: int = 0,
) -> Tuple[CountRecord, CountRecord]:
    """Counts for both witness settings of a four-qubit state; ``seed`` is an int >= 0."""
    tables = _setting_tables(_check_state(state, "state", 4))
    _check_seed(seed)
    drawn = _draw_tables(tables, rate, duration, seed).items()  # in sorted setting order
    return tuple(CountRecord(dict(zip(_OUTCOME_KEYS, c.tolist())), name) for name, c in drawn)


def _check_seed(seed, name: str = "seed") -> int:
    """``seed`` as an int, once it is an integer in [0, 2**128 - 1]: every output
    document prints its seed, which no int-to-str limit may stop."""
    return _check_integer(seed, name, 0, 2**128 - 1)


def _draw_tables(tables, rate: float, duration: float, seed: int) -> Dict[str, np.ndarray]:
    """:func:`simulate_counts`' draw of each setting's table, in sorted order with
    seed (seed, sorted index); the library's own tables are not re-checked."""
    _check_rate(rate, duration)
    return {
        name: _draw(tables[name], rate, duration, (int(seed), index))
        for index, name in enumerate(sorted(tables))
    }


_KEY_INDEX = {key: index for index, key in enumerate(_OUTCOME_KEYS)}

# per setting, the +-1.0 eigenvalue of each of its three words (rows) on
# each outcome (columns, in _OUTCOME_KEYS order)
_SIGN_MATRICES = {
    name: np.array([_word_signs(w) for w in words]) for name, words in WITNESS_SETTINGS.items()
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
    for i, record in enumerate(_check_sequence(records, "records")):
        _check_setting(_check_type(record, f"records[{i}]", CountRecord).setting)
        bucket = counts.setdefault(record.setting, [0] * len(_OUTCOME_KEYS))
        for key, count in record.counts.items():
            index = _KEY_INDEX.get(key)
            if index is None:
                raise ValueError(f"invalid outcome key {key!r}")
            bucket[index] += int(count)
    missing = set(WITNESS_SETTINGS) - set(counts)
    if missing:
        raise ValueError(f"missing counts for settings: {sorted(missing)}")
    return _counted_report(counts)


def _counted_report(counts: Mapping[str, Sequence[int]]) -> WitnessReport:
    """:func:`witness_from_counts`' estimate from each setting's integer
    count vector, in _OUTCOME_KEYS order, unchecked."""
    terms: Dict[str, float] = {}
    term_err: Dict[str, float] = {}
    totals: Dict[str, int] = {}
    witness_var = 0.0
    for name, words in WITNESS_SETTINGS.items():
        totals[name] = int(sum(counts[name]))  # a Python int, as JSON needs
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


def _prepare_state(noise: NoiseModel) -> np.ndarray:
    """The array both reports start from: |C4> under the noise, unchecked."""
    return _noisy(_C4, _check_type(noise, "noise", NoiseModel))


def _branch_maps(frame: FrameMap, steps) -> np.ndarray:
    """K_s for every outcome branch s of a pattern's steps.

    K_s maps a source-frame (|C4>) state onto the unnormalised residual
    of branch s on the readout, the unmeasured qubits in ascending order:
    the frame map, then the bra of its outcome on every measured qubit.
    Stacked as (branch, readout index, source index), branches in
    lexicographic outcome order.
    """
    n = len(frame.sources)
    qubits = [q for q, _ in steps]
    readout = [q for q in range(n) if q not in qubits]
    rows = frame.matrix.reshape((2,) * n + (2**n,))
    rows = rows.transpose(qubits + readout + [n]).reshape(2 ** len(steps), -1)
    bras = _product_basis([_b_alpha_basis(alpha) for _, alpha in steps])
    return (bras @ rows).reshape(2 ** len(steps), 2 ** len(readout), 2**n)


def gate_fidelity_report(
    kind: str,
    alpha: float,
    beta: float,
    noise: NoiseModel = NoiseModel(),
) -> Dict[Tuple[int, int], float]:
    """Branch fidelities of a measured gate against its closed form.

    ``kind`` names the layout, a row of the gate table (see mbqc).  For
    each outcome pair s = (s2, s3) of the uncorrected pattern, the
    unnormalised residual is R_s = K_s rho K_s^dagger (see
    :func:`_branch_maps`).  The fidelity is t_s^dagger R_s t_s / tr R_s,
    two rotated diagonals of the source-frame state for all four branches
    at once: tr R_s sums the diagonal read with the rows of K_s, and the
    overlap is read with the one row t_s^dagger K_s, where t_s is the branch
    output of :func:`mbqc.gate_output` (the gate's constant byproduct table
    times the (0, 0) output).  Only the arguments are checked.
    """
    _check_member(kind, "kind", tuple(_GATES))
    maps = _branch_maps(_GATES[kind][1], _gate_layout(alpha, beta))
    a = _prepare_state(noise)
    weights = _rotated_diagonal(maps.reshape(16, 16), a).reshape(4, 4).sum(axis=1)
    targets = _gate_targets(kind, alpha, beta)
    overlaps = _rotated_diagonal((targets.conj()[:, None] @ maps)[:, 0], a)
    report = {}
    branches = itertools.product((0, 1), repeat=2)
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
    noise: NoiseModel = NoiseModel(),
    feedforward: bool = True,
    marked: str = "00",
    rate: float = COINCIDENCE_RATE_HZ,
    duration: float = 1.0,
    seed: int = 0,
) -> GroverReport:
    """Run the search on the cluster under ``noise`` and count answers;
    ``seed`` is a non-negative integer."""
    a = _prepare_state(noise)
    _check_seed(seed)
    _check_search(marked, feedforward)
    distribution = _search(a, marked, feedforward)
    _check_rate(rate, duration)
    drawn = _draw(np.array(list(distribution.values())), rate, duration, (int(seed), 0x5ea))
    total = int(drawn.sum())
    if total == 0:
        raise NoCountsError("no counts drawn; increase rate or duration")
    estimate = int(drawn[_MARKS.index(marked)]) / total
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
