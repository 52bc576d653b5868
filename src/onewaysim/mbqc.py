"""Measurement patterns on cluster states and the built-in protocols.

A pattern measures cluster qubits one at a time in equatorial bases
B(alpha) and optionally applies Pauli byproduct corrections to the
unmeasured (readout) qubits conditioned on the outcomes.  On top of
:func:`run_pattern` this module provides

* the two-qubit gate patterns of the horseshoe and box clusters with
  their closed-form output states,
* the four-entry search protocol on the box cluster, and
* the interferometric discrimination of the four gate output states
  carried by a single photon (polarization, path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .cluster import c4_state, to_box_frame
from .photonics import _PM_BASIS, _Z_BASIS, beam_splitter
from .qcore import (
    State,
    StateVector,
    _basis_probabilities,
    apply_cphase,
    apply_gate,
    hadamard,
    measure,
    measurement_branches,
    pauli_x,
    pauli_z,
    rz,
)

_CORRECTION_GATES = {"X": pauli_x(), "Z": pauli_z()}


@dataclass(frozen=True)
class MeasurementPattern:
    """Ordered single-qubit measurements plus byproduct corrections.

    steps
        (qubit, alpha) pairs, measured in order; qubit indices refer to
        the original register.
    readout
        Qubits left unmeasured, in ascending order.  Together with the
        step qubits they must cover the register the pattern runs on.
    feedforward
        ((step_qubit, ((letter, readout_qubit), ...)), ...).  When a
        step reports outcome 1 its listed corrections are applied to
        the residual state.  Letters are 'X' or 'Z'.
    """

    steps: Tuple[Tuple[int, float], ...]
    readout: Tuple[int, ...] = ()
    feedforward: Tuple[Tuple[int, Tuple[Tuple[str, int], ...]], ...] = ()

    def __post_init__(self):
        if not self.steps:
            raise ValueError("pattern needs at least one measurement step")
        step_qubits = [q for q, _ in self.steps]
        if len(set(step_qubits)) != len(step_qubits):
            raise ValueError("duplicate step qubit")
        if any(not math.isfinite(a) for _, a in self.steps):
            raise ValueError("measurement angle must be finite")
        readout = tuple(sorted(int(q) for q in self.readout))
        if set(readout) & set(step_qubits):
            raise ValueError("readout qubits overlap with step qubits")
        object.__setattr__(self, "readout", readout)
        for qubit, corrections in self.feedforward:
            if qubit not in step_qubits:
                raise ValueError(f"feedforward key {qubit} is not a step qubit")
            for letter, target in corrections:
                if letter not in _CORRECTION_GATES:
                    raise ValueError(f"unsupported correction {letter!r}")
                if target not in readout:
                    raise ValueError(f"correction target {target} is not a readout qubit")

    def correction_map(self) -> Dict[int, Tuple[Tuple[str, int], ...]]:
        return {qubit: corrections for qubit, corrections in self.feedforward}


@dataclass(frozen=True)
class OutcomeRecord:
    """Outcomes of one pattern run, in step order."""

    qubits: Tuple[int, ...]
    outcomes: Tuple[int, ...]
    probabilities: Tuple[float, ...]

    def joint_probability(self) -> float:
        return float(np.prod(self.probabilities))


def run_pattern(state: State, pattern: MeasurementPattern, outcome_source):
    """Execute a measurement pattern on a state.

    Parameters
    ----------
    state : StateVector or DensityMatrix
    pattern : MeasurementPattern
        Step and readout qubits must exactly cover the register.
    outcome_source
        A numpy Generator, a callable mapping p0 to a bit (used for
        every step), or a sequence of forced bits, one per step.

    Returns
    -------
    (OutcomeRecord, residual)
        residual is the post-measurement state on the readout qubits
        in ascending original order, or None when all qubits are
        measured.  Byproduct corrections have been applied.
    """
    _check_cover(state, pattern)
    forced: Optional[Sequence[int]] = None
    if isinstance(outcome_source, (list, tuple)):
        if len(outcome_source) != len(pattern.steps):
            raise ValueError("need one forced outcome per step")
        forced = tuple(int(b) for b in outcome_source)
    elif isinstance(outcome_source, (int, np.integer)) and not isinstance(
        outcome_source, bool
    ):
        raise TypeError("pass a sequence of forced bits, one per step")

    live = list(range(state.num_qubits))
    current: Optional[State] = state
    outcomes = []
    probs = []
    for index, (qubit, alpha) in enumerate(pattern.steps):
        pos = live.index(qubit)
        source = forced[index] if forced is not None else outcome_source
        out, p, current = measure(current, pos, alpha, source)
        live.pop(pos)
        outcomes.append(out)
        probs.append(p)
    return _finish(pattern, tuple(outcomes), tuple(probs), current)


def _check_cover(state: State, pattern: MeasurementPattern) -> None:
    n = state.num_qubits
    step_qubits = [q for q, _ in pattern.steps]
    covered = set(step_qubits) | set(pattern.readout)
    if covered != set(range(n)) or len(step_qubits) + len(pattern.readout) != n:
        raise ValueError("pattern qubits do not match the register")


def _finish(pattern: MeasurementPattern, outcomes, probs, current):
    """The record of a finished run and its byproduct-corrected residual."""
    if current is not None:
        current = _apply_byproducts(current, pattern, outcomes)
    return OutcomeRecord(tuple(q for q, _ in pattern.steps), outcomes, probs), current


def _apply_byproducts(state: State, pattern: MeasurementPattern, outcomes) -> State:
    """The pattern's feedforward Paulis for these step outcomes, applied in
    step order to ``state`` (the readout qubits in ascending order)."""
    corrections = pattern.correction_map()
    for (qubit, _), out in zip(pattern.steps, outcomes):
        if out != 1:
            continue
        for letter, target in corrections.get(qubit, ()):
            state = apply_gate(
                state, pattern.readout.index(target), _CORRECTION_GATES[letter]
            )
    return state


def branch_distribution(state: State, pattern: MeasurementPattern):
    """All outcome branches of a pattern with their joint probabilities.

    Returns a list of (outcomes, probability, residual) triples in
    lexicographic outcome order.  Branches whose weight falls below the
    forced-outcome floor (1e-12 at some step) are dropped.  Each step is
    measured once per surviving branch prefix, both outcomes from one
    split, so every triple equals the forced-outcome :func:`run_pattern`
    bit for bit.
    """
    _check_cover(state, pattern)
    live = list(range(state.num_qubits))
    level = [((), (), state)]
    for qubit, alpha in pattern.steps:
        pos = live.index(qubit)
        level = [
            (outcomes + (out,), probs + (p,), residual)
            for outcomes, probs, current in level
            for out, p, residual in measurement_branches(current, pos, alpha)
        ]
        live.pop(pos)
    branches = []
    for outcomes, probs, current in level:
        record, residual = _finish(pattern, outcomes, probs, current)
        branches.append((outcomes, record.joint_probability(), residual))
    return branches


# ---------------------------------------------------------------------------
# two-qubit gates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateOutputSpec:
    """Angles and branch outcomes selecting one gate output state."""

    alpha: float
    beta: float
    s2: int = 0
    s3: int = 0

    def __post_init__(self):
        if self.s2 not in (0, 1) or self.s3 not in (0, 1):
            raise ValueError("branch outcomes must be bits")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("angles must be finite")


def horseshoe_pattern(alpha: float, beta: float, feedforward: bool = True) -> MeasurementPattern:
    """Measure qubits 2,3 of the horseshoe cluster at B(alpha), B(beta)."""
    ff = ((1, (("X", 0),)), (2, (("X", 3),))) if feedforward else ()
    return MeasurementPattern(
        steps=((1, alpha), (2, beta)), readout=(0, 3), feedforward=ff
    )


def box_pattern(alpha: float, beta: float, feedforward: bool = True) -> MeasurementPattern:
    """Measure qubits 2,3 of the box cluster at B(alpha), B(beta)."""
    ff = (
        ((1, (("X", 0), ("Z", 3))), (2, (("Z", 0), ("X", 3))))
        if feedforward
        else ()
    )
    return MeasurementPattern(
        steps=((1, alpha), (2, beta)), readout=(0, 3), feedforward=ff
    )


def _rotated_pair(spec: GateOutputSpec) -> StateVector:
    """(H Rz(-alpha) x H Rz(-beta)) CPhase |++>, shared by both gates."""
    out = apply_cphase(StateVector(np.full(4, 0.5, dtype=complex)), 0, 1)
    out = apply_gate(out, 0, rz(-spec.alpha))
    out = apply_gate(out, 1, rz(-spec.beta))
    h = hadamard()
    return apply_gate(apply_gate(out, 0, h), 1, h)


def horseshoe_gate(spec: GateOutputSpec) -> StateVector:
    """Closed-form output of the horseshoe pattern for one branch.

    Qubit 0 of the result is cluster qubit 1, qubit 1 is cluster qubit 4.
    The pattern's byproducts X^{s2} (qubit 0) and X^{s3} (qubit 1) are
    kept in the state, matching an uncorrected run.
    """
    pattern = horseshoe_pattern(spec.alpha, spec.beta)
    return _apply_byproducts(_rotated_pair(spec), pattern, (spec.s2, spec.s3))


def box_gate(spec: GateOutputSpec) -> StateVector:
    """Closed-form output of the box pattern for one branch.

    Same qubit convention as :func:`horseshoe_gate`; the pattern's
    byproducts are (X x Z)^{s2} followed by (Z x X)^{s3}.
    """
    pattern = box_pattern(spec.alpha, spec.beta)
    pair = apply_cphase(_rotated_pair(spec), 0, 1)
    return _apply_byproducts(pair, pattern, (spec.s2, spec.s3))


# ---------------------------------------------------------------------------
# four-entry search on the box cluster
# ---------------------------------------------------------------------------

_MARKS = ("00", "01", "10", "11")

# register positions in the box frame: cluster qubits (1,2,3,4) of the box
# graph sit at indices (0,1,2,3); the oracle tags qubits 2,3 of Eq. frame
# which are box qubits 2 and 3 at indices 1 and 2.
_ORACLE_POSITIONS = (1, 2)
_READOUT_POSITIONS = (0, 3)


def _oracle_angle(mark_bit: int) -> float:
    # tagging flips the outcome labelling B(pi) -> B(0); the physical
    # apparatus is identical for both, so the mark stays hidden in it
    return 0.0 if mark_bit else math.pi


def grover_pattern(marked: str) -> MeasurementPattern:
    """Box-frame measurement pattern for one oracle choice."""
    m1, m2 = _check_marked(marked)
    steps = (
        (_ORACLE_POSITIONS[0], _oracle_angle(m1)),
        (_ORACLE_POSITIONS[1], _oracle_angle(m2)),
        (_READOUT_POSITIONS[0], math.pi),
        (_READOUT_POSITIONS[1], math.pi),
    )
    return MeasurementPattern(steps=steps)


def _check_marked(marked: str) -> Tuple[int, int]:
    if marked not in _MARKS:
        raise ValueError(f"marked element must be one of {_MARKS}, got {marked!r}")
    return int(marked[0]), int(marked[1])


def _search_output(outcomes, marked: str, feedforward: bool) -> str:
    # step order: oracle on box qubits 2,3 then readout on box qubits 1,4
    s_b2, s_b3, s_b1, s_b4 = outcomes
    if feedforward:
        return f"{s_b2 ^ s_b4}{s_b1 ^ s_b3}"
    # without the black box outcomes only the readout bits remain, read
    # in the lab basis (readout B(pi): lab bit = 1 xor outcome)
    return f"{1 ^ s_b4}{1 ^ s_b1}"


def _search_input(input_state: Optional[State]) -> State:
    state = input_state if input_state is not None else c4_state()
    if state.num_qubits != 4:
        raise ValueError("search input must be a four-qubit state")
    return state


def grover_run(
    marked: str,
    feedforward: bool = True,
    input_state: Optional[State] = None,
    trials: int = 0,
    outcome_source=None,
) -> Dict[str, float]:
    """Run the four-entry search and return the answer distribution.

    The exact distribution sums :func:`branch_distribution` of the
    box-frame state, which measures each step once per surviving outcome
    prefix; sampling runs the pattern once per trial.

    Parameters
    ----------
    marked : str
        The tagged entry, '00'..'11'.
    feedforward : bool
        Whether the oracle outcomes are folded into the readout.  With
        an ideal input the answer then equals ``marked`` with
        certainty; without them the answer carries no information.
    input_state : StateVector or DensityMatrix, optional
        Four-qubit state in the source frame (defaults to the ideal
        linear cluster); it is moved to the box frame internally.
    trials : int
        0 computes the exact distribution; a positive count samples
        individual runs instead.
    outcome_source : int or numpy Generator
        Required when ``trials`` > 0.  An integer seeds one generator
        per trial, so results do not depend on execution order.

    Returns
    -------
    dict mapping '00'..'11' to probability (or sampled frequency).
    """
    _check_marked(marked)
    box = to_box_frame(_search_input(input_state))
    pattern = grover_pattern(marked)

    distribution = {m: 0.0 for m in _MARKS}
    if trials == 0:
        for outcomes, prob, _ in branch_distribution(box, pattern):
            distribution[_search_output(outcomes, marked, feedforward)] += prob
        return distribution

    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if isinstance(outcome_source, (int, np.integer)):
        generators = (
            np.random.default_rng(np.random.SeedSequence((int(outcome_source), t)))
            for t in range(trials)
        )
    elif isinstance(outcome_source, np.random.Generator):
        generators = (outcome_source for _ in range(trials))
    else:
        raise TypeError("sampling needs an integer seed or a numpy Generator")
    for rng in generators:
        record, _ = run_pattern(box, pattern, rng)
        distribution[_search_output(record.outcomes, marked, feedforward)] += 1.0
    return {m: c / trials for m, c in distribution.items()}


def grover_lab_distribution(marked: str, input_state: Optional[State] = None):
    """Distribution of raw detector bits for one oracle choice.

    Keys are 'z1 z2 z3 z4' lab bits.  The same apparatus serves every
    oracle choice, so this distribution is identical for all four marks;
    only the outcome labelling the black box reports differs.
    """
    m1, m2 = _check_marked(marked)
    box = to_box_frame(_search_input(input_state))
    pattern = grover_pattern(marked)
    out: Dict[str, float] = {}
    for outcomes, prob, _ in branch_distribution(box, pattern):
        s_b2, s_b3, s_b1, s_b4 = outcomes
        z1 = 1 ^ s_b1
        z2 = s_b3 if m2 else 1 ^ s_b3
        z3 = s_b2 if m1 else 1 ^ s_b2
        z4 = 1 ^ s_b4
        key = f"{z1}{z2}{z3}{z4}"
        out[key] = out.get(key, 0.0) + prob
    return out


# ---------------------------------------------------------------------------
# output state discrimination on one photon
# ---------------------------------------------------------------------------

BELL_LABELS = ("++", "+-", "-+", "--")


def bell_probabilities(state: State) -> Dict[str, float]:
    """Outcome probabilities of the discrimination interferometer.

    The input is a two-qubit state (qubit 0 polarization, qubit 1 path)
    of a single photon.  A birefringent element applies a CPhase between
    the two degrees of freedom, the path meets a beam splitter, then
    polarization is analyzed along +/- and the output port is recorded.
    Labels: first character is the polarization ('+' for outcome 0),
    second the port ('+' for port 0).
    """
    if state.num_qubits != 2:
        raise ValueError("discrimination acts on one photon: two qubits")
    probe = apply_cphase(state, 0, 1)
    probe = beam_splitter(probe, 1)
    probs = np.maximum(_basis_probabilities(probe, (_PM_BASIS, _Z_BASIS)), 0.0)
    return dict(zip(BELL_LABELS, probs.tolist()))


def bell_discriminate(state: State, outcome_source=None) -> str:
    """Label of the discrimination outcome for a single photon state.

    Deterministic inputs (the four gate output states) return their
    label directly; anything else needs a numpy Generator to draw one.
    """
    probs = bell_probabilities(state)
    best = max(probs, key=probs.get)
    if probs[best] > 1.0 - 1e-10:
        return best
    if isinstance(outcome_source, np.random.Generator):
        labels = list(probs)
        weights = np.array([probs[k] for k in labels])
        weights = weights / weights.sum()
        return labels[outcome_source.choice(len(labels), p=weights)]
    raise ValueError(
        "outcome is not deterministic for this input; pass a numpy Generator"
    )
