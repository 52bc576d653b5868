"""Measurement patterns on cluster states and the built-in protocols.

A pattern measures cluster qubits one at a time in equatorial bases
B(alpha) and optionally applies Pauli byproduct corrections to the
unmeasured (readout) qubits conditioned on the outcomes.  A pattern is
given by its branches, and one walk over its steps gives them all:
:func:`branch_distribution` returns every branch, and :func:`run_pattern`
picks the branch of given forced outcomes from it.  On top of the walk
this module provides

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
from .photonics import _PM_BASIS, _Z_BASIS
from .qcore import (
    ImpossibleOutcomeError,
    State,
    StateVector,
    _array,
    _basis_probabilities,
    _branches,
    _check_bit,
    _check_stack,
    _checked_states,
    _cphase_array,
    _gate_array,
    _is_number,
    apply_cphase,
    apply_gate,
    hadamard,
    pauli_x,
    pauli_z,
    rz,
)

_CORRECTION_GATES = {"X": pauli_x(), "Z": pauli_z()}
_HADAMARD = hadamard()


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
        for qubit, angle in self.steps:
            if not (_is_number(angle) and math.isfinite(angle)):
                raise ValueError(f"steps: angle of qubit {qubit} must be finite, got {angle!r}")
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


def _byproduct_arrays(a: np.ndarray, pattern: MeasurementPattern, outcomes):
    """The state arrays after each of the pattern's feedforward Paulis for
    these step outcomes, applied in step order to the state array ``a``
    (the readout qubits in ascending order); empty if none applies."""
    corrections = pattern.correction_map()
    steps = []
    for (qubit, _), out in zip(pattern.steps, outcomes):
        if out != 1:
            continue
        for letter, target in corrections.get(qubit, ()):
            a = _gate_array(a, pattern.readout.index(target), _CORRECTION_GATES[letter].matrix)
            steps.append(a)
    return steps


def _apply_byproducts(state: State, pattern: MeasurementPattern, outcomes) -> State:
    """``state`` after the pattern's feedforward Paulis for these step
    outcomes (see :func:`_byproduct_arrays`), checked as one stack."""
    steps = _byproduct_arrays(_array(state), pattern, outcomes)
    return _checked_states(steps)[-1] if steps else state


def branch_distribution(state: State, pattern: MeasurementPattern):
    """All outcome branches of a pattern with their joint probabilities.

    Returns a list of (outcomes, probability, residual) triples in
    lexicographic outcome order; residual is the byproduct-corrected
    state on the readout qubits in ascending original order, or None when
    all qubits are measured.  Step and readout qubits must exactly cover
    the register.  The surviving branch prefixes of each step are one stack
    of state arrays, split in one call into both outcomes of every prefix;
    a branch whose weight falls below the forced-outcome floor (1e-12 at
    some step) is dropped.  Each level's residuals are checked once as one
    stack, and only the last level's are wrapped as states.
    """
    live = list(range(state.num_qubits))
    if sorted([q for q, _ in pattern.steps] + list(pattern.readout)) != live:
        raise ValueError("pattern qubits do not match the register")
    prefixes, stack = [((), ())], _array(state)[None]
    for qubit, alpha in pattern.steps:
        pos = live.index(qubit)
        kept, stack = _branches(stack, pos, alpha)
        prefixes = [(prefixes[row][0] + (out,), prefixes[row][1] + (p,)) for row, out, p in kept]
        live.pop(pos)
        if len(live) > len(pattern.readout):  # a later step splits this level
            _check_stack(stack)
    residuals = [None] * len(prefixes) if stack is None else _checked_states(stack)
    return [
        (
            outcomes,
            float(math.prod(probs)),
            None if residual is None else _apply_byproducts(residual, pattern, outcomes),
        )
        for (outcomes, probs), residual in zip(prefixes, residuals)
    ]


def run_pattern(state: State, pattern: MeasurementPattern, outcomes: Sequence[int]):
    """The branch of a pattern with the forced ``outcomes``, one bit per step:
    its (outcomes, probability, residual) triple from
    :func:`branch_distribution`.

    Raises
    ------
    ValueError
        If an outcome is not a bit or the count is not one per step.
    ImpossibleOutcomeError
        If the walk dropped the branch (weight below 1e-12 at some step).
    """
    if len(outcomes) != len(pattern.steps):
        raise ValueError("need one forced outcome per step")
    for bit in outcomes:
        _check_bit(bit)
    for branch in branch_distribution(state, pattern):
        if branch[0] == tuple(outcomes):
            return branch
    raise ImpossibleOutcomeError(f"outcomes {tuple(outcomes)} have weight below 1e-12")


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
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (_is_number(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("s2", "s3"):
            value = getattr(self, name)
            if not (_is_number(value) and isinstance(value, int) and value in (0, 1)):
                raise ValueError(f"{name} must be the bit 0 or 1, got {value!r}")


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
    """(H Rz(-alpha) x H Rz(-beta)) CPhase |++>, shared by both gates; |++>
    and every later state are checked as one stack."""
    steps = [np.full(4, 0.5, dtype=complex)]
    steps.append(_cphase_array(steps[-1], 0, 1))
    for qubit, gate in ((0, rz(-spec.alpha)), (1, rz(-spec.beta)), (0, _HADAMARD), (1, _HADAMARD)):
        steps.append(_gate_array(steps[-1], qubit, gate.matrix))
    return _checked_states(steps)[-1]


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
) -> Dict[str, float]:
    """The exact answer distribution of the four-entry search.

    The distribution sums :func:`branch_distribution` of the box-frame
    state, which measures each step once per surviving outcome prefix.

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

    Returns
    -------
    dict mapping '00'..'11' to probability.
    """
    pattern = grover_pattern(marked)
    box = to_box_frame(_search_input(input_state))
    distribution = {m: 0.0 for m in _MARKS}
    for outcomes, prob, _ in branch_distribution(box, pattern):
        distribution[_search_output(outcomes, marked, feedforward)] += prob
    return distribution


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
    probe = apply_gate(probe, 1, _HADAMARD)
    probs = np.maximum(_basis_probabilities(probe, (_PM_BASIS, _Z_BASIS)), 0.0)
    return dict(zip(BELL_LABELS, probs.tolist()))
