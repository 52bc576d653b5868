"""Measurement patterns on cluster states and the built-in protocols.

A pattern measures cluster qubits one at a time in equatorial bases
B(alpha) and corrects nothing: its Pauli byproducts are classical data,
read from a constant table (the gates) or rule (the search).  It stores
only its steps: its readout is what they leave of the register, the
unmeasured qubits in ascending order.  A pattern is given by its
branches, and one walk over its steps gives them all:
:func:`branch_distribution` returns every branch, and :func:`run_pattern`
picks the branch of given forced outcomes from it.  On top of the walk
this module provides

* the two-qubit gate pattern and one table of its two layouts, the
  horseshoe and box clusters, which :func:`gate_output` (the closed-form
  outputs) and :func:`frame_equivalence` read by the layout's name,
* the four-entry search protocol on the box cluster, and
* the interferometric discrimination of the four gate output states
  carried by a single photon (polarization, path).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .cluster import _C4, BOX_FRAME, BOX_GRAPH, HORSESHOE_FRAME, HORSESHOE_GRAPH, build_cluster
from .qcore import (
    ImpossibleOutcomeError,
    State,
    StateVector,
    _PAULI_1Q,
    _b_alpha_basis,
    _branches,
    _check_finite,
    _check_integer,
    _check_member,
    _check_sequence,
    _check_state,
    _check_type,
    _product_basis,
    _qubits,
    _rotated_diagonal,
    _word_rotation,
    overlap,
)


@dataclass(frozen=True)
class MeasurementPattern:
    """Ordered single-qubit measurements, with no byproduct correction.

    steps
        (qubit, alpha) pairs, measured in order; qubit indices refer to
        the original register.

    Its readout is the register's unmeasured qubits, in ascending order,
    on whatever register the pattern runs on.
    """

    steps: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        steps = []
        for i, step in enumerate(_check_sequence(self.steps, "steps", ordered=True)):
            qubit, angle = _check_sequence(step, f"steps[{i}]", 2, ordered=True)
            qubit = _check_integer(qubit, f"steps[{i}] qubit", 0)
            steps.append((qubit, _check_finite(angle, f"steps[{i}] angle")))
        if not steps:
            raise ValueError("pattern needs at least one measurement step")
        if len({q for q, _ in steps}) != len(steps):
            raise ValueError("duplicate step qubit")
        object.__setattr__(self, "steps", tuple(steps))


def _walk(a: np.ndarray, pattern: MeasurementPattern):
    """The surviving (outcomes, probabilities) prefixes of a walk on the
    state array ``a``, and their residuals' stack (None if none is left)."""
    live = list(range(_qubits(a)))
    prefixes, stack = [((), ())], a[None]
    for qubit, alpha in pattern.steps:
        pos = live.index(qubit)
        kept, stack = _branches(stack, pos, alpha)
        prefixes = [(prefixes[row][0] + (out,), prefixes[row][1] + (p,)) for row, out, p in kept]
        live.pop(pos)
    return prefixes, stack


def branch_distribution(state: State, pattern: MeasurementPattern):
    """All outcome branches of a pattern with their joint probabilities.

    Returns a list of (outcomes, probability, residual) triples in
    lexicographic outcome order; residual is the normalized state left on
    the unmeasured qubits in ascending original order, its byproducts
    uncorrected, or None when all qubits are measured.  Every step qubit
    must lie in the register.  The surviving branch prefixes
    of each step are one stack of state arrays, split in one call into
    both outcomes of every prefix; a branch whose weight falls below the
    forced-outcome floor (1e-12 at some step) is dropped.  Only the
    returned states are checked, each by its constructor.
    """
    a = _check_state(state, "state")
    for i, (qubit, _) in enumerate(_check_type(pattern, "pattern", MeasurementPattern).steps):
        _check_integer(qubit, f"steps[{i}] qubit", 0, _qubits(a) - 1)
    prefixes, stack = _walk(a, pattern)
    residuals = [None] * len(prefixes) if stack is None else [type(state)(r) for r in stack]
    return [(bits, float(math.prod(probs)), r) for (bits, probs), r in zip(prefixes, residuals)]


def run_pattern(state: State, pattern: MeasurementPattern, outcomes: Sequence[int]):
    """The branch of a pattern with the forced ``outcomes``, one bit per step:
    its (outcomes, probability, residual) triple from
    :func:`branch_distribution`.

    Raises
    ------
    ValueError
        If the outcomes are not an ordered sequence of one bit per step.
    ImpossibleOutcomeError
        If the walk dropped the branch (weight below 1e-12 at some step).
    """
    steps = _check_type(pattern, "pattern", MeasurementPattern).steps
    outcomes = _check_sequence(outcomes, "outcomes", len(steps), ordered=True)
    for i, bit in enumerate(outcomes):
        _check_member(bit, f"outcomes[{i}]", (0, 1))
    for branch in branch_distribution(state, pattern):
        if branch[0] == outcomes:
            return branch
    raise ImpossibleOutcomeError(f"outcomes {outcomes} have weight below 1e-12")


# ---------------------------------------------------------------------------
# two-qubit gates
# ---------------------------------------------------------------------------


def _gate_layout(alpha: float, beta: float):
    """Both gates' steps, once the angles pass: cluster qubits 2, 3 (indices
    1, 2) at B(alpha), B(beta), outcomes s2, s3; qubits 1, 4 are the readout."""
    return (1, _check_finite(alpha, "alpha")), (2, _check_finite(beta, "beta"))


def gate_pattern(alpha: float, beta: float) -> MeasurementPattern:
    """The pattern of both gates, run on the horseshoe or the box cluster."""
    return MeasurementPattern(_gate_layout(alpha, beta))


def _byproducts(letters) -> np.ndarray:
    """A gate's byproduct table, read-only: row 2 s2 + s3 is branch (s2, s3)'s
    Pauli product, P_b^{s3} P_a^{s2} on each readout qubit of letters ``ab``."""
    table = []
    for s2, s3 in itertools.product((0, 1), repeat=2):
        factors = [_PAULI_1Q[("I", b)[s3]] @ _PAULI_1Q[("I", a)[s2]] for a, b in letters]
        table.append(_product_basis(factors))
    table = np.array(table)
    table.setflags(write=False)
    return table


# layout name -> (graph, frame map onto it from |C4>, byproduct table); none
# of them depends on the angles
_GATES = {
    "horseshoe": (HORSESHOE_GRAPH, HORSESHOE_FRAME, _byproducts(("XI", "IX"))),
    "box": (BOX_GRAPH, BOX_FRAME, _byproducts(("XZ", "ZX"))),
}

# CZ|++> with one axis per qubit: entry (i, j) is the amplitude of |ij>
_CZ_PLUS = np.array([[0.5, 0.5], [0.5, -0.5]], dtype=complex)


def _gate_targets(kind: str, alpha: float, beta: float) -> np.ndarray:
    """Row 2 s2 + s3: branch (s2, s3)'s byproducts times the (0, 0) output
    (A x B) CZ|++> = A C B^T, A and B the B(alpha) and B(beta) bras, unchecked:
    the walk's residual, phase and all.  An edge between two unmeasured
    vertices stays on the output (Hein, Eisert & Briegel, PRA 69, 062311
    (2004)): the graph's edge (0, 3) is an output CZ, which negates |11>."""
    graph, _, byproducts = _GATES[kind]
    target = _b_alpha_basis(alpha) @ _CZ_PLUS @ _b_alpha_basis(beta).T
    if (0, 3) in graph.edges:
        target[1, 1] = -target[1, 1]
    return byproducts @ target.reshape(4)


def gate_output(kind: str, alpha: float, beta: float, s2: int = 0, s3: int = 0) -> StateVector:
    """Closed-form residual of :func:`gate_pattern` on the ``kind`` cluster
    for branch (s2, s3).

    Qubit 0 of the result is cluster qubit 1, qubit 1 is cluster qubit 4.
    A pattern applies no correction, so the branch's byproducts, row
    2 s2 + s3 of the gate's constant table, stay in the state: X^{s2}
    (qubit 0) and X^{s3} (qubit 1) on the horseshoe, (X x Z)^{s2}
    followed by (Z x X)^{s3} on the box.
    """
    _check_member(kind, "kind", tuple(_GATES))
    _gate_layout(alpha, beta)
    branch = 2 * _check_member(s2, "s2", (0, 1)) + _check_member(s3, "s3", (0, 1))
    return StateVector(_gate_targets(kind, alpha, beta)[branch])


def frame_equivalence(kind: str) -> Tuple[StateVector, StateVector, float]:
    """The ``kind`` cluster built on its graph, |C4> mapped to its frame,
    and their overlap, which should be 1."""
    graph, frame, _ = _GATES[_check_member(kind, "kind", tuple(_GATES))]
    built, mapped = build_cluster(graph), frame.apply(StateVector(_C4))
    return built, mapped, overlap(built, mapped)


# ---------------------------------------------------------------------------
# four-entry search on the box cluster
# ---------------------------------------------------------------------------

_MARKS = ("00", "01", "10", "11")

# mark -> its box-frame search pattern (indices 0-3 hold box qubits 1-4): the
# oracle reads box qubits 2, 3 at B(0) for a tagged bit, else at B(pi), the same
# apparatus (so the mark stays hidden); then the readout, box qubits 1, 4 at B(pi)
_SEARCH_PATTERNS = {
    m1 + m2: MeasurementPattern(((1, a1), (2, a2), (0, math.pi), (3, math.pi)))
    for (m1, a1), (m2, a2) in itertools.product((("0", math.pi), ("1", 0.0)), repeat=2)
}


def grover_pattern(marked: str) -> MeasurementPattern:
    """Box-frame measurement pattern for one oracle choice, once the mark passes."""
    return _SEARCH_PATTERNS[_check_member(marked, "marked", _MARKS)]


def _check_search(marked: str, feedforward: bool) -> None:
    """Raise ValueError unless the mark and the feedforward flag pass."""
    grover_pattern(marked)
    _check_member(feedforward, "feedforward", (True, False))


def grover_run(
    marked: str,
    feedforward: bool = True,
    input_state: Optional[State] = None,
) -> Dict[str, float]:
    """The exact answer distribution of the four-entry search.

    The distribution sums the branch weights of a walk on the box-frame
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
    _check_search(marked, feedforward)
    a = _C4 if input_state is None else _check_state(input_state, "input_state", 4)
    return _search(a, marked, feedforward)


def _search(a: np.ndarray, marked: str, feedforward: bool) -> Dict[str, float]:
    """:func:`grover_run` on a source-frame state array, all unchecked."""
    prefixes, _ = _walk(BOX_FRAME._frame(a), _SEARCH_PATTERNS[marked])
    distribution = {m: 0.0 for m in _MARKS}
    # step order: oracle on box qubits 2,3 then readout on box qubits 1,4;
    # without the black box outcomes only the readout bits remain, read in
    # the lab basis (readout B(pi): lab bit = 1 xor outcome)
    for (s_b2, s_b3, s_b1, s_b4), probs in prefixes:
        answer = f"{s_b2 ^ s_b4}{s_b1 ^ s_b3}" if feedforward else f"{1 ^ s_b4}{1 ^ s_b1}"
        distribution[answer] += float(math.prod(probs))
    return distribution


# ---------------------------------------------------------------------------
# output state discrimination on one photon
# ---------------------------------------------------------------------------

BELL_LABELS = ("++", "+-", "-+", "--")

# the whole interferometer as one readout rotation, read-only: the CZ, then
# the word XX (+/- polarization, a beam splitter on the path); row k is the
# bra of outcome k (polarization bit first)
_BELL_READOUT = _word_rotation("XX") * [1.0, 1.0, 1.0, -1.0]
_BELL_READOUT.setflags(write=False)


def bell_probabilities(state: State) -> Dict[str, float]:
    """Outcome probabilities of the discrimination interferometer.

    The input is a two-qubit state (qubit 0 polarization, qubit 1 path)
    of a single photon.  A birefringent element applies a CPhase between
    the two degrees of freedom, the path meets a beam splitter, then
    polarization is analyzed along +/- and the output port is recorded.
    The three steps are one constant rotation, and the probabilities are
    the diagonal of the rotated state.  Labels: first character is the
    polarization ('+' for outcome 0), second the port ('+' for port 0).
    """
    probs = np.maximum(_rotated_diagonal(_BELL_READOUT, _check_state(state, "state", 2)), 0.0)
    return dict(zip(BELL_LABELS, probs.tolist()))
