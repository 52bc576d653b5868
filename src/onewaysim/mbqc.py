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

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .cluster import _C4, BOX_FRAME, HORSESHOE_FRAME
from .photonics import _PM_BASIS, _Z_BASIS
from .qcore import (
    _HADAMARD,
    ImpossibleOutcomeError,
    State,
    StateVector,
    _PAULI_1Q,
    _branches,
    _check_finite,
    _check_integer,
    _check_member,
    _check_state,
    _check_type,
    _product_basis,
    _qubits,
    _rotated_diagonal,
    _rz_matrix,
)


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
        steps = tuple(
            (_check_integer(q, f"steps[{i}] qubit", 0), _check_finite(a, f"steps[{i}] angle"))
            for i, (q, a) in enumerate(self.steps)
        )
        if not steps:
            raise ValueError("pattern needs at least one measurement step")
        step_qubits = [q for q, _ in steps]
        if len(set(step_qubits)) != len(step_qubits):
            raise ValueError("duplicate step qubit")
        readout = [_check_integer(q, f"readout[{i}]", 0) for i, q in enumerate(self.readout)]
        readout = tuple(sorted(readout))
        if set(readout) & set(step_qubits):
            raise ValueError("readout qubits overlap with step qubits")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "readout", readout)
        keys = [qubit for qubit, _ in self.feedforward]
        for i, (qubit, corrections) in enumerate(self.feedforward):
            if qubit not in step_qubits:
                raise ValueError(f"feedforward key {qubit} is not a step qubit")
            if keys.count(qubit) > 1:
                raise ValueError(f"feedforward key {qubit} is listed more than once")
            for letter, target in corrections:
                _check_member(letter, f"feedforward[{i}] letter", ("X", "Z"))
                if target not in readout:
                    raise ValueError(f"correction target {target} is not a readout qubit")


def _byproduct_table(pattern: MeasurementPattern) -> np.ndarray:
    """Each branch's feedforward as one Pauli product on the readout qubits,
    stacked read-only as (branch, row, column) in lexicographic branch order.
    Each correction of a step with outcome 1 is its letter's Pauli on the
    target's readout position; in step order, each multiplies on the left."""
    corrections = dict(pattern.feedforward)
    table = []
    for branch in itertools.product((0, 1), repeat=len(pattern.steps)):
        m = np.eye(2 ** len(pattern.readout), dtype=complex)
        for (qubit, _), bit in zip(pattern.steps, branch):
            for letter, target in corrections.get(qubit, ()) if bit else ():
                paulis = [_PAULI_1Q[letter if q == target else "I"] for q in pattern.readout]
                m = _product_basis(paulis) @ m
        table.append(m)
    table = np.array(table)
    table.setflags(write=False)
    return table


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
    lexicographic outcome order; residual is the byproduct-corrected
    state on the readout qubits in ascending original order, or None when
    all qubits are measured.  Step and readout qubits must exactly cover
    the register.  The surviving branch prefixes of each step are one stack
    of state arrays, split in one call into both outcomes of every prefix;
    a branch whose weight falls below the forced-outcome floor (1e-12 at
    some step) is dropped.  The last level's residuals are corrected as one
    stack by their branches' rows T of :func:`_byproduct_table`, T r for
    kets and T R T^dagger for matrices (a signed permutation that moves no
    bit); only these returned states are checked, each by its constructor.
    """
    a = _check_state(state, "state")
    qubits = [q for q, _ in _check_type(pattern, "pattern", MeasurementPattern).steps]
    if sorted(qubits + list(pattern.readout)) != list(range(_qubits(a))):
        raise ValueError("pattern qubits do not match the register")
    prefixes, stack = _walk(a, pattern)
    if stack is None:
        return [(outcomes, float(math.prod(probs)), None) for outcomes, probs in prefixes]
    if pattern.feedforward:
        t = _byproduct_table(pattern)[[int("".join(map(str, bits)), 2) for bits, _ in prefixes]]
        if stack.ndim == 2:
            stack = (t @ stack[..., None])[..., 0]
        else:
            stack = t @ stack @ t.conj().swapaxes(1, 2)
    return [
        (outcomes, float(math.prod(probs)), type(state)(residual))
        for (outcomes, probs), residual in zip(prefixes, stack)
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
    steps = _check_type(pattern, "pattern", MeasurementPattern).steps
    if np.ndim(outcomes) != 1 or len(outcomes) != len(steps):
        raise ValueError(f"outcomes must hold one forced outcome per step, got {outcomes!r}")
    for i, bit in enumerate(outcomes):
        _check_member(bit, f"outcomes[{i}]", (0, 1))
    for branch in branch_distribution(state, pattern):
        if branch[0] == tuple(outcomes):
            return branch
    raise ImpossibleOutcomeError(f"outcomes {tuple(outcomes)} have weight below 1e-12")


# ---------------------------------------------------------------------------
# two-qubit gates
# ---------------------------------------------------------------------------


def _check_angles(alpha, beta) -> None:
    """Raise ValueError, naming the angle, unless both are finite numbers."""
    for name, value in (("alpha", alpha), ("beta", beta)):
        _check_finite(value, name)


@dataclass(frozen=True)
class GateOutputSpec:
    """Angles and branch outcomes selecting one gate output state."""

    alpha: float
    beta: float
    s2: int = 0
    s3: int = 0

    def __post_init__(self):
        _check_angles(self.alpha, self.beta)
        for name in ("s2", "s3"):
            _check_member(getattr(self, name), name, (0, 1))


def _gate_pattern(alpha: float, beta: float, feedforward: bool, ff) -> MeasurementPattern:
    """Both gates' pattern: B(alpha), B(beta) on qubits 2,3, with the byproducts ``ff``."""
    _check_angles(alpha, beta)
    ff = ff if _check_member(feedforward, "feedforward", (True, False)) else ()
    return MeasurementPattern(steps=((1, alpha), (2, beta)), readout=(0, 3), feedforward=ff)


def horseshoe_pattern(alpha: float, beta: float, feedforward: bool = True) -> MeasurementPattern:
    """Measure qubits 2,3 of the horseshoe cluster at B(alpha), B(beta)."""
    return _gate_pattern(alpha, beta, feedforward, ((1, (("X", 0),)), (2, (("X", 3),))))


def box_pattern(alpha: float, beta: float, feedforward: bool = True) -> MeasurementPattern:
    """Measure qubits 2,3 of the box cluster at B(alpha), B(beta)."""
    ff = ((1, (("X", 0), ("Z", 3))), (2, (("Z", 0), ("X", 3))))
    return _gate_pattern(alpha, beta, feedforward, ff)


# gate kind -> (graph frame, byproduct table); the feedforward does not
# depend on the angles
_GATES = {
    kind: (frame, _byproduct_table(pattern_fn(0.0, 0.0)))
    for kind, frame, pattern_fn in (
        ("horseshoe", HORSESHOE_FRAME, horseshoe_pattern),
        ("box", BOX_FRAME, box_pattern),
    )
}

# CZ|++> with one axis per qubit: entry (i, j) is the amplitude of |ij>
_CZ_PLUS = np.array([[0.5, 0.5], [0.5, -0.5]], dtype=complex)


def _gate_targets(kind: str, alpha: float, beta: float) -> np.ndarray:
    """Row 2 s2 + s3: branch (s2, s3)'s byproducts times the (0, 0) output
    (H Rz(-alpha) x H Rz(-beta)) CZ|++>, i.e. A C B^T for A = H Rz(-alpha),
    B = H Rz(-beta), whose |11> entry the box's extra CZ negates; unchecked."""
    a, b = (_HADAMARD @ _rz_matrix(-t) for t in (alpha, beta))
    target = a @ _CZ_PLUS @ b.T
    if kind == "box":
        target[1, 1] = -target[1, 1]
    return _GATES[kind][1] @ target.reshape(4)


def _gate_output(kind: str, spec: GateOutputSpec) -> StateVector:
    spec = _check_type(spec, "spec", GateOutputSpec)
    return StateVector(_gate_targets(kind, spec.alpha, spec.beta)[2 * spec.s2 + spec.s3])


def horseshoe_gate(spec: GateOutputSpec) -> StateVector:
    """Closed-form output of the horseshoe pattern for one branch.

    Qubit 0 of the result is cluster qubit 1, qubit 1 is cluster qubit 4.
    The pattern's byproducts X^{s2} (qubit 0) and X^{s3} (qubit 1), one
    entry of a constant table, are kept in the state as in an uncorrected run.
    """
    return _gate_output("horseshoe", spec)


def box_gate(spec: GateOutputSpec) -> StateVector:
    """Closed-form output of the box pattern for one branch.

    Same qubit convention and byproduct table as :func:`horseshoe_gate`;
    the pattern's byproducts are (X x Z)^{s2} followed by (Z x X)^{s3}.
    """
    return _gate_output("box", spec)


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
    m1, m2 = _check_search(marked)
    steps = (
        (_ORACLE_POSITIONS[0], _oracle_angle(m1)),
        (_ORACLE_POSITIONS[1], _oracle_angle(m2)),
        (_READOUT_POSITIONS[0], math.pi),
        (_READOUT_POSITIONS[1], math.pi),
    )
    return MeasurementPattern(steps=steps)


def _check_search(marked: str, feedforward: bool = True) -> Tuple[int, int]:
    """The mark's two bits, once the mark and the feedforward flag pass."""
    _check_member(marked, "marked", _MARKS)
    _check_member(feedforward, "feedforward", (True, False))
    return int(marked[0]), int(marked[1])


# mark -> its search pattern, built once
_SEARCH_PATTERNS = {mark: grover_pattern(mark) for mark in _MARKS}


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

# the whole interferometer as one readout rotation, (PM x Z)(I x H) CZ:
# row k is the bra of outcome k (polarization bit first)
_BELL_READOUT = (
    _product_basis((_PM_BASIS, _Z_BASIS))
    @ _product_basis((np.eye(2), _HADAMARD))
    @ np.diag([1.0, 1.0, 1.0, -1.0])
)
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
