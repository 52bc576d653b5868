"""Dense complex linear algebra for small qubit registers.

States live in the computational basis with qubit 0 on the most
significant bit, so the amplitude of |q0 q1 ... q_{n-1}> sits at array
index q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.  Everything is exact
dense arithmetic; this module is meant for registers of at most six
qubits and favours clarity over asymptotic speed.

Every operation is written once for pure and mixed states: a state's
array has a ket axis, followed by a bra axis for a mixed state only, and
gates, CPhase, swaps and the B(alpha) split loop over the sides present.
Each is a private kernel on arrays (``_gate_array``, ``_cphase_array``,
``_swap_array``, and ``_branches`` on a stack of arrays); the public
function is the kernel wrapped by ``_state``.  ``_array``/``_state``
alone map between the two classes and arrays.

States are checked where they enter: the public constructors check every
state they build (no NaN and no entry too large for a state, which would
overflow the later checks; unit norm, or Hermitian, trace 1 and positive
semidefinite: rho + 1e-10*I has a Cholesky factor), and each public
operation builds its result through them.  A caller that chains kernels
(a frame change, one level of a measurement walk) checks its intermediate
arrays once per stack instead, with ``_check_stack`` (``_checked_states``
also wraps them): the same checks, tolerances and messages, one call each.

All operations are pure: they return new values and never mutate their
inputs.  Arrays stored inside returned objects are marked read-only, so
values can be shared freely between threads.

Measurements use the equatorial basis family

    B(alpha) = { |alpha+>, |alpha-> },   |alpha+-> = (|0> +- e^{i alpha}|1>)/sqrt(2)

with outcome 0 meaning a projection onto |alpha+>.  One split,
``_branches``, gives both outcomes of such a measurement for every state
of a stack (a whole level of a measurement walk); :func:`measure` takes
either kind of state and a forced bit, splits a stack of one, and returns
that bit's entry.  There is no random outcome source: sampled counts are
drawn from exact tables (see the analysis module).  Z measurements are not
part of this family; readouts in any product basis (see the photonics
module) rotate each qubit's basis onto Z and read the diagonal of the
rotated state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

# state and gate checks test ``not err <= TOL``, which NaN fails
TOL = 1e-10

_FORCED_MIN_WEIGHT = 1e-12


class ImpossibleOutcomeError(ValueError):
    """Raised when a forced measurement outcome has (near) zero weight."""


def _is_number(value) -> bool:
    """True for an int or a float; a bool, an int subclass, is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


class StateVector:
    """Pure state of ``num_qubits`` qubits.

    Parameters
    ----------
    amplitudes : sequence of complex
        2**n amplitudes, unit L2 norm within 1e-10.  Use
        :meth:`normalized` to build from an unnormalized vector.
    """

    __slots__ = ("amplitudes", "num_qubits")

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        n = int(amps.size).bit_length() - 1
        if amps.size < 2 or amps.size != 2**n:
            raise ValueError("amplitude count must be a power of two, >= 2")
        peak = float(np.abs(amps).max())
        if not peak <= 1.0 + TOL:  # NaN, inf or too large: the norm could overflow
            raise ValueError(f"state norm is not 1 within {TOL}: amplitude of modulus {peak!r}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= TOL:
            raise ValueError(f"state norm {norm!r} is not 1 within {TOL}")
        amps.setflags(write=False)
        self.amplitudes = amps
        self.num_qubits = n

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(amps / norm)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qubit (read-only view)."""
        return self.amplitudes.reshape((2,) * self.num_qubits)

    def __repr__(self):
        return f"StateVector(num_qubits={self.num_qubits})"


def _check_density(m: np.ndarray) -> None:
    """Raise ValueError unless ``m`` (one matrix, or a stack of them along
    the leading axes) is finite, Hermitian, trace-1 and positive semidefinite
    within TOL: every eigenvalue >= -TOL, i.e. m + TOL*I has a Cholesky factor
    (one batched call; like an eigensolver it reads the lower triangle only)."""
    # NaN, inf and entries large enough to overflow the checks below stop
    # here; no matrix that passes them has an entry above 1 + (d + 2)*TOL
    if not np.abs(m).max() <= 2.0:
        raise ValueError("density matrix has an entry that is NaN or of modulus above 2")
    if not np.abs(m - m.conj().swapaxes(-1, -2)).max() <= TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = m.trace(axis1=-2, axis2=-1)
    err = np.abs(tr - 1.0)
    if not err.max() <= TOL:  # name the trace that misses 1 the most
        raise ValueError(f"density matrix trace {np.ravel(tr)[err.argmax()]!r} is not 1")
    try:
        np.linalg.cholesky(m + TOL * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        raise ValueError("density matrix has a negative eigenvalue") from None


def _check_norms(kets: np.ndarray) -> None:
    """Raise the ValueError of :class:`StateVector` unless every ket of the
    stack ``kets`` has unit norm within TOL."""
    # the norms of |kets| with each modulus capped at 2: a complex product
    # with an inf entry would warn and a huge entry would overflow, while a
    # ket with a modulus above 1 + TOL still gets a norm above it
    mags = np.minimum(np.abs(kets), 2.0)
    bad = ~(np.abs(np.linalg.norm(mags, axis=-1) - 1.0) <= TOL)
    if bad.any():
        StateVector(kets[bad.argmax()])  # raises the constructor's message


class DensityMatrix:
    """Mixed state: Hermitian, trace-1, positive semidefinite matrix."""

    __slots__ = ("matrix", "num_qubits")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        dim = m.shape[0]
        n = int(dim).bit_length() - 1
        if dim < 2 or dim != 2**n:
            raise ValueError("density matrix dimension must be a power of two")
        _check_density(m)
        m.setflags(write=False)
        self.matrix = m
        self.num_qubits = n

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        return cls(_density_array(state))

    def __repr__(self):
        return f"DensityMatrix(num_qubits={self.num_qubits})"


State = Union[StateVector, DensityMatrix]

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@lru_cache(maxsize=None)
def _pauli_word_matrix(letters: str) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for ch in letters:
        m = np.kron(m, _PAULI_1Q[ch])
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class PauliString:
    """Tensor word over {I, X, Y, Z} with a real coefficient, e.g. 'XXIZ'."""

    letters: str
    coefficient: float = 1.0

    def __post_init__(self):
        if not self.letters or any(ch not in "IXYZ" for ch in self.letters):
            raise ValueError(f"invalid Pauli word {self.letters!r}")
        if not (_is_number(self.coefficient) and math.isfinite(self.coefficient)):
            raise ValueError(
                f"coefficient must be a finite number, got {self.coefficient!r}"
            )

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    def matrix(self) -> np.ndarray:
        """Dense matrix of the word times the coefficient."""
        return self.coefficient * _pauli_word_matrix(self.letters)


@dataclass(frozen=True)
class SingleQubitGate:
    """A 2x2 unitary."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("gate matrix must be 2x2")
        # no entry of a unitary exceeds 1: NaN, inf and huge entries fail
        # before the product, which could overflow
        if not (np.abs(m).max() <= 1.0 + TOL and np.abs(m.conj().T @ m - np.eye(2)).max() <= TOL):
            raise ValueError("gate matrix is not unitary within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def hadamard() -> SingleQubitGate:
    """H = (X + Z)/sqrt(2)."""
    return SingleQubitGate((_PAULI_1Q["X"] + _PAULI_1Q["Z"]) / math.sqrt(2))


def rz(alpha: float) -> SingleQubitGate:
    """R_z(alpha) = exp(-i alpha Z / 2) for a finite angle alpha."""
    if not math.isfinite(alpha):  # before np.exp, which warns on inf
        raise ValueError(f"rz angle must be finite, got {alpha!r}")
    return SingleQubitGate(np.diag([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)]))


def pauli_x() -> SingleQubitGate:
    return SingleQubitGate(_PAULI_1Q["X"])


def pauli_z() -> SingleQubitGate:
    return SingleQubitGate(_PAULI_1Q["Z"])


# ---------------------------------------------------------------------------
# state construction helpers
# ---------------------------------------------------------------------------


def ket(bits: str) -> StateVector:
    """Computational basis state from a bit string, e.g. ket('0110')."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"invalid bit string {bits!r}")
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(amps)


def plus_state(num_qubits: int) -> StateVector:
    """|+>^n, the starting point of every cluster."""
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    dim = 2**num_qubits
    return StateVector(np.full(dim, 1.0 / math.sqrt(dim), dtype=complex))


def _check_qubit(state: State, qubit: int) -> None:
    if not 0 <= qubit < state.num_qubits:
        raise IndexError(f"qubit {qubit} out of range for {state.num_qubits} qubits")


# ---------------------------------------------------------------------------
# state arrays
# ---------------------------------------------------------------------------


def _array(state: State) -> np.ndarray:
    """The state's array: a ket axis, then a bra axis for a mixed state."""
    return state.amplitudes if isinstance(state, StateVector) else state.matrix


def _qubits(a: np.ndarray) -> int:
    """The qubit count of a state array."""
    return int(a.shape[0]).bit_length() - 1


def _state(array: np.ndarray) -> State:
    """The (checked) state whose array is ``array``; see :func:`_array`."""
    return StateVector(array) if array.ndim == 1 else DensityMatrix(array)


def _check_stack(stack: np.ndarray) -> None:
    """Each check of the public constructors, run once on a stack of
    same-shape state arrays with the same tolerance and message: the norms
    of kets, or :func:`_check_density`."""
    (_check_norms if stack.ndim == 2 else _check_density)(stack)


def _checked_states(arrays: Sequence[np.ndarray]) -> list:
    """The states of same-shape arrays, checked as one stack.

    The arrays are copied into one C-contiguous stack and checked by
    :func:`_check_stack`; each row is then wrapped in its class without a
    second check.
    """
    stack = np.array(arrays, dtype=complex)
    pure = stack.ndim == 2
    _check_stack(stack)
    stack.setflags(write=False)
    cls, field = (StateVector, "amplitudes") if pure else (DensityMatrix, "matrix")
    n = _qubits(stack[0])
    states = []
    for row in stack:
        state = object.__new__(cls)
        setattr(state, field, row)
        state.num_qubits = n
        states.append(state)
    return states


def _density_array(state: State) -> np.ndarray:
    """The state's density matrix, |a><a| for a pure state."""
    a = _array(state)
    return np.outer(a, a.conj()) if a.ndim == 1 else a


def _pairing(a: np.ndarray, op: np.ndarray, what: str) -> float:
    """tr(op rho) for the state array ``a``; ``op`` is a matrix, or a ket
    standing for its projector.  A ket ``a`` gives <a|op|a>."""
    if op.ndim == 1:
        val = abs(np.vdot(op, a)) ** 2 if a.ndim == 1 else np.vdot(op, a @ op)
    else:
        val = np.vdot(a, op @ a) if a.ndim == 1 else np.trace(op @ a)
    if abs(val.imag) > TOL:
        raise ArithmeticError(f"{what} has imaginary residue {val.imag!r}")
    return float(val.real)


def _rotated_diagonal(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Real diagonal of u rho u^dagger for the state array ``a`` (|u a|^2
    for a ket); a stack of matrices gives a stack of diagonals."""
    if a.ndim == 1:
        return np.abs(u @ a) ** 2
    return ((u @ a) * u.conj()).sum(axis=-1).real


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _gate_array(a: np.ndarray, qubit: int, u: np.ndarray) -> np.ndarray:
    """The 2x2 unitary ``u`` on one qubit of the state array ``a``,
    conjugating a density matrix: rho -> U rho U^dagger."""
    n = _qubits(a)
    t = a.reshape((2,) * (n * a.ndim))  # one axis per qubit and side
    for side in range(a.ndim):
        # np.tensordot's steps without its wrapper: axis first, np.dot, axis back
        axis = side * n + qubit
        front = t.transpose([axis] + [k for k in range(t.ndim) if k != axis])
        t = np.dot(u if side == 0 else u.conj(), front.reshape(2, -1)).reshape(front.shape)
        t = t.transpose(list(range(1, axis + 1)) + [0] + list(range(axis + 1, t.ndim)))
    return t.reshape(a.shape)


def _cphase_array(a: np.ndarray, qubit_j: int, qubit_k: int) -> np.ndarray:
    """CPhase between two distinct qubits of the state array ``a``."""
    n = _qubits(a)
    t = a.reshape((2,) * (n * a.ndim)).copy()
    for side in range(a.ndim):
        both = [slice(None)] * t.ndim  # the |11> block of this side
        both[side * n + qubit_j] = both[side * n + qubit_k] = 1
        t[tuple(both)] *= -1.0
    return t.reshape(a.shape)


def _swap_array(a: np.ndarray, qubit_a: int, qubit_b: int) -> np.ndarray:
    """The state array ``a`` with two distinct qubit labels exchanged."""
    n = _qubits(a)
    perm = list(range(n))
    perm[qubit_a], perm[qubit_b] = perm[qubit_b], perm[qubit_a]
    t = a.reshape((2,) * (n * a.ndim))  # one axis per qubit and side
    return t.transpose([s * n + p for s in range(a.ndim) for p in perm]).reshape(a.shape)


def apply_gate(state: State, qubit: int, gate: SingleQubitGate) -> State:
    """Apply a single-qubit gate to one tensor factor.

    Works on state vectors and density matrices (the latter are
    conjugated, rho -> U rho U^dagger).
    """
    _check_qubit(state, qubit)
    return _state(_gate_array(_array(state), qubit, gate.matrix))


def apply_cphase(state: State, qubit_j: int, qubit_k: int) -> State:
    """CPhase: |j>|k> -> (-1)^{jk} |j>|k> on the two given qubits."""
    _check_qubit(state, qubit_j)
    _check_qubit(state, qubit_k)
    if qubit_j == qubit_k:
        raise ValueError("CPhase needs two distinct qubits")
    return _state(_cphase_array(_array(state), qubit_j, qubit_k))


def swap_qubits(state: State, qubit_a: int, qubit_b: int) -> State:
    """Exchange two qubit labels (a wiring permutation, not a gate cost)."""
    _check_qubit(state, qubit_a)
    _check_qubit(state, qubit_b)
    if qubit_a == qubit_b:
        return state
    return _state(_swap_array(_array(state), qubit_a, qubit_b))


def expectation(state: State, observable: PauliString) -> float:
    """<P> on a pure or mixed state; the imaginary residue must vanish."""
    if observable.num_qubits != state.num_qubits:
        raise ValueError(
            f"observable acts on {observable.num_qubits} qubits, "
            f"state has {state.num_qubits}"
        )
    word = _pauli_word_matrix(observable.letters)
    return observable.coefficient * _pairing(_array(state), word, "expectation")


@lru_cache(maxsize=256)
def _split_coefficients(alpha: float, sides: int):
    """Per outcome, the coefficients of the split's blocks after the first:
    products of the bra's (1, +-e^{-i alpha}) over the sides, conjugated on
    the bra side, in index order with the ket index first."""
    phase = complex(np.exp(-1j * alpha))
    table = []
    for c in (phase, -phase):
        coefs = [1.0]
        for side_c in (c, c.conjugate())[:sides]:
            coefs = [y for x in coefs for y in (x, x * side_c)]
        table.append(tuple(coefs[1:]))
    return tuple(table)


def _branches(stack: np.ndarray, qubit: int, alpha: float):
    """Every possible outcome of a B(alpha) measurement of each state array
    in ``stack`` (same-shape arrays along a leading axis), from one split.

    Returns ``(kept, residuals)``: the (row, outcome, probability) of every
    outcome at or above the forced-outcome floor (1e-12), row by row with
    outcome 0 first, and the stack of their renormalized residual arrays in
    that order (None when no qubit remains).  Each side of a row contracts
    the qubit with the outcome's bra; the terms are summed in index order
    and scaled by 2**(-sides/2).  The weight of 0 is a matrix's trace, or a
    ket's squared norm taken row by row (a norm over the stack rounds
    differently).
    """
    rows, n, sides = len(stack), _qubits(stack[0]), stack.ndim - 1
    blocks = [stack.reshape((rows,) + (2,) * (n * sides))]
    for side in range(sides):
        # earlier sides have lost their measured axis already; take copies,
        # since numpy's arithmetic rounds differently on strided views
        axis = 1 + side * (n - 1) + qubit
        blocks = [block.take(k, axis=axis) for block in blocks for k in (0, 1)]
    if n == 1:  # one number per row, kept as numpy scalars: their products round unlike arrays'
        blocks = [np.array(list(block), dtype=object) for block in blocks]
    scale = 2 ** (sides / 2)
    branches = []
    for coefs in _split_coefficients(alpha, sides):
        branch = blocks[0]
        for coef, block in zip(coefs, blocks[1:]):
            branch = branch + coef * block
        branch = (branch / scale).astype(complex, copy=False)
        branches.append(branch.reshape((rows,) + (2 ** (n - 1),) * sides))
    if sides == 1:
        norm0 = [np.linalg.norm(row) for row in branches[0]]
        p0 = np.array([norm**2 for norm in norm0])
    else:
        p0 = branches[0].trace(axis1=1, axis2=2).real
    probs = np.array([p0, 1.0 - p0]).T
    kept_rows, outcomes = np.nonzero(probs >= _FORCED_MIN_WEIGHT)
    probs = probs[kept_rows, outcomes]
    kept = list(zip(kept_rows.tolist(), outcomes.tolist(), probs.tolist()))
    if n == 1:
        return kept, None
    picked = np.array(branches)[outcomes, kept_rows]
    if sides == 1:  # each ket by its own norm
        norms = [np.linalg.norm(branches[1][r]) if out else norm0[r] for r, out, _ in kept]
        return kept, picked / np.array(norms)[:, None]
    picked = picked / probs[:, None, None]
    picked = (picked + picked.conj().swapaxes(1, 2)) / 2.0  # remove Hermiticity drift
    traces = picked.trace(axis1=1, axis2=2).real
    # prob = 1 - p0 of a branch of weight ~1e-11 carries the cancellation
    # error of 1 - p0; such a block is scaled by its own trace instead
    # (scaling every block so would move the pinned tables by ulps)
    off = np.abs(traces - 1.0) > TOL
    picked[off] /= traces[off][:, None, None]
    return kept, picked


def _product_basis(bases: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of 2x2 matrices, qubit 0 first."""
    u = np.ones((1, 1), dtype=complex)
    for basis in bases:  # without np.kron's call overhead
        u = (u[:, None, :, None] * basis[None, :, None, :]).reshape(2 * len(u), 2 * len(u))
    return u


def _basis_probabilities(state: State, bases: Sequence[np.ndarray]) -> np.ndarray:
    """Born probabilities of reading every qubit in its own basis.

    ``bases[q]`` is a 2x2 unitary whose row k is the bra of outcome k on
    qubit q, so the probabilities are the diagonal of (x)U rho (x)U^dagger,
    indexed like basis states.
    """
    return _rotated_diagonal(_product_basis(bases), _array(state))


def _check_bit(outcome) -> None:
    """Raise ValueError unless ``outcome`` is the bit 0 or 1."""
    if not isinstance(outcome, (int, np.integer)) or outcome not in (0, 1):
        raise ValueError(f"forced outcome must be 0 or 1, got {outcome!r}")


def measure(state: State, qubit: int, basis_angle: float, outcome: int):
    """Measure one qubit in B(basis_angle) with a forced outcome.

    Parameters
    ----------
    state : StateVector or DensityMatrix
    qubit : int
    basis_angle : float
        alpha in radians; outcome 0 projects onto |alpha+>.
    outcome : int
        The forced bit, 0 or 1.

    Returns
    -------
    (outcome, probability, residual)
        The bit, its Born probability, and the renormalized residual, of
        the input's kind, on the remaining qubits in their original order
        (None when none remain).

    Raises
    ------
    ValueError
        If the outcome is not 0 or 1.
    ImpossibleOutcomeError
        If the outcome has projection weight below 1e-12.
    """
    _check_qubit(state, qubit)
    _check_bit(outcome)
    kept, residuals = _branches(_array(state)[None], qubit, basis_angle)
    for i, (_, out, prob) in enumerate(kept):
        if out == outcome:
            return out, prob, None if residuals is None else _state(residuals[i])
    raise ImpossibleOutcomeError(
        f"outcome {outcome} on qubit {qubit} has weight below {_FORCED_MIN_WEIGHT:.0e}"
    )


def fidelity(rho: State, target: StateVector) -> float:
    """<target| rho |target>, in [0, 1].  Pure rho gives |<target|rho>|^2."""
    if rho.num_qubits != target.num_qubits:
        raise ValueError("fidelity needs matching qubit counts")
    return _pairing(_array(rho), target.amplitudes, "fidelity")


def overlap(a: StateVector, b: StateVector) -> float:
    """|<a|b>| for comparisons that ignore global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("overlap needs matching qubit counts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def entanglement_entropy(state: StateVector, partition: Iterable[int]) -> float:
    """Von Neumann entropy (base 2) of the reduced state on ``partition``."""
    keep = sorted(set(int(q) for q in partition))
    n = state.num_qubits
    if not keep or len(keep) >= n:
        raise ValueError("partition must be a nonempty proper subset of the qubits")
    if keep[0] < 0 or keep[-1] >= n:
        raise IndexError("partition index out of range")
    rest = [q for q in range(n) if q not in keep]
    t = state.tensor().transpose(keep + rest)
    m = t.reshape(2 ** len(keep), 2 ** len(rest))
    rdm = m @ m.conj().T
    evals = np.linalg.eigvalsh(rdm)
    evals = evals[evals > 1e-12]
    return float(-np.sum(evals * np.log2(evals)))
