"""Dense complex linear algebra for small qubit registers.

States live in the computational basis with qubit 0 on the most
significant bit, so the amplitude of |q0 q1 ... q_{n-1}> sits at array
index q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.  Everything is exact
dense arithmetic; this module is meant for registers of at most six
qubits and favours clarity over asymptotic speed.

All operations are pure: they return new values and never mutate their
inputs.  Arrays stored inside returned objects are marked read-only, so
values can be shared freely between threads.

Measurements use the equatorial basis family

    B(alpha) = { |alpha+>, |alpha-> },   |alpha+-> = (|0> +- e^{i alpha}|1>)/sqrt(2)

with outcome 0 meaning a projection onto |alpha+>.  Z measurements are
not part of this family; readouts in any product basis (see the
photonics module) rotate each qubit's basis onto Z and read the
diagonal of the rotated state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Union

import numpy as np

TOL = 1e-10

_FORCED_MIN_WEIGHT = 1e-12


class ImpossibleOutcomeError(ValueError):
    """Raised when a forced measurement outcome has (near) zero weight."""


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
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > TOL:
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
    the leading axes) is Hermitian, trace-1 and positive semidefinite."""
    if np.abs(m - m.conj().swapaxes(-1, -2)).max() > TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = m.trace(axis1=-2, axis2=-1)
    if np.abs(tr - 1.0).max() > TOL:
        raise ValueError(f"density matrix trace {tr!r} is not 1")
    if np.linalg.eigvalsh(m).min() < -TOL:
        raise ValueError("density matrix has a negative eigenvalue")


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
        a = state.amplitudes
        return cls(np.outer(a, a.conj()))

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
        if not math.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")

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
        if np.max(np.abs(m.conj().T @ m - np.eye(2))) > TOL:
            raise ValueError("gate matrix is not unitary within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def hadamard() -> SingleQubitGate:
    """H = (X + Z)/sqrt(2)."""
    return SingleQubitGate((_PAULI_1Q["X"] + _PAULI_1Q["Z"]) / math.sqrt(2))


def rz(alpha: float) -> SingleQubitGate:
    """R_z(alpha) = exp(-i alpha Z / 2)."""
    return SingleQubitGate(np.diag([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)]))


def pauli_x() -> SingleQubitGate:
    return SingleQubitGate(_PAULI_1Q["X"])


def pauli_z() -> SingleQubitGate:
    return SingleQubitGate(_PAULI_1Q["Z"])


def identity_gate() -> SingleQubitGate:
    return SingleQubitGate(np.eye(2))


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
# operations
# ---------------------------------------------------------------------------


def apply_gate(state: State, qubit: int, gate: SingleQubitGate) -> State:
    """Apply a single-qubit gate to one tensor factor.

    Works on state vectors and density matrices (the latter are
    conjugated, rho -> U rho U^dagger).
    """
    _check_qubit(state, qubit)
    n = state.num_qubits
    u = gate.matrix
    if isinstance(state, StateVector):
        t = np.tensordot(u, state.tensor(), axes=([1], [qubit]))
        t = np.moveaxis(t, 0, qubit)
        return StateVector(t.reshape(-1))
    t = state.matrix.reshape((2,) * (2 * n))
    t = np.tensordot(u, t, axes=([1], [qubit]))
    t = np.moveaxis(t, 0, qubit)
    t = np.tensordot(u.conj(), t, axes=([1], [n + qubit]))
    t = np.moveaxis(t, 0, n + qubit)
    return DensityMatrix(t.reshape(2**n, 2**n))


def _cphase_signs(n: int, qubit_j: int, qubit_k: int) -> np.ndarray:
    b = np.arange(2**n)
    both = ((b >> (n - 1 - qubit_j)) & 1) & ((b >> (n - 1 - qubit_k)) & 1)
    return np.where(both == 1, -1.0, 1.0)


def apply_cphase(state: State, qubit_j: int, qubit_k: int) -> State:
    """CPhase: |j>|k> -> (-1)^{jk} |j>|k> on the two given qubits."""
    _check_qubit(state, qubit_j)
    _check_qubit(state, qubit_k)
    if qubit_j == qubit_k:
        raise ValueError("CPhase needs two distinct qubits")
    d = _cphase_signs(state.num_qubits, qubit_j, qubit_k)
    if isinstance(state, StateVector):
        return StateVector(state.amplitudes * d)
    return DensityMatrix(state.matrix * d[:, None] * d[None, :])


def swap_qubits(state: State, qubit_a: int, qubit_b: int) -> State:
    """Exchange two qubit labels (a wiring permutation, not a gate cost)."""
    _check_qubit(state, qubit_a)
    _check_qubit(state, qubit_b)
    if qubit_a == qubit_b:
        return state
    n = state.num_qubits
    perm = list(range(n))
    perm[qubit_a], perm[qubit_b] = perm[qubit_b], perm[qubit_a]
    if isinstance(state, StateVector):
        t = state.tensor().transpose(perm)
        return StateVector(t.reshape(-1))
    t = state.matrix.reshape((2,) * (2 * n))
    t = t.transpose(perm + [n + p for p in perm])
    return DensityMatrix(t.reshape(2**n, 2**n))


def expectation(state: State, observable: PauliString) -> float:
    """<P> on a pure or mixed state; the imaginary residue must vanish."""
    if observable.num_qubits != state.num_qubits:
        raise ValueError(
            f"observable acts on {observable.num_qubits} qubits, "
            f"state has {state.num_qubits}"
        )
    word = _pauli_word_matrix(observable.letters)
    if isinstance(state, StateVector):
        val = np.vdot(state.amplitudes, word @ state.amplitudes)
    else:
        val = np.trace(word @ state.matrix)
    if abs(val.imag) > TOL:
        raise ArithmeticError(f"expectation has imaginary residue {val.imag!r}")
    return observable.coefficient * float(val.real)


def _resolve_outcome(outcome_source, p0: float) -> int:
    """Turn an outcome source (forced bit, RNG, or callable) into a bit."""
    if isinstance(outcome_source, (bool, int, np.integer)):
        bit = int(outcome_source)
        if bit not in (0, 1):
            raise ValueError(f"forced outcome must be 0 or 1, got {outcome_source!r}")
        return bit
    if isinstance(outcome_source, np.random.Generator):
        return 0 if outcome_source.random() < p0 else 1
    if callable(outcome_source):
        bit = int(outcome_source(p0))
        if bit not in (0, 1):
            raise ValueError("outcome callable must return 0 or 1")
        return bit
    raise TypeError(
        "outcome_source must be a bit, a numpy Generator, or a callable of p0"
    )


def _branch_vectors(state: StateVector, qubit: int, alpha: float):
    """Unnormalized post-measurement amplitudes for outcomes 0 and 1."""
    t = state.tensor()
    a0 = np.take(t, 0, axis=qubit)
    a1 = np.take(t, 1, axis=qubit)
    phase = np.exp(-1j * alpha)
    b0 = (a0 + phase * a1) / math.sqrt(2)
    b1 = (a0 - phase * a1) / math.sqrt(2)
    return b0, b1


def measurement_probabilities(state: State, qubit: int, alpha: float):
    """Born probabilities (p0, p1) for a B(alpha) measurement."""
    _check_qubit(state, qubit)
    if isinstance(state, StateVector):
        b0, b1 = _branch_vectors(state, qubit, alpha)
        p0 = float(np.linalg.norm(b0) ** 2)
        p1 = float(np.linalg.norm(b1) ** 2)
        return p0, p1
    r0, r1 = _mixed_branches(state, qubit, alpha)
    return float(np.trace(r0).real), float(np.trace(r1).real)


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
    u = _product_basis(bases)
    if isinstance(state, StateVector):
        return np.abs(u @ state.amplitudes) ** 2
    return _rotated_diagonal(u, state.matrix)


def _rotated_diagonal(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Real diagonal of u rho u^dagger, for one matrix or a stack of them."""
    return ((u @ rho) * u.conj()).sum(axis=-1).real


def measure(state: StateVector, qubit: int, basis_angle: float, outcome_source):
    """Measure one qubit in B(basis_angle).

    Parameters
    ----------
    state : StateVector
    qubit : int
    basis_angle : float
        alpha in radians; outcome 0 projects onto |alpha+>.
    outcome_source : int, numpy Generator, or callable
        A forced bit, a random source, or a callable mapping p0 to a bit.

    Returns
    -------
    (outcome, probability, residual)
        The reported bit, its Born probability, and the renormalized
        state on the remaining qubits (None when none remain).  The
        residual keeps the surviving qubits in their original order.

    Raises
    ------
    ImpossibleOutcomeError
        If a forced outcome has projection weight below 1e-12.
    """
    if not isinstance(state, StateVector):
        raise TypeError("measure works on StateVector; use measure_mixed for mixed states")
    return _measure(state, qubit, basis_angle, outcome_source)


def _mixed_branches(rho: DensityMatrix, qubit: int, alpha: float):
    """Unnormalized post-measurement matrices for outcomes 0 and 1."""
    n = rho.num_qubits
    t = rho.matrix.reshape((2,) * (2 * n))
    r = {}
    for i in (0, 1):
        ti = np.take(t, i, axis=qubit)
        for j in (0, 1):
            # the bra-side axis shifts down by one once the ket axis is taken
            r[i, j] = np.take(ti, j, axis=n - 1 + qubit)
    phase = np.exp(-1j * alpha)
    out = []
    for s in (0, 1):
        sign = 1.0 if s == 0 else -1.0
        block = (
            r[0, 0]
            + sign * np.conj(phase) * r[0, 1]
            + sign * phase * r[1, 0]
            + r[1, 1]
        ) / 2.0
        out.append(block.reshape(2 ** (n - 1), 2 ** (n - 1)))
    return out[0], out[1]


def measure_mixed(rho: DensityMatrix, qubit: int, basis_angle: float, outcome_source):
    """B(alpha) measurement on a density matrix; see :func:`measure`."""
    return _measure(rho, qubit, basis_angle, outcome_source)


def measurement_branches(state: State, qubit: int, basis_angle: float):
    """Every possible outcome of a B(alpha) measurement, from one split.

    Returns the (outcome, probability, residual) triples that
    :func:`measure` or :func:`measure_mixed` give for each forced outcome,
    equal to them bit for bit, in outcome order; an outcome whose weight
    is below the forced-outcome floor (1e-12) is left out.
    """
    _check_qubit(state, qubit)
    branches, p0 = _split(state, qubit, basis_angle)
    return [
        _settle(state, qubit, outcome, branches[outcome], prob)
        for outcome, prob in enumerate((p0, 1.0 - p0))
        if prob >= _FORCED_MIN_WEIGHT
    ]


def _split(state: State, qubit: int, alpha: float):
    """Both unnormalized branches of a measurement, and the weight of 0."""
    if isinstance(state, StateVector):
        branches = _branch_vectors(state, qubit, alpha)
        return branches, float(np.linalg.norm(branches[0]) ** 2)
    branches = _mixed_branches(state, qubit, alpha)
    return branches, float(np.trace(branches[0]).real)


def _measure(state: State, qubit: int, basis_angle: float, outcome_source):
    _check_qubit(state, qubit)
    branches, p0 = _split(state, qubit, basis_angle)
    outcome = _resolve_outcome(outcome_source, p0)
    return _settle(state, qubit, outcome, branches[outcome], (p0, 1.0 - p0)[outcome])


def _settle(state: State, qubit: int, outcome: int, branch: np.ndarray, prob: float):
    """(outcome, probability, renormalized residual) of one branch."""
    if prob < _FORCED_MIN_WEIGHT:
        raise ImpossibleOutcomeError(
            f"outcome {outcome} on qubit {qubit} has weight {prob:.3e}"
        )
    if state.num_qubits == 1:
        return outcome, prob, None
    if isinstance(state, StateVector):
        return outcome, prob, StateVector.normalized(branch.reshape(-1))
    block = branch / prob
    block = (block + block.conj().T) / 2.0  # remove numerical Hermiticity drift
    return outcome, prob, DensityMatrix(block)


def fidelity(rho: State, target: StateVector) -> float:
    """<target| rho |target>, in [0, 1].  Pure rho gives |<target|rho>|^2."""
    if rho.num_qubits != target.num_qubits:
        raise ValueError("fidelity needs matching qubit counts")
    if isinstance(rho, StateVector):
        return float(abs(np.vdot(target.amplitudes, rho.amplitudes)) ** 2)
    val = np.vdot(target.amplitudes, rho.matrix @ target.amplitudes)
    if abs(val.imag) > TOL:
        raise ArithmeticError("fidelity has an imaginary residue")
    return float(val.real)


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
