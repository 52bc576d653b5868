"""Dense complex linear algebra for small qubit registers.

States live in the computational basis with qubit 0 on the most
significant bit, so the amplitude of |q0 q1 ... q_{n-1}> sits at array
index q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.  Everything is exact
dense arithmetic; this module is meant for registers of at most six
qubits and favours clarity over asymptotic speed.

Every operation is written once for pure and mixed states: a state's
array has a ket axis, followed by a bra axis for a mixed state only, and
the gate and the B(alpha) split loop over the sides present.  Each is a
private kernel on arrays (``_gate_array`` on one array, ``_branches`` on
a stack of arrays); a frame map runs the gate kernel once per Hadamard
(``_HADAMARD``, the one gate a frame map applies), whose rounding the
search tables keep, and the measurement walks the split.  Every readout
is one matrix U whose rotated diagonal, of U rho U^dagger, one kernel
reads (``_rotated_diagonal``).  A Pauli word's U is its letters' bases
(``_PAULI_BASES``), and ``_word_signs`` weights each outcome by its
parity: that is ``expectation`` and the witness tables and signs.
``fidelity``'s U is the target's bra.  ``_array`` maps a state to its
array, and the constructors map arrays back.

A state is checked where it enters the library and where it leaves it:
the public constructors check every state they build (no NaN and no
entry too large for a state, which would overflow the later checks; unit
norm, or Hermitian, trace 1 and positive semidefinite: rho + 1e-10*I has
a Cholesky factor), and every state a public function returns is built
by them.  The library's own stages pass plain arrays to each other, left
unchecked: a frame change's steps, the levels of a measurement walk, and
the source, noisy source and targets that the search, gate and witness
pipelines build from constants and checked arguments.

Every argument of the library is checked by one family of checkers,
each returning the checked value or raising a ValueError "{name} must
be ..., got ...": ``_check_finite``, ``_check_unit``, ``_check_integer``,
``_check_member``, ``_check_type``, ``_check_sequence`` (which returns a
container's items as a tuple, and refuses a set or mapping where the
items' order matters), ``_check_numbers`` (a constructor's array, as a
new complex array) and ``_check_state`` (which returns the state's
array).  A check that relates values, or that looks inside one (a Pauli
word's letters, a table's sum), is written where it runs.

All operations are pure: they return new values and never mutate their
inputs.  Arrays stored inside returned objects are marked read-only, so
values can be shared freely between threads.

Measurements use the equatorial basis family

    B(alpha) = { |alpha+>, |alpha-> },   |alpha+-> = (|0> +- e^{i alpha}|1>)/sqrt(2)

with outcome 0 meaning a projection onto |alpha+>.  Its bras are one
table, ``_b_alpha_basis``, which the gate outputs and branch maps read.
One split, ``_branches``, gives both outcomes of such a measurement for
every state of a stack (a whole level of a measurement walk).  A single
forced measurement is a pattern of one step (see the mbqc module), whose
walk splits a stack of one.  There is no random outcome source: sampled
counts are drawn from exact tables (see the analysis module).  A readout
(above) is no measurement of this family.
"""

from __future__ import annotations

import math
import numbers
from collections import abc
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Optional, Sequence, Union

import numpy as np

# state and gate checks test ``not err <= TOL``, which NaN fails
TOL = 1e-10

_FORCED_MIN_WEIGHT = 1e-12


class ImpossibleOutcomeError(ValueError):
    """Raised when a forced measurement outcome has (near) zero weight."""


def _is_number(value) -> bool:
    """True for a real number, numpy's included; a bool is not one."""
    # a float or int passes before the numbers.Real check, an ABC check many times slower
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


# argument checks (see above); the CLI names a field "config field '<path>'"


def _shown(value) -> str:
    """``repr(value)``, unless that is past Python's int-to-str limit (4300 digits)."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an int too long to print"


def _check_finite(value, name: str, positive: bool = False) -> float:
    """``value`` as a float, once it is a finite real number (> 0 if
    ``positive``); NaN, +-inf and an int beyond the float range fail."""
    try:
        finite = _is_number(value) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not (finite and (value > 0 or not positive)):
        kind = "a positive finite" if positive else "a finite"
        raise ValueError(f"{name} must be {kind} number, got {_shown(value)}")
    return float(value)


def _check_unit(value, name: str, low: float = 0.0) -> float:
    """``value`` as a float, once it is a real number in [low, 1]."""
    if not (_is_number(value) and low <= value <= 1.0):
        raise ValueError(f"{name} must lie in [{low:g}, 1], got {_shown(value)}")
    return float(value)


def _check_integer(value, name: str, minimum: int, maximum: Optional[int] = None) -> int:
    """``value`` as an int, once it is an integer (numpy's included, a bool
    not) in [minimum, maximum], or >= ``minimum`` without a maximum."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if minimum <= int(value) <= (math.inf if maximum is None else maximum):
            return int(value)
    bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    raise ValueError(f"{name} must be an integer {bound}, got {_shown(value)}")


def _check_member(value, name: str, options: tuple):
    """``value``, once it is one of ``options``, which share one type, and of
    that type, a numpy scalar counting as its Python value: 1 is not True."""
    plain = value.item() if isinstance(value, np.generic) else value
    if type(plain) is not type(options[0]) or plain not in options:
        options_text = ", ".join(map(repr, options))
        raise ValueError(f"{name} must be one of {options_text}, got {_shown(value)}")
    return value


def _check_sequence(
    value, name: str, length: Optional[int] = None, ordered: bool = False
) -> tuple:
    """``value``'s items as a tuple, once it is an iterable other than a
    string (an iterator is read once), of ``length`` items if given.  An
    ``ordered`` one is no set, mapping or mapping view either, whose
    iteration order is no order of the caller's."""
    unordered = ordered and isinstance(value, (abc.Set, abc.Mapping, abc.MappingView))
    try:
        items = None if unordered or isinstance(value, (str, bytes)) else tuple(value)
    except TypeError:  # not iterable
        items = None
    if items is None or (length is not None and len(items) != length):
        size = "" if length is None else f" of {length} items"
        kind = "an ordered sequence" if ordered else "a sequence"
        raise ValueError(f"{name} must be {kind}{size}, got {_shown(value)}")
    return items


def _check_numbers(value, name: str) -> np.ndarray:
    """``value`` as a new complex array, once numpy reads it as an array of
    numbers (not ragged, and not of bools, objects or ints beyond int64)
    and no item is a bool: numpy reads a bool among numbers as a number,
    so the items of any argument but an array, whose dtype tells, are read."""
    try:
        array = np.array(value)
    except ValueError:  # ragged
        array = np.array(None)
    if array.dtype.kind not in "iufc" or (
        not isinstance(value, np.ndarray)
        and any(isinstance(item, (bool, np.bool_)) for item in np.array(value, dtype=object).flat)
    ):
        raise ValueError(f"{name} must be an array of numbers, got {_shown(value)}")
    return array.astype(complex, copy=False)


def _check_type(value, name: str, kind: type):
    """``value``, once it is an instance of the class ``kind``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {_shown(value)}")
    return value


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
        amps = _check_numbers(amplitudes, "amplitudes").reshape(-1)
        n = int(amps.size).bit_length() - 1
        if amps.size < 2 or amps.size != 2**n:
            raise ValueError("amplitude count must be a power of two, >= 2")
        peak = float(np.abs(amps).max())
        if not peak <= 1.0 + TOL:  # NaN, inf or too large: the norm could overflow
            raise ValueError(f"state norm is not 1 within {TOL}: amplitude of modulus {peak!r}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= TOL:
            raise ValueError(f"state norm {float(norm)!r} is not 1 within {TOL}")
        amps.setflags(write=False)
        self.amplitudes = amps
        self.num_qubits = n

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        amps = _check_numbers(amplitudes, "amplitudes").reshape(-1)
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
    """Raise ValueError unless the matrix ``m`` is finite, Hermitian, trace-1
    and positive semidefinite within TOL: every eigenvalue >= -TOL, i.e. m +
    TOL*I has a Cholesky factor (which, like eigvalsh, reads one triangle)."""
    # NaN, inf and entries large enough to overflow the checks below stop
    # here; no matrix that passes them has an entry above 1 + (d + 2)*TOL
    if not np.abs(m).max() <= 2.0:
        raise ValueError("density matrix has an entry that is NaN or of modulus above 2")
    if not np.abs(m - m.conj().T).max() <= TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = np.trace(m)
    if not abs(tr - 1.0) <= TOL:
        raise ValueError(f"density matrix trace {complex(tr)!r} is not 1")
    try:
        np.linalg.cholesky(m + TOL * np.eye(len(m)))
    except np.linalg.LinAlgError:
        raise ValueError("density matrix has a negative eigenvalue") from None


class DensityMatrix:
    """Mixed state: Hermitian, trace-1, positive semidefinite matrix."""

    __slots__ = ("matrix", "num_qubits")

    def __init__(self, matrix):
        m = _check_numbers(matrix, "matrix")
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

    def __repr__(self):
        return f"DensityMatrix(num_qubits={self.num_qubits})"


State = Union[StateVector, DensityMatrix]

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# H = (X + Z)/sqrt(2), read-only: the +/- analysis, each photon's beam
# splitter B(0) and the frame maps' local rotations are all this matrix
_HADAMARD = (_PAULI_1Q["X"] + _PAULI_1Q["Z"]) / math.sqrt(2)
_HADAMARD.setflags(write=False)

# letter -> its readout basis (read-only): row k is the bra of eigenvalue
# (-1)**k, so a qubit rotated by it reads the letter as Z; Y's is H S^dagger
_PAULI_BASES = {"I": np.eye(2, dtype=complex), "X": _HADAMARD, "Y": _HADAMARD * [1, -1j]}
_PAULI_BASES["Z"] = _PAULI_BASES["I"]
for _basis in _PAULI_BASES.values():
    _basis.setflags(write=False)


def _b_alpha_basis(alpha: float) -> np.ndarray:
    """B(alpha)'s bras (1, +-e^{-i alpha})/sqrt(2), row k for outcome k, unchecked."""
    phase = np.exp(-1j * alpha)
    return np.array([[1.0, phase], [1.0, -phase]]) / math.sqrt(2)


def _word_signs(letters: str) -> np.ndarray:
    """A Pauli word's +-1.0 eigenvalue on each outcome, in basis-index order:
    the Kronecker product of (1, 1) for each I and (1, -1) for each other letter."""
    return reduce(np.kron, ([1.0, 1.0 if ch == "I" else -1.0] for ch in letters), np.ones(1))


def _word_rotation(letters: str) -> np.ndarray:
    """A word's readout rotation, the product of its letters' bases (read-only)."""
    return _product_basis([_PAULI_BASES[ch] for ch in letters])


@dataclass(frozen=True)
class PauliString:
    """Tensor word over {I, X, Y, Z}, e.g. 'XXIZ'."""

    letters: str

    def __post_init__(self):
        if not _check_type(self.letters, "letters", str) or self.letters.strip("IXYZ"):
            raise ValueError(f"letters must be a word over I, X, Y, Z, got {self.letters!r}")


# ---------------------------------------------------------------------------
# state arrays
# ---------------------------------------------------------------------------


def _check_state(value, name: str, qubits: Optional[int] = None) -> np.ndarray:
    """The array of ``value``, once it is a StateVector or DensityMatrix, of
    ``qubits`` qubits if given; the constructors checked the rest."""
    is_state = isinstance(value, (StateVector, DensityMatrix))
    if not (is_state and qubits in (None, value.num_qubits)):
        size = "" if qubits is None else f" of {qubits} qubits"
        raise ValueError(f"{name} must be a state{size}, got {_shown(value)}")
    return _array(value)


def _array(state: State) -> np.ndarray:
    """The state's array: a ket axis, then a bra axis for a mixed state."""
    return state.amplitudes if isinstance(state, StateVector) else state.matrix


def _qubits(a: np.ndarray) -> int:
    """The qubit count of a state array."""
    return int(a.shape[0]).bit_length() - 1


def _density_array(state: State) -> np.ndarray:
    """The state's density matrix, |a><a| for a pure state."""
    a = _array(state)
    return np.outer(a, a.conj()) if a.ndim == 1 else a


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


def expectation(state: State, observable: PauliString) -> float:
    """<P> on a pure or mixed state: P's sign on each outcome, summed over
    the diagonal of the state rotated onto P's eigenbases."""
    letters = _check_type(observable, "observable", PauliString).letters
    a = _check_state(state, "state", len(letters))
    return float(_word_signs(letters) @ _rotated_diagonal(_word_rotation(letters), a))


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


def _row_norms(kets: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each ket along the last axis, bit for bit: norm
    sums re.re + im.im with numpy's 1-D dot, and a (1, L) @ (L, 1) matmul
    is that dot, called once for the whole stack."""
    re, im = kets.real[..., None, :], kets.imag[..., None, :]
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def _branches(stack: np.ndarray, qubit: int, alpha: float):
    """Every possible outcome of a B(alpha) measurement of each state array
    in ``stack`` (same-shape arrays along a leading axis), from one split.

    Returns ``(kept, residuals)``: the (row, outcome, probability) of every
    outcome at or above the forced-outcome floor (1e-12), row by row with
    outcome 0 first, and the stack of their renormalized residual arrays in
    that order (None when no qubit remains).  Each side of a row contracts
    the qubit with the outcome's bra; the terms are summed in index order
    and scaled by 2**(-sides/2).  The weight of 0 is a matrix's trace, or a
    ket's squared norm, each row's summed as :func:`np.linalg.norm` sums it
    (a norm along the stack's axis rounds differently).
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
    scale, shape = 2 ** (sides / 2), (rows,) + (2 ** (n - 1),) * sides
    branches, splits = [], _split_coefficients(alpha, sides)
    for coefs in splits if n > 1 else splits[:1]:  # a last qubit's weights need outcome 0 only
        branch = blocks[0]
        for coef, block in zip(coefs, blocks[1:]):
            branch = branch + coef * block
        branches.append((branch / scale).astype(complex, copy=False).reshape(shape))
    split = np.array(branches)
    if sides == 1:
        norms = _row_norms(split)
        p0 = [norm**2 for norm in norms[0].tolist()]
    else:
        p0 = branches[0].trace(axis1=1, axis2=2).real.tolist()
    kept = [
        (row, out, p)
        for row, w in enumerate(p0)
        for out, p in ((0, w), (1, 1.0 - w))
        if p >= _FORCED_MIN_WEIGHT
    ]
    if n == 1:
        return kept, None
    kept_rows, outcomes, probs = zip(*kept)
    picked = split[outcomes, kept_rows]
    if sides == 1:  # each ket by its own norm
        return kept, picked / norms[outcomes, kept_rows][:, None]
    picked = picked / np.array(probs)[:, None, None]
    picked = (picked + picked.conj().swapaxes(1, 2)) / 2.0  # remove Hermiticity drift
    traces = picked.trace(axis1=1, axis2=2).real
    # prob = 1 - p0 of a branch of weight ~1e-11 carries the cancellation
    # error of 1 - p0; such a block is scaled by its own trace instead
    # (scaling every block so would move the pinned tables by ulps)
    off = np.abs(traces - 1.0) > TOL
    picked[off] /= traces[off][:, None, None]
    return kept, picked


def _product_basis(bases: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of 2x2 matrices, qubit 0 first (read-only)."""
    u = np.ones((1, 1), dtype=complex)
    for basis in bases:  # without np.kron's call overhead
        u = (u[:, None, :, None] * basis[None, :, None, :]).reshape(2 * len(u), 2 * len(u))
    u.setflags(write=False)
    return u


def fidelity(rho: State, target: StateVector) -> float:
    """<target| rho |target>, in [0, 1]: the diagonal of rho rotated by the
    one-row matrix <target|.  Pure rho gives |<target|rho>|^2."""
    target = _check_type(target, "target", StateVector)
    a = _check_state(rho, "rho", target.num_qubits)
    return float(_rotated_diagonal(target.amplitudes.conj()[None], a)[0])


def overlap(a: StateVector, b: StateVector) -> float:
    """|<a|b>| for comparisons that ignore global phase."""
    _check_type(a, "a", StateVector)
    if a.num_qubits != _check_type(b, "b", StateVector).num_qubits:
        raise ValueError("overlap needs matching qubit counts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def entanglement_entropy(state: StateVector, partition: Iterable[int]) -> float:
    """Von Neumann entropy (base 2) of the reduced state on ``partition``."""
    n = _check_type(state, "state", StateVector).num_qubits
    keep = enumerate(_check_sequence(partition, "partition"))
    keep = sorted({_check_integer(q, f"partition[{i}]", 0, n - 1) for i, q in keep})
    if not keep or len(keep) >= n:
        raise ValueError("partition must be a nonempty proper subset of the qubits")
    rest = [q for q in range(n) if q not in keep]
    t = state.tensor().transpose(keep + rest)
    m = t.reshape(2 ** len(keep), 2 ** len(rest))
    rdm = m @ m.conj().T
    evals = np.linalg.eigvalsh(rdm)
    evals = evals[evals > 1e-12]
    return float(-np.sum(evals * np.log2(evals)))
