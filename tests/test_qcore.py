"""Unit tests for the state/gate/measurement core."""

import itertools
import math
import re

import numpy as np
import pytest

from onewaysim import qcore
from onewaysim.cluster import ClusterGraph, build_cluster
from onewaysim.mbqc import MeasurementPattern, run_pattern
from onewaysim.qcore import (
    DensityMatrix,
    ImpossibleOutcomeError,
    PauliString,
    StateVector,
    _check_density,
    entanglement_entropy,
    expectation,
    fidelity,
    overlap,
)

import oracles
from conftest import (
    as_density,
    ket,
    one_qubit_gate,
    plus,
    random_density,
    random_state,
    random_unitary,
)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def test_statevector_rejects_bad_shapes():
    with pytest.raises(ValueError):
        StateVector([1.0, 0.0, 0.0])  # not a power of two
    with pytest.raises(ValueError):
        StateVector([1.0])  # single amplitude
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])  # unnormalized
    # the amplitude bound is 1 + 1e-10 itself: at it the norm check speaks,
    # just above it the amplitude check
    with pytest.raises(ValueError, match=r"^state norm [\d.]+ is not 1 within 1e-10$"):
        StateVector([1.0 + 1e-10, 0.0])
    with pytest.raises(ValueError, match="amplitude of modulus"):
        StateVector([1.0 + 2e-10, 0.0])


def test_statevector_is_read_only():
    psi = ket("0")
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.5


def test_normalized_constructor():
    psi = StateVector.normalized([3.0, 4.0])
    assert np.allclose(psi.amplitudes, [0.6, 0.8])
    with pytest.raises(ValueError):
        StateVector.normalized([0.0, 0.0])


def test_tensor_view_shape():
    psi = plus(3)
    assert psi.tensor().shape == (2, 2, 2)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="density matrix must be square"):
        DensityMatrix(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3))  # dimension not a power of two
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    m = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        DensityMatrix(m)  # negative eigenvalue
    # the entry bound is 2 itself: just above it, the entry check speaks first
    with pytest.raises(ValueError, match="density matrix has an entry that is NaN or of modulus"):
        DensityMatrix([[1.0, 2.001], [2.001, 0.0]])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix([[2.0, 0.0], [0.0, -1.0]])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_constructors_reject_nan_and_inf(value):
    with pytest.raises(ValueError, match="state norm"):
        StateVector([value, 1.0])
    with pytest.raises(ValueError, match="state norm"):
        StateVector([value * 1j, 0.0])
    for matrix in (
        np.full((2, 2), value),
        [[0.5, value], [value, 0.5]],
        [[value, 0.0], [0.0, 0.5]],
    ):
        with pytest.raises(ValueError, match="density matrix has an entry that is NaN or of modulus"):
            DensityMatrix(matrix)
    # huge finite entries raise the check's error before any arithmetic overflows
    with pytest.raises(ValueError, match="state norm"):
        StateVector([1e200, 1.0])
    with pytest.raises(ValueError, match="density matrix has an entry that is NaN or of modulus"):
        DensityMatrix([[1e308, -1e308], [1e308, 0.0]])


def test_density_checks_cover_every_matrix_of_a_stack(rng):
    stack = np.stack([random_density(rng, 2).matrix for _ in range(5)])
    for m in stack:
        _check_density(m)  # each valid matrix passes
    for bad, message in (
        (np.eye(4), "trace"),
        (np.array(stack[0]) + np.triu(np.full((4, 4), 0.1j), 1), "Hermitian"),
        (np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), "negative eigenvalue"),
        (np.diag([1 + 2e-10, -2e-10, 0.0, 0.0]).astype(complex), "negative eigenvalue"),
    ):
        with pytest.raises(ValueError, match=message):
            _check_density(bad)
    # an eigenvalue of -5e-11 is within the tolerance
    _check_density(np.diag([1 + 5e-11, -5e-11, 0.0, 0.0]).astype(complex))
    # so are an asymmetry and a trace error of exactly 1e-10 (every sum and
    # modulus on the way is exact)
    assert DensityMatrix([[0.5, 1e-10], [0.0, 0.5]]).matrix[0, 1] == 1e-10
    assert np.trace(DensityMatrix(np.diag([0.5 + 5e-11j, 0.5 + 5e-11j])).matrix) == 1 + 1e-10j


def _spectrum_density(rng, dim, values):
    """A Hermitian matrix with eigenvalues ``values`` in a random basis."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    m = (q * values) @ q.conj().T
    return (m + m.conj().T) / 2.0


def _accepted(m) -> bool:
    try:
        _check_density(m)
    except ValueError as error:
        assert "negative eigenvalue" in str(error)
        return False
    return True


def test_density_check_verdict_matches_the_smallest_eigenvalue(rng):
    # reference: positive semidefinite within TOL means no eigenvalue below -TOL
    tol = qcore.TOL
    verdicts = set()
    for n in range(1, 5):
        dim = 2**n
        for rank in range(1, dim + 1):
            # rank positive eigenvalues; below full rank one more sits at
            # -TOL +- delta (delta >= 1e-14) or at 0, and the rest are 0
            deltas = np.concatenate([[1e-14], 10.0 ** rng.uniform(-14, -10, 3)])
            lows = [0.0] + [-tol + sign * d for sign in (-1, 1) for d in deltas]
            for low in lows if rank < dim else [0.0]:
                values = np.zeros(dim)
                values[:rank] = rng.uniform(0.1, 1.0, rank)
                values[rank:][:1] = low
                values[:rank] *= (1.0 - values[rank:].sum()) / values[:rank].sum()
                m = _spectrum_density(rng, dim, values)
                reference = np.linalg.eigvalsh(m).min() >= -tol
                assert reference == (low >= -tol)  # delta is far above rounding
                assert _accepted(m) == reference, (n, rank, low)
                verdicts.add(reference)
    assert verdicts == {True, False}


def _raised(fn, arg) -> str:
    with pytest.raises(ValueError) as caught:
        fn(arg)
    return str(caught.value)


def test_check_messages_print_plain_numbers():
    # the norm and the trace read as Python numbers, not numpy scalar reprs
    norm = "state norm 0.9055385138137417 is not 1 within 1e-10"
    trace = "density matrix trace (2+0j) is not 1"
    assert _raised(StateVector, [0.9, 0.1]) == norm
    assert _raised(DensityMatrix, np.eye(2)) == trace


def test_argument_checks_return_the_value_or_name_it():
    # a number comes back as a float, an integer as an int; a numpy scalar
    # counts as its Python value, and a bool is neither a number nor an int
    for value, want in ((3, 3.0), (np.float32(0.5), 0.5), (-2.5, -2.5)):
        assert type(qcore._check_finite(value, "x")) is float
        assert qcore._check_finite(value, "x") == want
    assert qcore._check_finite(1e-300, "x", positive=True) == 1e-300
    assert [qcore._check_unit(v, "x") for v in (0, 1, np.float64(0.25))] == [0.0, 1.0, 0.25]
    assert qcore._check_unit(-1, "x", -1.0) == -1.0
    assert qcore._check_integer(np.uint8(4), "x", 4) == 4
    assert qcore._check_integer(np.int64(7), "x", 4, 7) == 7
    assert qcore._check_integer(2**128 - 1, "x", 0, 2**128 - 1) == 2**128 - 1
    state = qcore.StateVector([0.0, 1.0])
    assert qcore._check_type(state, "x", qcore.StateVector) is state
    assert qcore._check_state(state, "x", 1) is state.amplitudes
    assert qcore._check_state(state, "x") is state.amplitudes
    assert qcore._check_member(np.str_("a"), "x", ("a",)) == "a"
    assert qcore._check_member(np.bool_(False), "x", (True, False)) is np.False_
    assert qcore._check_member(np.int8(1), "x", (0, 1)) == 1
    assert qcore._check_sequence(iter([1, 2]), "x", 2) == (1, 2)
    assert qcore._check_sequence([], "x") == ()
    refused = [
        (qcore._check_finite, (math.nan, "x"), "x must be a finite number, got nan"),
        (qcore._check_finite, (True, "x"), "x must be a finite number, got True"),
        (qcore._check_finite, (0.0, "x", True), "x must be a positive finite number, got 0.0"),
        (qcore._check_finite, (-7, "x", True), "x must be a positive finite number, got -7"),
        (qcore._check_unit, (1.5, "x"), "x must lie in [0, 1], got 1.5"),
        (qcore._check_unit, (-0.5, "x"), "x must lie in [0, 1], got -0.5"),
        (qcore._check_unit, (-1.5, "x", -1.0), "x must lie in [-1, 1], got -1.5"),
        (qcore._check_unit, ("0.5", "x"), "x must lie in [0, 1], got '0.5'"),
        (qcore._check_integer, (3, "x", 4), "x must be an integer >= 4, got 3"),
        (qcore._check_integer, (4.0, "x", 4), "x must be an integer >= 4, got 4.0"),
        (qcore._check_integer, (True, "x", 0), "x must be an integer >= 0, got True"),
        (qcore._check_integer, (8, "x", 4, 7), "x must be an integer in [4, 7], got 8"),
        (qcore._check_integer, (4.5, "x", 4, 7), "x must be an integer in [4, 7], got 4.5"),
        (qcore._check_type, (None, "x", qcore.StateVector), "x must be a StateVector, got None"),
        (qcore._check_state, ("s", "x", 1), "x must be a state of 1 qubits, got 's'"),
        (qcore._check_state, (1, "x"), "x must be a state, got 1"),
        (qcore._check_member, (1, "x", (True, False)), "x must be one of True, False, got 1"),
        (qcore._check_member, (True, "x", (0, 1)), "x must be one of 0, 1, got True"),
        (qcore._check_member, (["a"], "x", ("a", "b")), "x must be one of 'a', 'b', got ['a']"),
        (qcore._check_member, ("c", "x", ("a", "b")), "x must be one of 'a', 'b', got 'c'"),
        (qcore._check_sequence, (None, "x"), "x must be a sequence, got None"),
        (qcore._check_sequence, ("ab", "x", 2), "x must be a sequence of 2 items, got 'ab'"),
        (
            qcore._check_sequence,
            ((0, 1, 2), "x", 2),
            "x must be a sequence of 2 items, got (0, 1, 2)",
        ),
    ]
    # an int past Python's int-to-str limit (4300 digits) is shown by its
    # size, since repr cannot print it
    huge, shown = 16**4000, "an int of 16001 bits"
    refused += [
        (qcore._check_integer, (huge, "x", 0, 1), f"x must be an integer in [0, 1], got {shown}"),
        (qcore._check_finite, (huge, "x"), f"x must be a finite number, got {shown}"),
        (qcore._check_unit, (-huge, "x"), f"x must lie in [0, 1], got {shown}"),
        (
            qcore._check_member,
            ([huge], "x", ("a",)),
            "x must be one of 'a', got a list holding an int too long to print",
        ),
    ]
    for check, args, message in refused:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(*args)
    # an int no float holds is no finite number, and no unit value either
    for huge in (10**400, -(10**400)):
        with pytest.raises(ValueError, match="^x must be a finite number, got "):
            qcore._check_finite(huge, "x")
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\], got "):
            qcore._check_unit(huge, "x")


def test_ket_and_plus():
    assert np.allclose(ket("10").amplitudes, [0, 0, 1, 0])
    assert np.allclose(plus(2).amplitudes, [0.5] * 4)
    with pytest.raises(ValueError):
        ket("012")
    with pytest.raises(ValueError):
        plus(0)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def test_gate_constructors():
    # the package's Paulis and its one Hadamard: written out, bit for bit,
    # and H read-only
    assert list(qcore._PAULI_1Q) == list(oracles.PAULI)
    for letter, matrix in oracles.PAULI.items():
        assert np.array_equal(qcore._PAULI_1Q[letter], matrix)
    h = qcore._HADAMARD
    assert np.array_equal(h, oracles.HADAMARD) and not h.flags.writeable
    assert np.allclose(h @ h, np.eye(2))
    assert np.allclose(qcore._rz_matrix(0.0), np.eye(2))
    # Rz(pi) = -iZ
    assert np.allclose(qcore._rz_matrix(math.pi), -1j * oracles.PAULI["Z"])


def test_gate_kernel_single_qubit_placement():
    x = oracles.PAULI["X"]
    psi = one_qubit_gate(ket("00"), 1, x)
    assert np.allclose(psi.amplitudes, ket("01").amplitudes)
    psi = one_qubit_gate(ket("00"), 0, x)
    assert np.allclose(psi.amplitudes, ket("10").amplitudes)
    psi = one_qubit_gate(ket("000"), 1, x)
    assert np.allclose(psi.amplitudes, ket("010").amplitudes)


def test_gate_kernel_density_consistency(rng):
    # conjugating the density matrix must match the pure-state route
    for _ in range(10):
        psi = random_state(rng, 3)
        u = random_unitary(rng)
        qubit = int(rng.integers(3))
        pure = one_qubit_gate(psi, qubit, u)
        mixed = one_qubit_gate(as_density(psi), qubit, u)
        assert np.allclose(
            mixed.matrix, np.outer(pure.amplitudes, pure.amplitudes.conj())
        )


def test_cphase_basis_action():
    # CPhase enters only through build_cluster: an edge's cluster differs
    # from |+>^n by a sign on the basis states whose two ends read 1
    for n, edge in [(2, (0, 1)), (3, (0, 2)), (3, (1, 2))]:
        with_edge = build_cluster(ClusterGraph(n, (edge,))).amplitudes
        signs = oracles.cphase_chain(n, (edge,)) / oracles.cphase_chain(n, ())
        assert np.array_equal(with_edge / plus(n).amplitudes, signs)


def test_cphase_is_symmetric_and_validated():
    a = build_cluster(ClusterGraph(3, ((0, 2),)))
    b = build_cluster(ClusterGraph(3, ((2, 0),)))
    assert np.array_equal(a.amplitudes, b.amplitudes)
    with pytest.raises(ValueError):
        ClusterGraph(3, ((1, 1),))


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString("AB")


def test_expectation_known_values():
    psi = plus(1)
    assert expectation(psi, PauliString("X")) == pytest.approx(1.0)
    assert expectation(psi, PauliString("Z")) == pytest.approx(0.0)
    assert expectation(ket("1"), PauliString("Z")) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        expectation(psi, PauliString("XX"))


def test_expectation_bounds(rng):
    for _ in range(30):
        psi = random_state(rng, 3)
        word = "".join(rng.choice(list("IXYZ")) for _ in range(3))
        val = expectation(psi, PauliString(word))
        assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


def test_expectation_mixed_matches_pure(rng):
    for _ in range(10):
        psi = random_state(rng, 2)
        word = PauliString("XZ")
        assert expectation(as_density(psi), word) == pytest.approx(
            expectation(psi, word), abs=1e-12
        )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_word_and_fidelity_match_their_kronecker_oracles(n):
    # each letter's basis and sign, Y's included: a Y basis with its rows
    # swapped flips every word with an odd number of Ys
    rng = np.random.default_rng(113 + n)
    states = [make(rng, n) for make in (random_state, random_density) for _ in range(2)]
    for letters in itertools.product("IXYZ", repeat=n):
        matrix = oracles.kron(*(oracles.PAULI[letter] for letter in letters))
        for state in states:
            got = expectation(state, PauliString("".join(letters)))
            assert abs(got - oracles.expectation(qcore._array(state), matrix)) <= 1e-13
    for target in (random_state(rng, n), ket("1" * n), plus(n)):
        projector = np.outer(target.amplitudes, target.amplitudes.conj())
        for state in states:
            expected = oracles.expectation(qcore._array(state), projector)
            assert abs(fidelity(state, target) - expected) <= 1e-13


def test_each_pauli_basis_reads_its_letter_as_z():
    # row k of a letter's basis is the bra of eigenvalue (-1)**k: B P B^dagger = Z
    assert list(qcore._PAULI_BASES) == list(oracles.PAULI)
    for letter, basis in qcore._PAULI_BASES.items():
        z = oracles.PAULI["I" if letter == "I" else "Z"]
        np.testing.assert_allclose(basis @ oracles.PAULI[letter] @ basis.conj().T, z, atol=1e-15)
        assert not basis.flags.writeable
    assert qcore._PAULI_BASES["X"] is qcore._HADAMARD
    for letters in ("", "I", "Z", "XI", "IYZ", "XYZI"):
        keys = (format(i, f"0{len(letters)}b") for i in range(2 ** len(letters)))
        assert qcore._word_signs(letters).tolist() == [oracles.sign(letters, k) for k in keys]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _measure(state, qubit, alpha, bit):
    """One forced B(alpha) measurement: the branch (outcomes, probability,
    residual) of a one-step pattern that reads out every other qubit."""
    rest = tuple(q for q in range(state.num_qubits) if q != qubit)
    return run_pattern(state, MeasurementPattern(((qubit, alpha),), readout=rest), (bit,))


def test_measure_plus_in_b0_is_deterministic():
    outcomes, prob, residual = _measure(plus(1), 0, 0.0, 0)
    assert outcomes == (0,) and prob == pytest.approx(1.0)
    assert residual is None


def test_measure_b_pi_flips_the_deterministic_outcome():
    # |+> lies in the alpha=0 basis, so at alpha=pi it is the "minus" vector
    outcomes, prob, _ = _measure(plus(1), 0, math.pi, 1)
    assert outcomes == (1,) and prob == pytest.approx(1.0)
    with pytest.raises(ImpossibleOutcomeError):
        _measure(plus(1), 0, math.pi, 0)


def test_measure_forced_impossible_outcome():
    with pytest.raises(ImpossibleOutcomeError):
        _measure(plus(1), 0, 0.0, 1)


def test_measure_residual_keeps_qubit_order():
    # measure the middle qubit of |0>|+>|1>; the leftover must be |01>
    state = StateVector(
        np.kron(np.kron(ket("0").amplitudes, plus(1).amplitudes), ket("1").amplitudes)
    )
    outcomes, prob, residual = _measure(state, 1, 0.0, 0)
    assert outcomes == (0,) and prob == pytest.approx(1.0)
    assert np.allclose(np.abs(residual.amplitudes), ket("01").amplitudes)


# the per-array B(alpha) split that the stacked kernel qcore._branches
# replaced, kept as its reference: the stacked kernel must give each row's
# outcomes, probabilities and residuals bit for bit as this does alone


def _reference_weight(branch):
    """Weight of an unnormalized branch: squared norm of a ket, else trace."""
    if branch.ndim == 1:
        return float(np.linalg.norm(branch) ** 2)
    return float(np.trace(branch).real)


def _reference_renormalized(branch, prob):
    """A branch scaled to unit weight (a ket by its own norm)."""
    if branch.ndim == 1:
        return branch / np.linalg.norm(branch)
    block = branch / prob
    block = (block + block.conj().T) / 2.0
    trace = np.trace(block).real
    if abs(trace - 1.0) > qcore.TOL:
        block = block / trace
    return block


def _reference_split(a, qubit, alpha):
    """Both unnormalized branches of a B(alpha) measurement of the state
    array ``a``, and the weight of 0."""
    n, sides = qcore._qubits(a), a.ndim
    blocks = [a.reshape((2,) * (n * sides))]
    for side in range(sides):
        axis = side * (n - 1) + qubit
        blocks = [block.take(k, axis=axis) for block in blocks for k in (0, 1)]
    scale = 2 ** (sides / 2)
    branches = []
    for coefs in qcore._split_coefficients(alpha, sides):
        branch = blocks[0]
        for coef, block in zip(coefs, blocks[1:]):
            branch = branch + coef * block
        branches.append((branch / scale).reshape((2 ** (n - 1),) * sides))
    return branches, _reference_weight(branches[0])


def _reference_branches(a, qubit, alpha):
    """(outcome, probability, residual array or None) of every outcome of
    the state array ``a`` at or above the forced-outcome floor."""
    branches, p0 = _reference_split(a, qubit, alpha)
    return [
        (outcome, prob, None if qcore._qubits(a) == 1 else _reference_renormalized(branch, prob))
        for outcome, (prob, branch) in enumerate(zip((p0, 1.0 - p0), branches))
        if prob >= qcore._FORCED_MIN_WEIGHT
    ]


def _branch_weights(state, qubit, alpha):
    """(p0, p1) of a B(alpha) measurement, each the weight of its own branch."""
    (b0, b1), _ = _reference_split(qcore._array(state), qubit, alpha)
    return _reference_weight(b0), _reference_weight(b1)


def _eigen_rows(rng, num_qubits, qubit, alpha, kind):
    """States whose qubit sits in |alpha+> up to a white-noise weight w:
    outcome 1 has weight ~w/2, so w ~ 1e-11 takes the trace rescue and
    w ~ 1e-14 (or a pure row) falls below the floor."""
    rest = random_state(rng, num_qubits - 1).amplitudes if num_qubits > 1 else np.ones(1)
    plus = np.array([1.0, np.exp(1j * alpha)]) / math.sqrt(2)
    t = np.multiply.outer(plus, rest).reshape((2,) * num_qubits)
    psi = np.moveaxis(t, 0, qubit).reshape(-1)
    if kind == "pure":
        return [psi]
    dim = 2**num_qubits
    proj = np.outer(psi, psi.conj())
    return [(1 - w) * proj + w * np.eye(dim) / dim for w in (3e-11, 1e-11, 2e-12, 1e-14, 0.0)]


def test_stacked_split_equals_the_per_array_reference(rng):
    rescued = dropped = 0
    for num_qubits in (1, 2, 3, 4):
        for kind, make in (("pure", random_state), ("mixed", random_density)):
            for _ in range(6):
                qubit = int(rng.integers(num_qubits))
                alpha = float(rng.choice([0.0, math.pi, rng.uniform(-4.0, 4.0)]))
                rows = [qcore._array(make(rng, num_qubits)) for _ in range(3)]
                rows[1:1] = _eigen_rows(rng, num_qubits, qubit, alpha, kind)
                stack = np.array(rows)
                kept, residuals = qcore._branches(stack, qubit, alpha)
                want = [
                    (row, outcome, prob, residual)
                    for row, a in enumerate(rows)
                    for outcome, prob, residual in _reference_branches(a, qubit, alpha)
                ]
                assert kept == [branch[:3] for branch in want]
                if num_qubits == 1:
                    assert residuals is None
                    continue
                assert len(residuals) == len(want)
                for got, (row, outcome, prob, residual) in zip(residuals, want):
                    assert np.array_equal(got, residual)
                    if kind == "mixed":
                        block = _reference_split(rows[row], qubit, alpha)[0][outcome] / prob
                        rescued += abs(np.trace(block).real - 1.0) > qcore.TOL
                dropped += 2 * len(rows) - len(kept)
    assert rescued > 0 and dropped > 0  # both edge paths were taken


def test_row_norms_are_numpy_norms_bit_for_bit(rng):
    for length in (1, 2, 3, 8, 16, 33):
        for scale in (1e-9, 1.0, 3.0):
            kets = scale * (rng.normal(size=(2, 5, length)) + 1j * rng.normal(size=(2, 5, length)))
            want = [[np.linalg.norm(row) for row in block] for block in kets]
            assert qcore._row_norms(kets).tolist() == want


def test_measurement_probabilities_sum(rng):
    for _ in range(20):
        psi = random_state(rng, 3)
        alpha = float(rng.uniform(0, 2 * math.pi))
        p0, p1 = _branch_weights(psi, 1, alpha)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_measure_branch_decomposition(rng):
    # p0 * |b0><b0| + p1 * |b1><b1| tensored back must reproduce the marginal
    psi = random_state(rng, 2)
    alpha = 0.7
    p0, p1 = _branch_weights(psi, 0, alpha)
    _, q0, r0 = _measure(psi, 0, alpha, 0)
    _, q1, r1 = _measure(psi, 0, alpha, 1)
    assert (q0, q1) == pytest.approx((p0, p1))
    mix = p0 * np.outer(r0.amplitudes, r0.amplitudes.conj()) + p1 * np.outer(
        r1.amplitudes, r1.amplitudes.conj()
    )
    # compare against the partial trace over the measured qubit
    t = psi.tensor()
    marginal = np.einsum("ab,cb->ac", t.transpose(1, 0), t.transpose(1, 0).conj())
    assert np.allclose(mix, marginal)


def test_measure_mixed_matches_pure(rng):
    for _ in range(10):
        psi = random_state(rng, 3)
        rho = as_density(psi)
        alpha = float(rng.uniform(0, 2 * math.pi))
        p_pure = _branch_weights(psi, 2, alpha)
        p_mixed = _branch_weights(rho, 2, alpha)
        assert p_pure == pytest.approx(p_mixed, abs=1e-12)
        for branch in (0, 1):
            if p_pure[branch] < 1e-9:
                continue
            _, _, res_pure = _measure(psi, 2, alpha, branch)
            _, _, res_mixed = _measure(rho, 2, alpha, branch)
            assert np.allclose(
                res_mixed.matrix,
                np.outer(res_pure.amplitudes, res_pure.amplitudes.conj()),
                atol=1e-10,
            )
    # a mixed input against K rho K^dagger, K = <alpha +-| on the qubit
    for _ in range(10):
        rho = random_density(rng, 3)
        qubit = int(rng.integers(3))
        alpha = float(rng.uniform(0, 2 * math.pi))
        for branch in (0, 1):
            weight, want = oracles.projected(rho.matrix, qubit, alpha, branch)
            outcomes, prob, residual = _measure(rho, qubit, alpha, branch)
            assert outcomes == (branch,)
            assert prob == pytest.approx(weight, abs=1e-12)
            assert np.allclose(residual.matrix, want, atol=1e-12)


def test_measure_mixed_single_qubit():
    rho = DensityMatrix(np.eye(2) / 2)
    outcomes, prob, residual = _measure(rho, 0, 0.0, 0)
    assert outcomes == (0,) and prob == pytest.approx(0.5) and residual is None


def test_measurement_branches_equal_forced_measurements(rng):
    # both outcomes of one split (the walk's kernel) against one-step patterns
    for make in (random_state, random_density):
        for num_qubits in (1, 3):
            state = make(rng, num_qubits)
            qubit = int(rng.integers(num_qubits))
            alpha = float(rng.uniform(0, 2 * math.pi))
            kept, residuals = qcore._branches(qcore._array(state)[None], qubit, alpha)
            assert [b[:2] for b in kept] == [(0, 0), (0, 1)]
            for i, (_, outcome, prob) in enumerate(kept):
                forced_outcomes, forced_prob, forced = _measure(state, qubit, alpha, outcome)
                assert (forced_outcomes, forced_prob) == ((outcome,), prob)
                if forced is None:
                    assert residuals is None
                else:
                    assert np.array_equal(residuals[i], qcore._array(forced))


def test_measurement_branches_leave_out_impossible_outcomes():
    # |+> on qubit 1 never reads 1 in B(0)
    for state in (plus(2), as_density(plus(2))):
        kept, residuals = qcore._branches(qcore._array(state)[None], 1, 0.0)
        assert kept == [(0, 0, pytest.approx(1.0, abs=1e-12))] and len(residuals) == 1
        with pytest.raises(ImpossibleOutcomeError):
            _measure(state, 1, 0.0, 1)


def test_a_weight_exactly_at_the_floor_is_kept(monkeypatch):
    # with the floor at 2**-40, this state reads 0 in B(0) with weight
    # exactly 2**-40: each sum in the split is exact in binary
    floor = 2.0**-40
    monkeypatch.setattr(qcore, "_FORCED_MIN_WEIGHT", floor)
    rho = np.array([[0.5, floor - 0.5], [floor - 0.5, 0.5]], dtype=complex)
    kept, _ = qcore._branches(rho[None], 0, 0.0)
    assert kept == [(0, 0, floor), (0, 1, 1.0 - floor)]


@pytest.mark.parametrize("weight, kept", [(1.0005e-12, True), (0.9995e-12, False)])
def test_the_shipped_floor_keeps_a_weight_just_above_1e_12(weight, kept):
    # outcome 1 in B(0) of this ket has weight eps**2 / (1 + eps**2): the
    # weight to ~1e-24, within 1e-3 of the floor at 1e-12
    eps = math.sqrt(weight)
    psi = StateVector(np.array([1 + eps, 1 - eps]) / math.sqrt(2 * (1 + eps**2)))
    if kept:
        assert _measure(psi, 0, 0.0, 1)[:2] == ((1,), pytest.approx(weight, rel=1e-9))
    else:
        with pytest.raises(ImpossibleOutcomeError):
            _measure(psi, 0, 0.0, 1)


def test_outcome_sources():
    # a forced bit is the only outcome source
    psi = plus(1)
    assert _measure(psi, 0, 0.0, np.int64(0))[:2] == ((0,), pytest.approx(1.0))
    # a bool is no bit, though it equals one
    with pytest.raises(ValueError, match="^outcomes\\[0\\] must be one of 0, 1, got False$"):
        _measure(psi, 0, 0.0, False)
    with pytest.raises(ValueError):
        _measure(psi, 0, 0.0, 7)
    with pytest.raises(ValueError):
        _measure(psi, 0, 0.0, "zero")
    with pytest.raises(ValueError):
        _measure(psi, 0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def test_fidelity_and_overlap(rng):
    psi = random_state(rng, 2)
    assert fidelity(psi, psi) == pytest.approx(1.0)
    assert fidelity(as_density(psi), psi) == pytest.approx(1.0)
    phase = np.exp(1j * 0.3) * psi.amplitudes
    assert overlap(StateVector(phase), psi) == pytest.approx(1.0)
    rho = random_density(rng, 2)
    assert 0.0 <= fidelity(rho, psi) <= 1.0
    with pytest.raises(ValueError):
        fidelity(psi, plus(3))


def test_entanglement_entropy_product_and_bell():
    assert entanglement_entropy(ket("00"), [0]) == pytest.approx(0.0, abs=1e-12)
    bell = StateVector.normalized([1, 0, 0, 1])
    assert entanglement_entropy(bell, [0]) == pytest.approx(1.0)
    assert entanglement_entropy(bell, [1]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        entanglement_entropy(bell, [0, 1])
    # an index out of range (2 is the first past the register), or not an
    # integer, is named by its position, never truncated
    for bad in (5, 2, -1, 1.5, np.float64(0.0), True, "0", None):
        message = f"partition[1] must be an integer in [0, 1], got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entanglement_entropy(bell, [0, bad])
    assert entanglement_entropy(bell, (np.int64(1),)) == entanglement_entropy(bell, [1])


def test_entanglement_entropy_counts_eigenvalues_above_1e_12_only():
    # sqrt(1 - e)|00> + sqrt(e)|11>: the reduced state is diag(1 - e, e), and
    # e counts only above 1e-12 (sqrt(1e-12) squares back to 1e-12 exactly)
    for e, counted in ((1e-12, False), (1.0005e-12, True)):
        psi = StateVector([math.sqrt(1 - e), 0.0, 0.0, math.sqrt(e)])
        expected = -(1 - e) * math.log2(1 - e) - (e * math.log2(e) if counted else 0.0)
        assert entanglement_entropy(psi, [0]) == pytest.approx(expected, rel=1e-3)


def test_unitary_invariance_properties(rng):
    # norm preserved, entropy invariant under local unitaries
    for _ in range(10):
        psi = random_state(rng, 3)
        out = one_qubit_gate(psi, 1, random_unitary(rng))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0)
        assert entanglement_entropy(out, [0]) == pytest.approx(
            entanglement_entropy(psi, [0]), abs=1e-9
        )


