"""Unit tests for the state/gate/measurement core."""

import math

import numpy as np
import pytest

from onewaysim import qcore
from onewaysim.qcore import (
    DensityMatrix,
    ImpossibleOutcomeError,
    PauliString,
    SingleQubitGate,
    StateVector,
    _check_density,
    apply_cphase,
    apply_gate,
    entanglement_entropy,
    expectation,
    fidelity,
    hadamard,
    ket,
    measure,
    overlap,
    pauli_x,
    pauli_z,
    plus_state,
    rz,
    swap_qubits,
)

from conftest import random_density, random_state, random_unitary_gate


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
    psi = plus_state(3)
    assert psi.tensor().shape == (2, 2, 2)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3))  # dimension not a power of two
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    m = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        DensityMatrix(m)  # negative eigenvalue


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
        with pytest.raises(ValueError, match="not unitary"):
            SingleQubitGate(matrix)
    with pytest.raises(ValueError, match="rz angle must be finite"):
        rz(value)
    # huge finite entries raise the check's error before any arithmetic overflows
    with pytest.raises(ValueError, match="state norm"):
        StateVector([1e200, 1.0])
    with pytest.raises(ValueError, match="density matrix has an entry that is NaN or of modulus"):
        DensityMatrix([[1e308, -1e308], [1e308, 0.0]])
    with pytest.raises(ValueError, match="not unitary"):
        SingleQubitGate([[1e200, 0.0], [0.0, 1.0]])


def test_density_checks_cover_every_matrix_of_a_stack(rng):
    stack = np.stack([random_density(rng, 2).matrix for _ in range(5)])
    _check_density(stack)  # a valid stack passes
    for bad, message in (
        (np.eye(4), "trace"),
        (np.array(stack[0]) + np.triu(np.full((4, 4), 0.1j), 1), "Hermitian"),
        (np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), "negative eigenvalue"),
        (np.diag([1 + 2e-10, -2e-10, 0.0, 0.0]).astype(complex), "negative eigenvalue"),
    ):
        broken = stack.copy()
        broken[3] = bad
        with pytest.raises(ValueError, match=message):
            _check_density(broken)
    within = stack.copy()  # an eigenvalue of -5e-11 is within the tolerance
    within[3] = np.diag([1 + 5e-11, -5e-11, 0.0, 0.0])
    _check_density(within)


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
            stack = []
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
                stack.append(m)
            assert _accepted(np.array(stack)) == all(_accepted(m) for m in stack)
    assert verdicts == {True, False}


def _raised(fn, arg) -> str:
    with pytest.raises(ValueError) as caught:
        fn(arg)
    return str(caught.value)


def test_stacked_checks_raise_the_constructor_message_for_one_bad_member(rng):
    matrices = [random_density(rng, 2).matrix for _ in range(5)]
    for bad in (
        np.eye(4, dtype=complex),  # trace 4
        np.array(matrices[0]) + np.triu(np.full((4, 4), 0.1j), 1),  # not Hermitian
        np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex),  # negative eigenvalue
        np.full((4, 4), math.nan, dtype=complex),
        np.diag([math.inf, 0.0, 0.0, 0.0]).astype(complex),
        np.pad([[1e308, -1e308], [1e308, 0.0]], (0, 2)).astype(complex),  # huge, finite
    ):
        stack = matrices[:2] + [bad] + matrices[2:]
        assert _raised(qcore._checked_states, stack) == _raised(DensityMatrix, bad)
    kets = [random_state(rng, 2).amplitudes for _ in range(5)]
    for bad in (
        1.5 * kets[0],
        np.array([math.nan, 1, 0, 0]),
        np.array([math.inf, 0, 0, 0]),
        np.array([1e200, 1, 0, 0]),
    ):
        stack = kets[:3] + [bad.astype(complex)] + kets[3:]
        assert _raised(qcore._checked_states, stack) == _raised(StateVector, bad)


def test_stacked_checks_wrap_each_member_like_the_constructor(rng):
    for arrays, cls in (
        ([random_state(rng, 3).amplitudes for _ in range(4)], StateVector),
        ([random_density(rng, 2).matrix for _ in range(3)], DensityMatrix),
    ):
        states = qcore._checked_states(arrays)
        for state, array in zip(states, arrays):
            expected = cls(array)
            assert type(state) is cls and state.num_qubits == expected.num_qubits
            assert np.array_equal(qcore._array(state), qcore._array(expected))
            assert not qcore._array(state).flags.writeable


def test_density_matrix_from_state(rng):
    psi = random_state(rng, 2)
    rho = DensityMatrix.from_state(psi)
    assert np.allclose(rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def test_ket_and_plus():
    assert np.allclose(ket("10").amplitudes, [0, 0, 1, 0])
    assert np.allclose(plus_state(2).amplitudes, [0.5] * 4)
    with pytest.raises(ValueError):
        ket("012")
    with pytest.raises(ValueError):
        plus_state(0)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def test_gate_constructors():
    h = hadamard().matrix
    assert np.allclose(h @ h, np.eye(2))
    assert np.allclose(rz(0.0).matrix, np.eye(2))
    # Rz(pi) = -iZ
    assert np.allclose(rz(math.pi).matrix, -1j * pauli_z().matrix)
    with pytest.raises(ValueError):
        SingleQubitGate(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_apply_gate_single_qubit_placement():
    psi = apply_gate(ket("00"), 1, pauli_x())
    assert np.allclose(psi.amplitudes, ket("01").amplitudes)
    psi = apply_gate(ket("00"), 0, pauli_x())
    assert np.allclose(psi.amplitudes, ket("10").amplitudes)
    with pytest.raises(IndexError):
        apply_gate(ket("00"), 2, pauli_x())


def test_apply_gate_density_consistency(rng):
    # conjugating the density matrix must match the pure-state route
    for _ in range(10):
        psi = random_state(rng, 3)
        gate = random_unitary_gate(rng)
        qubit = int(rng.integers(3))
        pure = apply_gate(psi, qubit, gate)
        mixed = apply_gate(DensityMatrix.from_state(psi), qubit, gate)
        assert np.allclose(
            mixed.matrix, np.outer(pure.amplitudes, pure.amplitudes.conj())
        )


def test_cphase_basis_action():
    # only |11> on the touched pair picks up a sign
    for bits, sign in [("00", 1), ("01", 1), ("10", 1), ("11", -1)]:
        out = apply_cphase(ket(bits), 0, 1)
        assert np.allclose(out.amplitudes, sign * ket(bits).amplitudes)


def test_cphase_is_symmetric_and_validated(rng):
    psi = random_state(rng, 3)
    a = apply_cphase(psi, 0, 2)
    b = apply_cphase(psi, 2, 0)
    assert np.allclose(a.amplitudes, b.amplitudes)
    with pytest.raises(ValueError):
        apply_cphase(psi, 1, 1)


def test_swap_qubits_roundtrip(rng):
    psi = random_state(rng, 4)
    once = swap_qubits(psi, 1, 3)
    twice = swap_qubits(once, 1, 3)
    assert np.allclose(twice.amplitudes, psi.amplitudes)
    assert np.allclose(
        swap_qubits(ket("0100"), 1, 3).amplitudes, ket("0001").amplitudes
    )


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString("AB")
    for coefficient in (float("nan"), math.inf, True, "x", None):
        with pytest.raises(ValueError, match="coefficient"):
            PauliString("XZ", coefficient)
    assert np.allclose(
        PauliString("XZ", coefficient=2.0).matrix(),
        2.0 * np.kron([[0, 1], [1, 0]], [[1, 0], [0, -1]]),
    )


def test_expectation_known_values():
    plus = plus_state(1)
    assert expectation(plus, PauliString("X")) == pytest.approx(1.0)
    assert expectation(plus, PauliString("Z")) == pytest.approx(0.0)
    assert expectation(ket("1"), PauliString("Z")) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        expectation(plus, PauliString("XX"))


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
        assert expectation(DensityMatrix.from_state(psi), word) == pytest.approx(
            expectation(psi, word), abs=1e-12
        )


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def test_measure_plus_in_b0_is_deterministic():
    outcome, prob, residual = measure(plus_state(1), 0, 0.0, 0)
    assert outcome == 0 and prob == pytest.approx(1.0)
    assert residual is None


def test_measure_b_pi_flips_the_deterministic_outcome():
    # |+> lies in the alpha=0 basis, so at alpha=pi it is the "minus" vector
    outcome, prob, _ = measure(plus_state(1), 0, math.pi, 1)
    assert outcome == 1 and prob == pytest.approx(1.0)
    with pytest.raises(ImpossibleOutcomeError):
        measure(plus_state(1), 0, math.pi, 0)


def test_measure_forced_impossible_outcome():
    with pytest.raises(ImpossibleOutcomeError):
        measure(plus_state(1), 0, 0.0, 1)


def test_measure_residual_keeps_qubit_order():
    # measure the middle qubit of |0>|+>|1>; the leftover must be |01>
    state = StateVector(
        np.kron(np.kron(ket("0").amplitudes, plus_state(1).amplitudes), ket("1").amplitudes)
    )
    outcome, prob, residual = measure(state, 1, 0.0, 0)
    assert outcome == 0 and prob == pytest.approx(1.0)
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
    _, q0, r0 = measure(psi, 0, alpha, 0)
    _, q1, r1 = measure(psi, 0, alpha, 1)
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
        rho = DensityMatrix.from_state(psi)
        alpha = float(rng.uniform(0, 2 * math.pi))
        p_pure = _branch_weights(psi, 2, alpha)
        p_mixed = _branch_weights(rho, 2, alpha)
        assert p_pure == pytest.approx(p_mixed, abs=1e-12)
        for branch in (0, 1):
            if p_pure[branch] < 1e-9:
                continue
            _, _, res_pure = measure(psi, 2, alpha, branch)
            _, _, res_mixed = measure(rho, 2, alpha, branch)
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
            bra = np.array([1.0, (-1) ** branch * np.exp(-1j * alpha)]) / math.sqrt(2)
            factors = [np.eye(2)] * 3
            factors[qubit] = bra[None, :]
            k = np.kron(np.kron(factors[0], factors[1]), factors[2])
            r = k @ rho.matrix @ k.conj().T
            weight = np.trace(r).real
            outcome, prob, residual = measure(rho, qubit, alpha, branch)
            assert outcome == branch
            assert prob == pytest.approx(weight, abs=1e-12)
            assert np.allclose(residual.matrix, r / weight, atol=1e-12)


def test_measure_mixed_single_qubit():
    rho = DensityMatrix(np.eye(2) / 2)
    outcome, prob, residual = measure(rho, 0, 0.0, 0)
    assert outcome == 0 and prob == pytest.approx(0.5) and residual is None


def test_measurement_branches_equal_forced_measurements(rng):
    # both outcomes of one split (the walk's kernel) against forced measure
    for make in (random_state, random_density):
        for num_qubits in (1, 3):
            state = make(rng, num_qubits)
            qubit = int(rng.integers(num_qubits))
            alpha = float(rng.uniform(0, 2 * math.pi))
            kept, residuals = qcore._branches(qcore._array(state)[None], qubit, alpha)
            assert [b[:2] for b in kept] == [(0, 0), (0, 1)]
            for i, (_, outcome, prob) in enumerate(kept):
                forced_outcome, forced_prob, forced = measure(state, qubit, alpha, outcome)
                assert (forced_outcome, forced_prob) == (outcome, prob)
                if forced is None:
                    assert residuals is None
                else:
                    assert np.array_equal(residuals[i], qcore._array(forced))


def test_measurement_branches_leave_out_impossible_outcomes():
    # |+> on qubit 1 never reads 1 in B(0)
    for state in (plus_state(2), DensityMatrix.from_state(plus_state(2))):
        kept, residuals = qcore._branches(qcore._array(state)[None], 1, 0.0)
        assert kept == [(0, 0, pytest.approx(1.0, abs=1e-12))] and len(residuals) == 1
        with pytest.raises(ImpossibleOutcomeError):
            measure(state, 1, 0.0, 1)


def test_outcome_sources():
    # a forced bit is the only outcome source
    psi = plus_state(1)
    assert measure(psi, 0, 0.0, np.int64(0))[:2] == (0, pytest.approx(1.0))
    assert measure(psi, 0, 0.0, False)[:2] == (0, pytest.approx(1.0))
    with pytest.raises(ValueError):
        measure(psi, 0, 0.0, 7)
    with pytest.raises(ValueError):
        measure(psi, 0, 0.0, "zero")
    with pytest.raises(ValueError):
        measure(psi, 0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def test_fidelity_and_overlap(rng):
    psi = random_state(rng, 2)
    assert fidelity(psi, psi) == pytest.approx(1.0)
    assert fidelity(DensityMatrix.from_state(psi), psi) == pytest.approx(1.0)
    phase = np.exp(1j * 0.3) * psi.amplitudes
    assert overlap(StateVector(phase), psi) == pytest.approx(1.0)
    rho = random_density(rng, 2)
    assert 0.0 <= fidelity(rho, psi) <= 1.0
    with pytest.raises(ValueError):
        fidelity(psi, plus_state(3))


def test_entanglement_entropy_product_and_bell():
    assert entanglement_entropy(ket("00"), [0]) == pytest.approx(0.0, abs=1e-12)
    bell = StateVector.normalized([1, 0, 0, 1])
    assert entanglement_entropy(bell, [0]) == pytest.approx(1.0)
    assert entanglement_entropy(bell, [1]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        entanglement_entropy(bell, [0, 1])
    with pytest.raises(IndexError):
        entanglement_entropy(bell, [5])


def test_unitary_invariance_properties(rng):
    # norm preserved, entropy invariant under local unitaries
    for _ in range(10):
        psi = random_state(rng, 3)
        gate = random_unitary_gate(rng)
        out = apply_gate(psi, 1, gate)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0)
        assert entanglement_entropy(out, [0]) == pytest.approx(
            entanglement_entropy(psi, [0]), abs=1e-9
        )


