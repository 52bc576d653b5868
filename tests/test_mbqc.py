"""Tests for measurement patterns, the two-qubit gates, the search
protocol, and the single-photon output discrimination."""

import itertools
import math

import numpy as np
import pytest

from onewaysim import qcore
from onewaysim.cluster import (
    BOX_GRAPH,
    HORSESHOE_GRAPH,
    build_cluster,
    c4_state,
    to_box_frame,
    to_horseshoe_frame,
)
from onewaysim.mbqc import (
    BELL_LABELS,
    GateOutputSpec,
    MeasurementPattern,
    bell_probabilities,
    box_gate,
    box_pattern,
    branch_distribution,
    grover_pattern,
    grover_run,
    horseshoe_gate,
    horseshoe_pattern,
    run_pattern,
)
from onewaysim.photonics import NoiseModel, apply_noise
from onewaysim.qcore import (
    DensityMatrix,
    ImpossibleOutcomeError,
    StateVector,
    apply_cphase,
    apply_gate,
    entanglement_entropy,
    fidelity,
    hadamard,
    overlap,
)

from conftest import random_density, random_state

GRID = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)
BRANCHES = ((0, 0), (0, 1), (1, 0), (1, 1))


# ---------------------------------------------------------------------------
# pattern plumbing
# ---------------------------------------------------------------------------


def test_pattern_validation():
    with pytest.raises(ValueError):
        MeasurementPattern(steps=())
    with pytest.raises(ValueError):
        MeasurementPattern(steps=((0, 0.0), (0, 1.0)))  # duplicate qubit
    with pytest.raises(ValueError):
        MeasurementPattern(steps=((0, 0.0),), readout=(0,))  # overlap
    with pytest.raises(ValueError):
        MeasurementPattern(steps=((0, float("nan")),))
    with pytest.raises(ValueError):
        MeasurementPattern(
            steps=((0, 0.0),), readout=(1,), feedforward=((0, (("Y", 1),)),)
        )
    with pytest.raises(ValueError):
        MeasurementPattern(
            steps=((0, 0.0),), readout=(1,), feedforward=((0, (("X", 0),)),)
        )
    with pytest.raises(ValueError):
        MeasurementPattern(
            steps=((0, 0.0),), readout=(1,), feedforward=((2, (("X", 1),)),)
        )


def test_run_pattern_register_checks(rng):
    psi = random_state(rng, 4)
    with pytest.raises(ValueError):
        run_pattern(psi, MeasurementPattern(steps=((0, 0.0),), readout=(1,)), [0])
    with pytest.raises(ValueError):
        run_pattern(psi, horseshoe_pattern(0.0, 0.0), [0])  # one bit, two steps
    with pytest.raises(TypeError):
        run_pattern(psi, horseshoe_pattern(0.0, 0.0), 0)  # bare int ambiguous


def test_run_pattern_records_step_order(rng):
    state = build_cluster(HORSESHOE_GRAPH)
    outcomes, prob, residual = run_pattern(state, horseshoe_pattern(0.3, 0.9), [0, 1])
    assert outcomes == (0, 1)
    assert residual.num_qubits == 2
    _, p1, rest = qcore.measure(state, 1, 0.3, 0)
    _, p2, _ = qcore.measure(rest, 1, 0.9, 1)
    assert prob == pytest.approx(p1 * p2)


def test_run_pattern_rejects_impossible_and_invalid_outcomes():
    # |+>|+> never reads 1 in B(0)
    pattern = MeasurementPattern(steps=((0, 0.0), (1, 0.0)))
    for state in (qcore.plus_state(2), DensityMatrix.from_state(qcore.plus_state(2))):
        assert run_pattern(state, pattern, (0, 0))[:2] == ((0, 0), pytest.approx(1.0))
        for bits in ((0, 1), (1, 0), (1, 1)):
            with pytest.raises(ImpossibleOutcomeError):
                run_pattern(state, pattern, bits)
        for bits in ((0, 2), (0, -1), (0, "1"), (0, 0.0)):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                run_pattern(state, pattern, bits)
        for bits in ((), (0,), (0, 0, 0)):
            with pytest.raises(ValueError, match="one forced outcome per step"):
                run_pattern(state, pattern, bits)


def test_branch_distribution_is_lexicographic_and_normalized():
    state = build_cluster(HORSESHOE_GRAPH)
    branches = branch_distribution(state, horseshoe_pattern(0.4, 1.3, feedforward=False))
    assert [b[0] for b in branches] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-12)
    # forced runs must agree branch by branch
    for bits, prob, residual in branches:
        _, forced_prob, res2 = run_pattern(
            state, horseshoe_pattern(0.4, 1.3, feedforward=False), list(bits)
        )
        assert forced_prob == pytest.approx(prob)
        assert np.allclose(res2.amplitudes, residual.amplitudes)


# ---------------------------------------------------------------------------
# two-qubit gates
# ---------------------------------------------------------------------------


def _cluster_for(kind: str) -> StateVector:
    graph = HORSESHOE_GRAPH if kind == "horseshoe" else BOX_GRAPH
    return build_cluster(graph)


def _pattern_for(kind: str, alpha: float, beta: float, feedforward: bool):
    fn = horseshoe_pattern if kind == "horseshoe" else box_pattern
    return fn(alpha, beta, feedforward=feedforward)


def _gate_for(kind: str, spec: GateOutputSpec) -> StateVector:
    return horseshoe_gate(spec) if kind == "horseshoe" else box_gate(spec)


@pytest.mark.parametrize("kind", ["horseshoe", "box"])
def test_gate_formula_matches_simulation(kind):
    state = _cluster_for(kind)
    for alpha in GRID:
        for beta in GRID:
            for s2, s3 in BRANCHES:
                pattern = _pattern_for(kind, alpha, beta, feedforward=False)
                _, prob, residual = run_pattern(state, pattern, [s2, s3])
                target = _gate_for(kind, GateOutputSpec(alpha, beta, s2, s3))
                assert fidelity(residual, target) == pytest.approx(1.0, abs=1e-10)
                assert prob == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("kind", ["horseshoe", "box"])
def test_feedforward_collapses_branches(kind):
    # corrected outputs coincide with the s2 = s3 = 0 branch up to the
    # global phase each measurement branch carries
    state = _cluster_for(kind)
    alpha, beta = 0.8, 2.1
    reference = _gate_for(kind, GateOutputSpec(alpha, beta, 0, 0))
    for s2, s3 in BRANCHES:
        _, _, residual = run_pattern(
            state, _pattern_for(kind, alpha, beta, feedforward=True), [s2, s3]
        )
        assert overlap(residual, reference) == pytest.approx(1.0, abs=1e-12)


def test_pattern_runs_on_density_matrices():
    state = _cluster_for("box")
    rho = DensityMatrix.from_state(state)
    pattern = box_pattern(0.5, 1.7, feedforward=False)
    _, _, pure = run_pattern(state, pattern, [1, 0])
    _, _, mixed = run_pattern(rho, pattern, [1, 0])
    assert np.allclose(
        mixed.matrix, np.outer(pure.amplitudes, pure.amplitudes.conj()), atol=1e-10
    )


def test_horseshoe_zero_angles_state():
    out = horseshoe_gate(GateOutputSpec(0.0, 0.0))
    assert np.allclose(out.amplitudes, np.array([1, 1, 1, -1]) / 2)


def test_horseshoe_output_is_always_maximally_entangled(rng):
    # the pattern enacts a controlled-phase on the encoded pair; local
    # rotations never change the Schmidt spectrum of CZ|++>
    for _ in range(10):
        alpha, beta = rng.uniform(0.0, 2 * math.pi, size=2)
        s2, s3 = int(rng.integers(2)), int(rng.integers(2))
        out = horseshoe_gate(GateOutputSpec(float(alpha), float(beta), s2, s3))
        assert entanglement_entropy(out, [0]) == pytest.approx(1.0, abs=1e-9)


def test_box_beta_zero_outputs_are_product(rng):
    for alpha in (*GRID, float(rng.uniform(0, 2 * math.pi))):
        for s2, s3 in BRANCHES:
            out = box_gate(GateOutputSpec(alpha, 0.0, s2, s3))
            assert entanglement_entropy(out, [0]) == pytest.approx(0.0, abs=1e-9)


def test_box_equal_angles_entangle():
    out = box_gate(GateOutputSpec(math.pi / 2, math.pi / 2))
    assert entanglement_entropy(out, [0]) == pytest.approx(1.0, abs=1e-9)


def test_box_alpha_pi_branches_are_orthogonal_products():
    pm = {"+": np.array([1, 1]) / math.sqrt(2), "-": np.array([1, -1]) / math.sqrt(2)}
    expected = {(0, 0): "+-", (0, 1): "--", (1, 0): "++", (1, 1): "-+"}
    states = {}
    for (s2, s3), label in expected.items():
        out = box_gate(GateOutputSpec(math.pi, 0.0, s2, s3))
        target = StateVector(np.kron(pm[label[0]], pm[label[1]]).astype(complex))
        assert overlap(out, target) == pytest.approx(1.0, abs=1e-10)
        states[(s2, s3)] = out
    keys = list(states)
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            assert overlap(states[a], states[b]) == pytest.approx(0.0, abs=1e-10)


def test_gate_output_spec_validation():
    with pytest.raises(ValueError):
        GateOutputSpec(0.0, 0.0, s2=2)
    with pytest.raises(ValueError):
        GateOutputSpec(float("inf"), 0.0)


# ---------------------------------------------------------------------------
# four-entry search
# ---------------------------------------------------------------------------


def test_grover_pattern_shape():
    pattern = grover_pattern("10")
    assert [q for q, _ in pattern.steps] == [1, 2, 0, 3]
    assert pattern.readout == ()
    with pytest.raises(ValueError):
        grover_pattern("2")


def test_search_identifies_every_mark():
    for marked in ("00", "01", "10", "11"):
        dist = grover_run(marked, feedforward=True)
        assert dist[marked] == pytest.approx(1.0, abs=1e-12)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_search_without_feedforward_is_uninformative():
    for marked in ("00", "01", "10", "11"):
        dist = grover_run(marked, feedforward=False)
        for value in dist.values():
            assert value == pytest.approx(0.25, abs=1e-12)


def test_search_no_feedforward_stays_uniform_under_noise():
    # the readout marginals carry no single-qubit coherence, so even a
    # noisy register leaves the uncorrected answer uniform
    noisy = apply_noise(c4_state(), NoiseModel(0.1, 0.2, 0.3))
    dist = grover_run("01", feedforward=False, input_state=noisy)
    for value in dist.values():
        assert value == pytest.approx(0.25, abs=1e-10)


def test_search_success_under_white_noise():
    # an answer bit pair flips whenever the white-noise branch draws one
    # of the 3 non-matching pairs: success = 1 - 3p/4
    p = 0.06675
    noisy = apply_noise(c4_state(), NoiseModel(0.0, 0.0365925529065094, p))
    for marked in ("00", "11"):
        dist = grover_run(marked, feedforward=True, input_state=noisy)
        assert dist[marked] == pytest.approx(1.0 - 0.75 * p, abs=1e-9)


def test_search_argument_errors():
    with pytest.raises(ValueError):
        grover_run("22")
    with pytest.raises(ValueError):
        grover_run("00", input_state=StateVector(np.array([1.0, 0.0], dtype=complex)))


def _lab_distribution(marked):
    """Distribution of the raw detector bits 'z1 z2 z3 z4' for one oracle choice.

    A readout at B(pi) reports lab bit 1 xor outcome; an oracle qubit is
    read at B(0) when its mark bit is set (lab bit = outcome), else at
    B(pi), so only the labelling the black box reports depends on the mark.
    """
    m1, m2 = int(marked[0]), int(marked[1])
    out = {}
    for outcomes, prob, _ in branch_distribution(to_box_frame(c4_state()), grover_pattern(marked)):
        s_b2, s_b3, s_b1, s_b4 = outcomes
        key = f"{1 ^ s_b1}{s_b3 ^ (1 - m2)}{s_b2 ^ (1 - m1)}{1 ^ s_b4}"
        out[key] = out.get(key, 0.0) + prob
    return out


def test_lab_clicks_do_not_reveal_the_mark():
    # the physical apparatus is the same for every oracle choice
    reference = _lab_distribution("00")
    assert sum(reference.values()) == pytest.approx(1.0, abs=1e-12)
    for marked in ("01", "10", "11"):
        other = _lab_distribution(marked)
        assert set(other) == set(reference)
        for key, value in reference.items():
            assert other[key] == pytest.approx(value, abs=1e-12)


def test_lab_distribution_rejects_other_registers():
    for state in (
        StateVector(np.array([1.0, 0.0], dtype=complex)),
        StateVector(np.full(32, 32**-0.5, dtype=complex)),
    ):
        with pytest.raises(ValueError, match="search input must be a four-qubit state"):
            grover_run("00", input_state=state)


# the prefix-sharing walk against an independent sequential run of each
# branch: chained forced measurements, then the byproducts gate by gate,
# the way every branch used to be computed.  Equal bit for bit, so the
# exact search tables and the counts drawn from them are unchanged

MARKS = ("00", "01", "10", "11")
CORRECTIONS = {"X": qcore.pauli_x(), "Z": qcore.pauli_z()}


def _forced_branches(state, pattern):
    branches = []
    for bits in itertools.product((0, 1), repeat=len(pattern.steps)):
        live, current, probs = list(range(state.num_qubits)), state, []
        try:
            for (qubit, alpha), bit in zip(pattern.steps, bits):
                _, prob, current = qcore.measure(current, live.index(qubit), alpha, bit)
                live.remove(qubit)
                probs.append(prob)
        except ImpossibleOutcomeError:
            continue
        corrections = pattern.correction_map()
        for (qubit, _), bit in zip(pattern.steps, bits):
            if bit:
                for letter, target in corrections.get(qubit, ()):
                    current = apply_gate(current, pattern.readout.index(target), CORRECTIONS[letter])
        branches.append((bits, float(math.prod(probs)), current))
    return branches


def _assert_same_branches(got, want):
    assert [(bits, prob) for bits, prob, _ in got] == [(bits, prob) for bits, prob, _ in want]
    for (_, _, a), (_, _, b) in zip(got, want):
        if b is None:
            assert a is None
        elif isinstance(b, StateVector):
            assert np.array_equal(a.amplitudes, b.amplitudes)
        else:
            assert np.array_equal(a.matrix, b.matrix)


def _oracle_inputs(seed):
    """Pure and mixed four-qubit inputs: the ideal, edge and random noisy
    clusters, plus random states that break the cluster's symmetries."""
    rng = np.random.default_rng(seed)
    ideal = c4_state()
    states = [ideal, DensityMatrix.from_state(ideal)]
    models = [NoiseModel(0.0, 0.0, 1.0), NoiseModel(1.0, 0.0, 0.0), NoiseModel(0.0, 1.0, 0.0)]
    models += [NoiseModel(*(float(v) for v in rng.uniform(0.0, 1.0, size=3))) for _ in range(4)]
    states += [apply_noise(ideal, model) for model in models]
    states += [random_state(rng, 4) for _ in range(2)]
    states += [random_density(rng, 4) for _ in range(2)]
    return states


def test_branch_distribution_equals_forced_runs():
    rng = np.random.default_rng(41)
    for state in _oracle_inputs(41):
        box = to_box_frame(state)
        for marked in MARKS:
            pattern = grover_pattern(marked)
            _assert_same_branches(
                branch_distribution(box, pattern), _forced_branches(box, pattern)
            )
        alpha, beta = (float(v) for v in rng.uniform(-math.pi, math.pi, size=2))
        for frame, pattern_fn in ((to_horseshoe_frame, horseshoe_pattern), (to_box_frame, box_pattern)):
            for feedforward in (True, False):
                pattern = pattern_fn(alpha, beta, feedforward=feedforward)
                mapped = frame(state)
                _assert_same_branches(
                    branch_distribution(mapped, pattern), _forced_branches(mapped, pattern)
                )


def test_branch_distribution_checks_the_register():
    with pytest.raises(ValueError, match="pattern qubits do not match"):
        branch_distribution(
            build_cluster(BOX_GRAPH), MeasurementPattern(steps=((1, 0.0),), readout=(0,))
        )


def test_exact_search_equals_forced_branch_sums():
    for state in _oracle_inputs(43):
        box = to_box_frame(state)
        for marked in MARKS:
            branches = _forced_branches(box, grover_pattern(marked))
            for feedforward in (True, False):
                oracle = {m: 0.0 for m in MARKS}
                for (s_b2, s_b3, s_b1, s_b4), prob, _ in branches:
                    if feedforward:
                        oracle[f"{s_b2 ^ s_b4}{s_b1 ^ s_b3}"] += prob
                    else:
                        oracle[f"{1 ^ s_b4}{1 ^ s_b1}"] += prob
                assert grover_run(marked, feedforward, state) == oracle


# ---------------------------------------------------------------------------
# output discrimination
# ---------------------------------------------------------------------------


def test_bell_probabilities_normalized(rng):
    for _ in range(10):
        psi = random_state(rng, 2)
        probs = bell_probabilities(psi)
        assert set(probs) == set(BELL_LABELS)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        bell_probabilities(random_state(rng, 3))


def _oracle_bell_probabilities(state):
    """The projector path: CPhase, beam splitter, then +/- times Z projectors."""
    pm = (np.full((2, 2), 0.5, dtype=complex), np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex))
    z = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    probe = apply_cphase(state, 0, 1)
    probe = apply_gate(probe, 1, hadamard())
    probs = {}
    for i, pol in enumerate("+-"):
        for j, port in enumerate("+-"):
            proj = np.kron(pm[i], z[j])
            if isinstance(probe, StateVector):
                value = np.vdot(probe.amplitudes, proj @ probe.amplitudes).real
            else:
                value = np.trace(proj @ probe.matrix).real
            probs[pol + port] = float(max(value, 0.0))
    return probs


def test_bell_probabilities_match_projector_oracle(rng):
    states = [random_state(rng, 2) for _ in range(5)] + [random_density(rng, 2) for _ in range(5)]
    for state in states:
        got = bell_probabilities(state)
        expected = _oracle_bell_probabilities(state)
        assert list(got) == list(expected)
        assert list(got.values()) == pytest.approx(list(expected.values()), abs=1e-12)


def test_bell_discriminates_the_four_gate_outputs():
    # horseshoe outputs at alpha = beta = 0 are the four orthogonal
    # entangled states of the encoded pair; one interferometer tells
    # them apart deterministically
    expected = {}
    for s2, s3 in BRANCHES:
        state = horseshoe_gate(GateOutputSpec(0.0, 0.0, s2, s3))
        probs = bell_probabilities(state)
        label = max(probs, key=probs.get)
        assert probs[label] == pytest.approx(1.0, abs=1e-12)
        expected[(s2, s3)] = label
    assert sorted(expected.values()) == sorted(BELL_LABELS)
    assert expected == {(0, 0): "++", (0, 1): "-+", (1, 0): "+-", (1, 1): "--"}


def test_bell_discriminate_mixed_input():
    state = horseshoe_gate(GateOutputSpec(0.0, 0.0, 1, 0))
    rho = DensityMatrix.from_state(state)
    assert bell_probabilities(rho)["+-"] == pytest.approx(1.0, abs=1e-12)


def test_mixed_search_checks_every_intermediate_state_once_per_stack(monkeypatch):
    sizes = []
    check = qcore._check_density

    def counted(matrices):
        sizes.append(1 if matrices.ndim == 2 else len(matrices))
        check(matrices)

    monkeypatch.setattr(qcore, "_check_density", counted)
    noisy = apply_noise(c4_state(), NoiseModel(0.0, 0.0365925529065094, 0.1))
    grover_run("10", True, noisy)
    # the noisy source, the five frame-map steps, then the residuals of the
    # first three walk levels: 20 matrices, one per intermediate state, in
    # 5 calls
    assert sizes == [1, 5, 2, 4, 8]


def test_pure_search_checks_as_many_kets_as_one_call_each_would(monkeypatch):
    ideal = c4_state()
    constructed, stacked = [], []
    init, check = StateVector.__init__, qcore._check_norms

    def counted_init(self, amplitudes):
        constructed.append(1)
        init(self, amplitudes)

    def counted_norms(kets):
        stacked.append(len(kets))
        check(kets)

    monkeypatch.setattr(StateVector, "__init__", counted_init)
    monkeypatch.setattr(qcore, "_check_norms", counted_norms)
    grover_run("10", True, ideal)
    # 15 kets, as in one constructor call per intermediate state
    assert constructed == [] and stacked == [5, 2, 4, 4]
