"""Tests for measurement patterns, the two-qubit gates, the search
protocol, and the single-photon output discrimination."""

import itertools
import math

import numpy as np
import pytest

from onewaysim import mbqc, qcore
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
    entanglement_entropy,
    fidelity,
    overlap,
)

import closed_forms
from conftest import HADAMARD, as_density, one_qubit_gate, plus, random_density, random_state

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
    for angle in (True, "x", None):
        with pytest.raises(ValueError, match="angle"):
            MeasurementPattern(steps=((0, angle),))
    # ints no float holds: named, not an OverflowError from math.isfinite
    for angle in (10**400, -(10**400)):
        with pytest.raises(ValueError, match="^steps: angle of qubit 1 must be finite"):
            MeasurementPattern(steps=((0, 0.5), (1, angle)))
        with pytest.raises(ValueError, match="^alpha must be a finite number"):
            GateOutputSpec(angle, 0.0)
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
    # a step listed twice: one of its corrections would be dropped
    with pytest.raises(ValueError, match="feedforward key 1 is listed more than once"):
        MeasurementPattern(((1, 0.3),), (0, 2, 3), ((1, (("X", 0),)), (1, (("Z", 2),))))
    with pytest.raises(ValueError, match="feedforward key 0 is listed more than once"):
        MeasurementPattern(((0, 0.0), (1, 0.0)), (2,), ((1, ()), (0, ()), (0, ())))


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
    p1, rest = _forced_measure(state, 1, 0.3, 0)
    p2, _ = _forced_measure(rest, 1, 0.9, 1)
    assert prob == pytest.approx(p1 * p2)


def test_run_pattern_rejects_impossible_and_invalid_outcomes():
    # |+>|+> never reads 1 in B(0)
    pattern = MeasurementPattern(steps=((0, 0.0), (1, 0.0)))
    for state in (plus(2), as_density(plus(2))):
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
    rho = as_density(state)
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
    for name in ("s2", "s3"):
        for bit in (True, np.bool_(True), 1.0, "1", None, np.int64(2), -1):
            with pytest.raises(ValueError, match=name):
                GateOutputSpec(0.0, 0.0, **{name: bit})
    # numpy integer bits act as ints, down to the gate output's last bit
    for s2, s3 in BRANCHES:
        spec = GateOutputSpec(0.3, -1.1, np.int64(s2), np.int8(s3))
        plain = GateOutputSpec(0.3, -1.1, s2, s3)
        assert spec == plain
        assert np.array_equal(box_gate(spec).amplitudes, box_gate(plain).amplitudes)


def _written_rz(t):
    """R_z(t) = diag(e^{-i t/2}, e^{i t/2}), written out."""
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def _with_written_rz(kind, spec):
    """A gate output built from the written-out R_z: byproducts times
    A C B^T, with A = H Rz(-alpha) and B = H Rz(-beta)."""
    a, b = (HADAMARD @ _written_rz(-t) for t in (spec.alpha, spec.beta))
    target = a @ mbqc._CZ_PLUS @ b.T
    if kind == "box":
        target[1, 1] = -target[1, 1]
    return mbqc._GATES[kind][1][2 * spec.s2 + spec.s3] @ target.reshape(4)


def test_gate_outputs_skip_the_gate_check_and_keep_every_bit(rng):
    angles = rng.uniform(-4 * math.pi, 4 * math.pi, size=(40, 2)).tolist()
    angles += [[0.0, 0.0], [math.pi, -math.pi], [1e-300, 1e12]]
    for t in np.ravel(angles):
        assert np.array_equal(qcore._rz_matrix(t), _written_rz(t))
    specs = [GateOutputSpec(a, b, s2, s3) for a, b in angles for s2, s3 in BRANCHES]
    expected = {kind: [_with_written_rz(kind, s) for s in specs] for kind in mbqc._GATES}
    for kind, build in (("horseshoe", horseshoe_gate), ("box", box_gate)):
        for spec, want in zip(specs, expected[kind]):
            assert np.array_equal(build(spec).amplitudes, want)


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
        assert dist[marked] == pytest.approx(closed_forms.search_probability(marked, marked, True, p), abs=1e-9)


def test_search_argument_errors():
    with pytest.raises(ValueError):
        grover_run("22")
    with pytest.raises(ValueError):
        grover_run("00", input_state=StateVector(np.array([1.0, 0.0], dtype=complex)))
    # an unhashable or non-string mark fails like any other unknown one
    for marked in (["0", "0"], {"00": 1}, None, 0, b"00"):
        with pytest.raises(ValueError, match="marked element must be one of"):
            grover_run(marked)
    for flag in ("no", None, 0, 1, np.int64(1), 1.0):
        for state in (None, c4_state()):
            with pytest.raises(ValueError, match="feedforward must be a bool"):
                grover_run("00", flag, state)


def _hex(distribution):
    return [(mark, float.hex(value)) for mark, value in distribution.items()]


def test_ideal_search_reads_the_walk_bit_for_bit():
    for marked in MARKS:
        for feedforward in (True, False, np.bool_(True), np.bool_(False)):
            walked = _hex(grover_run(marked, feedforward, c4_state()))
            assert _hex(grover_run(marked, feedforward)) == walked
            assert _hex(grover_run(np.str_(marked), feedforward)) == walked


def test_every_search_call_walks_its_input(monkeypatch):
    # no search result is kept between calls: each call walks the box-frame
    # array it was given, and a returned dict is the caller's own
    walks = []
    walk = mbqc._walk

    def counted(a, pattern):
        walks.append((a.shape, pattern))
        return walk(a, pattern)

    monkeypatch.setattr(mbqc, "_walk", counted)
    noisy = apply_noise(c4_state(), NoiseModel(0.0, 0.0365925529065094, 0.1))
    for state in (None, c4_state(), noisy):
        for marked in MARKS:
            first = grover_run(marked, True, state)
            expected = _hex(first)
            first[marked] = -1.0
            assert _hex(grover_run(marked, True, state)) == expected
    shapes = ((16,), (16,), (16, 16))
    assert walks == [(s, grover_pattern(m)) for s in shapes for m in MARKS for _ in range(2)]


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


# the prefix-sharing walk against two independent sequential runs of each
# branch: chained forced measurements, then the byproducts gate by gate.
# The first splits each state as a stack of one with the walk's kernel, the
# way every branch used to be computed; equal bit for bit, so the exact
# search tables and the counts drawn from them are unchanged.  The second
# projects with bras written out here and reads no private kernel; it
# agrees within 1e-12

MARKS = ("00", "01", "10", "11")
# the byproduct Paulis, written out
CORRECTIONS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _forced_measure(state, qubit, alpha, bit):
    """One forced B(alpha) measurement, (probability, residual): a stack of
    one split by the walk's kernel and the bit's branch taken."""
    kept, residuals = qcore._branches(qcore._array(state)[None], qubit, alpha)
    for i, (_, out, prob) in enumerate(kept):
        if out == bit:
            return prob, None if residuals is None else type(state)(residuals[i])
    raise ImpossibleOutcomeError(f"outcome {bit} on qubit {qubit} has weight below 1e-12")


def _projected(state, qubit, alpha, bit):
    """One forced B(alpha) measurement, (probability, residual), through the
    bra (1, +-e^{-i alpha})/sqrt(2) on the qubit: the weight is the squared
    norm or the trace of the projected branch, which is then renormalized."""
    bra = np.array([1.0, (-1) ** bit * np.exp(-1j * alpha)]) / math.sqrt(2)
    n = state.num_qubits
    if isinstance(state, StateVector):
        branch = np.tensordot(bra, state.tensor(), axes=(0, qubit)).reshape(-1)
        weight = float(np.linalg.norm(branch) ** 2)
    else:
        k = np.kron(np.kron(np.eye(2**qubit), bra[None, :]), np.eye(2 ** (n - 1 - qubit)))
        branch = k @ state.matrix @ k.conj().T
        weight = float(np.trace(branch).real)
    if weight < 1e-12:
        raise ImpossibleOutcomeError(f"outcome {bit} on qubit {qubit} has weight {weight:.1e}")
    if n == 1:
        return weight, None
    if isinstance(state, StateVector):
        return weight, StateVector(branch / np.linalg.norm(branch))
    branch = branch / weight
    return weight, DensityMatrix((branch + branch.conj().T) / 2.0)


def _sequential_branches(state, pattern, measure):
    """Every branch (bits, probability, residual) of the pattern in
    lexicographic order, each run alone with the forced measurement
    ``measure``; a branch with a step below its floor is left out."""
    branches = []
    for bits in itertools.product((0, 1), repeat=len(pattern.steps)):
        live, current, probs = list(range(state.num_qubits)), state, []
        try:
            for (qubit, alpha), bit in zip(pattern.steps, bits):
                prob, current = measure(current, live.index(qubit), alpha, bit)
                live.remove(qubit)
                probs.append(prob)
        except ImpossibleOutcomeError:
            continue
        corrections = dict(pattern.feedforward)
        for (qubit, _), bit in zip(pattern.steps, bits):
            if bit:
                for letter, target in corrections.get(qubit, ()):
                    position = pattern.readout.index(target)
                    current = one_qubit_gate(current, position, CORRECTIONS[letter])
        branches.append((bits, float(math.prod(probs)), current))
    return branches


def _forced_branches(state, pattern):
    return _sequential_branches(state, pattern, _forced_measure)


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
    states = [ideal, as_density(ideal)]
    models = [NoiseModel(0.0, 0.0, 1.0), NoiseModel(1.0, 0.0, 0.0), NoiseModel(0.0, 1.0, 0.0)]
    models += [NoiseModel(*(float(v) for v in rng.uniform(0.0, 1.0, size=3))) for _ in range(4)]
    # near-ideal noise: walk rows of weight ~1e-11 take the trace rescue
    models += [NoiseModel(a, 0.0, w) for w in (1e-12, 1e-10, 1e-9) for a in (0.0, w)]
    states += [apply_noise(ideal, model) for model in models]
    states += [random_state(rng, 4) for _ in range(2)]
    states += [random_density(rng, 4) for _ in range(2)]
    return states


def _random_feedforward_patterns(rng):
    """Seeded patterns with feedforward, three for each count of 1-3 steps
    and 1-3 readout qubits, with qubits and steps in random order: one where
    each step corrects a random list of readout targets, listed in random
    order; one where a single step puts X then Z on one target (the order
    flips a ket's sign); and one where every step corrects that target,
    alternating Z and X."""
    patterns = []
    for num_steps, num_readout in itertools.product((1, 2, 3), repeat=2):
        qubits = rng.permutation(num_steps + num_readout).tolist()
        step_qubits, readout = qubits[:num_steps], qubits[num_steps:]
        steps = tuple(zip(step_qubits, rng.uniform(-math.pi, math.pi, size=num_steps).tolist()))
        lists = [
            (q, tuple((str(rng.choice(["X", "Z"])), int(rng.choice(readout))) for _ in range(size)))
            for q, size in zip(step_qubits, rng.integers(1, 4, size=num_steps).tolist())
        ]
        target = int(rng.choice(readout))
        for feedforward in (
            tuple(lists[i] for i in rng.permutation(num_steps)),
            ((step_qubits[-1], (("X", target), ("Z", target))),),
            tuple((q, (("ZX"[k % 2], target),)) for k, q in enumerate(step_qubits)),
        ):
            patterns.append(MeasurementPattern(steps, tuple(readout), feedforward))
    return patterns


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
    for pattern in _random_feedforward_patterns(rng):
        n = len(pattern.steps) + len(pattern.readout)
        for state in (random_state(rng, n), random_density(rng, n)):
            _assert_same_branches(
                branch_distribution(state, pattern), _forced_branches(state, pattern)
            )


def test_branch_distribution_matches_projector_runs():
    rng = np.random.default_rng(41)
    for state in _oracle_inputs(41):
        patterns = [(to_box_frame, grover_pattern(marked)) for marked in MARKS]
        alpha, beta = (float(v) for v in rng.uniform(-math.pi, math.pi, size=2))
        for frame, pattern_fn in ((to_horseshoe_frame, horseshoe_pattern), (to_box_frame, box_pattern)):
            patterns += [(frame, pattern_fn(alpha, beta, feedforward=ff)) for ff in (True, False)]
        for frame, pattern in patterns:
            mapped = frame(state)
            got = branch_distribution(mapped, pattern)
            want = _sequential_branches(mapped, pattern, _projected)
            assert [bits for bits, _, _ in got] == [bits for bits, _, _ in want]
            for (_, prob, residual), (_, oracle_prob, oracle) in zip(got, want):
                assert prob == pytest.approx(oracle_prob, rel=0.0, abs=1e-12)
                assert type(residual) is type(oracle)
                if oracle is not None:
                    assert np.allclose(qcore._array(residual), qcore._array(oracle), rtol=0.0, atol=1e-12)


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
    cz, a = np.diag([1.0, 1.0, 1.0, -1.0]), qcore._array(state)
    probe = type(state)(cz @ a if a.ndim == 1 else cz @ a @ cz)
    probe = one_qubit_gate(probe, 1, HADAMARD)
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
        assert sum(probs.values()) - probs[label] == pytest.approx(0.0, abs=1e-12)
        expected[(s2, s3)] = label
    assert sorted(expected.values()) == sorted(BELL_LABELS)
    assert expected == {(0, 0): "++", (0, 1): "-+", (1, 0): "+-", (1, 1): "--"}


def test_bell_discriminate_mixed_input():
    state = horseshoe_gate(GateOutputSpec(0.0, 0.0, 1, 0))
    rho = as_density(state)
    assert bell_probabilities(rho)["+-"] == pytest.approx(1.0, abs=1e-12)


def test_run_pattern_checks_the_residual_it_returns(monkeypatch, rng):
    # no level of the walk is checked, so a faulty split must still meet
    # the returned residual's constructor, with its message
    out = []
    branches = mbqc._branches

    def doubled(stack, qubit, alpha):
        kept, residuals = branches(stack, qubit, alpha)
        out.append(2.0 * residuals)
        return kept, out[-1]

    monkeypatch.setattr(mbqc, "_branches", doubled)
    pattern = MeasurementPattern(((1, 0.3),), readout=(0, 2, 3))
    for state, prefix in (
        (c4_state(), "state norm"),
        (random_state(rng, 4), "state norm"),
        (random_density(rng, 4), "density matrix trace"),
    ):
        with pytest.raises(ValueError) as caught:
            run_pattern(state, pattern, (1,))
        assert str(caught.value).startswith(prefix)
        with pytest.raises(ValueError) as expected:
            type(state)(out[-1][0])  # every branch is built, outcome 0 first
        assert str(caught.value) == str(expected.value)


def _count_checks(monkeypatch, calls):
    """Record every state constructor call and every density check in ``calls``."""
    ket_init, density_init = StateVector.__init__, DensityMatrix.__init__
    check = qcore._check_density

    def counted_ket(self, amplitudes):
        calls.append("ket")
        ket_init(self, amplitudes)

    def counted_density(self, matrix):
        calls.append("density")
        density_init(self, matrix)

    def counted_check(m):
        calls.append(("check", m.shape))
        check(m)

    monkeypatch.setattr(StateVector, "__init__", counted_ket)
    monkeypatch.setattr(DensityMatrix, "__init__", counted_density)
    monkeypatch.setattr(qcore, "_check_density", counted_check)


def test_mixed_search_builds_no_intermediate_state(monkeypatch):
    calls = []
    _count_checks(monkeypatch, calls)
    noisy = apply_noise(c4_state(), NoiseModel(0.0, 0.0365925529065094, 0.1))
    assert calls == ["ket", "density", ("check", (16, 16))]  # the inputs, where they enter
    calls.clear()
    # the box frame and the walk's levels stay arrays, and the search
    # measures every qubit, so no state is built, let alone checked
    for feedforward in (True, False):
        grover_run("10", feedforward, noisy)
    assert calls == []


def test_pure_search_builds_no_intermediate_state(monkeypatch):
    calls = []
    _count_checks(monkeypatch, calls)
    ideal = c4_state()
    assert calls == ["ket"]
    calls.clear()
    for state in (ideal, None):  # None reads the cluster's constant amplitudes
        grover_run("10", True, state)
    assert calls == []
