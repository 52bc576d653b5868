"""Tests for measurement patterns, the two-qubit gates, the search
protocol, and the single-photon output discrimination."""

import itertools
import math
import re

import numpy as np
import pytest

from onewaysim import mbqc, qcore
from onewaysim.analysis import witness_value
from onewaysim.cluster import (
    BOX_GRAPH,
    HORSESHOE_GRAPH,
    build_cluster,
    c4_state,
    stabilizer_generators,
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
    ImpossibleOutcomeError,
    PauliString,
    StateVector,
    entanglement_entropy,
    expectation,
    fidelity,
    overlap,
)

import oracles
from conftest import (
    FIT_P,
    FITTED_MODEL,
    GATES,
    as_density,
    count_states,
    hex_floats,
    oracle_states,
    plus,
    random_density,
    random_state,
    spy,
)

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
        message = f"^steps\\[1\\] angle must be a finite number, got {angle!r}$"
        with pytest.raises(ValueError, match=message):
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
    # qubit indices are integers, named when not, never truncated
    for bad in (1.5, np.float64(1.0), True, "a", None):
        shown = re.escape(repr(bad))
        message = f"^steps\\[1\\] qubit must be an integer >= 0, got {shown}$"
        with pytest.raises(ValueError, match=message):
            MeasurementPattern(((0, 0.1), (bad, 0.2)))
        message = f"^readout\\[1\\] must be an integer >= 0, got {shown}$"
        with pytest.raises(ValueError, match=message):
            MeasurementPattern(((0, 0.1),), (2, bad))
    assert MeasurementPattern(((np.int64(0), 0.1),), (np.int8(1),)).readout == (1,)
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
    with pytest.raises(ValueError, match="outcomes"):
        run_pattern(psi, horseshoe_pattern(0.0, 0.0), 0)  # bare int ambiguous


def test_run_pattern_records_step_order(rng):
    state = build_cluster(HORSESHOE_GRAPH)
    outcomes, prob, residual = run_pattern(state, horseshoe_pattern(0.3, 0.9), [0, 1])
    assert outcomes == (0, 1)
    assert residual.num_qubits == 2
    p1, rest = _forced_measure(state.amplitudes, 1, 0.3, 0)
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
        for bits in ((0, 2), (0, -1), (0, "1"), (0, 0.0), (0, True)):
            message = f"^outcomes\\[1\\] must be one of 0, 1, got {re.escape(repr(bits[1]))}$"
            with pytest.raises(ValueError, match=message):
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


GRAPHS = {"horseshoe": HORSESHOE_GRAPH, "box": BOX_GRAPH}


@pytest.mark.parametrize("kind", ["horseshoe", "box"])
def test_gate_formula_matches_simulation(kind):
    state = build_cluster(GRAPHS[kind])
    _, pattern_fn, gate = GATES[kind]
    for alpha in GRID:
        for beta in GRID:
            for s2, s3 in BRANCHES:
                pattern = pattern_fn(alpha, beta, feedforward=False)
                _, prob, residual = run_pattern(state, pattern, [s2, s3])
                target = gate(GateOutputSpec(alpha, beta, s2, s3))
                assert fidelity(residual, target) == pytest.approx(1.0, abs=1e-10)
                assert prob == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("kind", ["horseshoe", "box"])
def test_feedforward_collapses_branches(kind):
    # corrected outputs coincide with the s2 = s3 = 0 branch up to the
    # global phase each measurement branch carries
    state = build_cluster(GRAPHS[kind])
    _, pattern_fn, gate = GATES[kind]
    alpha, beta = 0.8, 2.1
    reference = gate(GateOutputSpec(alpha, beta, 0, 0))
    for s2, s3 in BRANCHES:
        _, _, residual = run_pattern(state, pattern_fn(alpha, beta, feedforward=True), [s2, s3])
        assert overlap(residual, reference) == pytest.approx(1.0, abs=1e-12)


def test_pattern_runs_on_density_matrices():
    state = build_cluster(BOX_GRAPH)
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
    pm = dict(zip("+-", oracles.HADAMARD))  # the rows of H are |+> and |->
    expected = {(0, 0): "+-", (0, 1): "--", (1, 0): "++", (1, 1): "-+"}
    states = {}
    for (s2, s3), label in expected.items():
        out = box_gate(GateOutputSpec(math.pi, 0.0, s2, s3))
        target = StateVector(np.kron(pm[label[0]], pm[label[1]]))
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


def _with_written_rz(kind, spec):
    """A gate output built from the written-out R_z: byproducts times
    A C B^T, with A = H Rz(-alpha) and B = H Rz(-beta)."""
    a, b = (oracles.HADAMARD @ oracles.rz(-t) for t in (spec.alpha, spec.beta))
    target = a @ mbqc._CZ_PLUS @ b.T
    if kind == "box":
        target[1, 1] = -target[1, 1]
    return mbqc._GATES[kind][1][2 * spec.s2 + spec.s3] @ target.reshape(4)


def test_gate_outputs_skip_the_gate_check_and_keep_every_bit(rng):
    angles = rng.uniform(-4 * math.pi, 4 * math.pi, size=(40, 2)).tolist()
    angles += [[0.0, 0.0], [math.pi, -math.pi], [1e-300, 1e12]]
    for t in np.ravel(angles):
        assert np.array_equal(qcore._rz_matrix(t), oracles.rz(t))
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
    noisy = apply_noise(c4_state(), FITTED_MODEL)
    for marked in ("00", "11"):
        dist = grover_run(marked, feedforward=True, input_state=noisy)
        want = oracles.search_probability(marked, marked, True, FIT_P)
        assert dist[marked] == pytest.approx(want, abs=1e-9)


def test_search_argument_errors():
    with pytest.raises(ValueError):
        grover_run("22")
    with pytest.raises(ValueError):
        grover_run("00", input_state=StateVector(np.array([1.0, 0.0], dtype=complex)))
    # an unhashable or non-string mark fails like any other unknown one
    for marked in (["0", "0"], {"00": 1}, None, 0, b"00"):
        message = f"^marked must be one of '00', '01', '10', '11', got {re.escape(repr(marked))}$"
        with pytest.raises(ValueError, match=message):
            grover_run(marked)
    for flag in ("no", None, 0, 1, np.int64(1), 1.0):
        for state in (None, c4_state()):
            with pytest.raises(ValueError, match="^feedforward must be one of True, False, got "):
                grover_run("00", flag, state)


def test_ideal_search_reads_the_walk_bit_for_bit():
    for marked in MARKS:
        for feedforward in (True, False, np.bool_(True), np.bool_(False)):
            walked = hex_floats(grover_run(marked, feedforward, c4_state()))
            assert hex_floats(grover_run(marked, feedforward)) == walked
            assert hex_floats(grover_run(np.str_(marked), feedforward)) == walked


def test_every_search_call_walks_its_input(monkeypatch):
    # no search result is kept between calls: each call walks the box-frame
    # array it was given, and a returned dict is the caller's own
    walks = spy(monkeypatch, mbqc._walk, lambda a, pattern: (a.shape, pattern))
    noisy = apply_noise(c4_state(), NoiseModel(0.0, 0.0365925529065094, 0.1))
    for state in (None, c4_state(), noisy):
        for marked in MARKS:
            first = grover_run(marked, True, state)
            expected = hex_floats(first)
            first[marked] = -1.0
            assert hex_floats(grover_run(marked, True, state)) == expected
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
        message = f"^input_state must be a state of 4 qubits, got {re.escape(repr(state))}$"
        with pytest.raises(ValueError, match=message):
            grover_run("00", input_state=state)


@pytest.mark.parametrize("value", ["x", 3, PauliString("XXXX"), c4_state().amplitudes])
def test_a_state_argument_that_is_no_state_is_named(value):
    shown = re.escape(repr(value))
    message = f"^input_state must be a state of 4 qubits, got {shown}$"
    with pytest.raises(ValueError, match=message):
        grover_run("00", True, value)
    with pytest.raises(ValueError, match=f"^state must be a state of 2 qubits, got {shown}$"):
        bell_probabilities(value)
    with pytest.raises(ValueError, match=f"^rho must be a state of 4 qubits, got {shown}$"):
        fidelity(value, c4_state())
    with pytest.raises(ValueError, match=f"^target must be a StateVector, got {shown}$"):
        fidelity(c4_state(), value)
    with pytest.raises(ValueError, match=f"^state must be a state of 4 qubits, got {shown}$"):
        expectation(value, PauliString("XXXX"))
    with pytest.raises(ValueError, match=f"^state must be a state of 4 qubits, got {shown}$"):
        witness_value(value)
    with pytest.raises(ValueError, match=f"^ideal must be a state of 4 qubits, got {shown}$"):
        apply_noise(value, NoiseModel.ideal())
    for frame_change in (to_box_frame, to_horseshoe_frame):
        with pytest.raises(ValueError, match=f"^state must be a state of 4 qubits, got {shown}$"):
            frame_change(value)
    pattern = horseshoe_pattern(0.3, 0.9)
    with pytest.raises(ValueError, match=f"^state must be a state, got {shown}$"):
        branch_distribution(value, pattern)
    with pytest.raises(ValueError, match=f"^state must be a state, got {shown}$"):
        run_pattern(value, pattern, (0, 0))
    with pytest.raises(ValueError, match=f"^state must be a StateVector, got {shown}$"):
        entanglement_entropy(value, [0])
    with pytest.raises(ValueError, match=f"^a must be a StateVector, got {shown}$"):
        overlap(value, c4_state())
    with pytest.raises(ValueError, match=f"^b must be a StateVector, got {shown}$"):
        overlap(c4_state(), value)
    with pytest.raises(ValueError, match=f"^pattern must be a MeasurementPattern, got {shown}$"):
        branch_distribution(c4_state(), value)
    with pytest.raises(ValueError, match=f"^pattern must be a MeasurementPattern, got {shown}$"):
        run_pattern(c4_state(), value, (0,))
    for graph_function in (build_cluster, stabilizer_generators):
        with pytest.raises(ValueError, match=f"^graph must be a ClusterGraph, got {shown}$"):
            graph_function(value)
    # None, the default of grover_run's input_state only
    for frame_change in (to_box_frame, to_horseshoe_frame):
        with pytest.raises(ValueError, match="^state must be a state of 4 qubits, got None$"):
            frame_change(None)
    with pytest.raises(ValueError, match="^state must be a StateVector, got None$"):
        entanglement_entropy(None, [0])
    with pytest.raises(ValueError, match="^pattern must be a MeasurementPattern, got None$"):
        branch_distribution(c4_state(), None)
    with pytest.raises(ValueError, match="^pattern must be a MeasurementPattern, got None$"):
        run_pattern(c4_state(), None, (0,))
    for graph_function in (build_cluster, stabilizer_generators):
        with pytest.raises(ValueError, match="^graph must be a ClusterGraph, got None$"):
            graph_function(None)
    # a mixed target, an observable that is no PauliString
    rho = as_density(c4_state())
    with pytest.raises(ValueError, match="^target must be a StateVector, got DensityMatrix"):
        fidelity(c4_state(), rho)
    message = r"^state must be a StateVector, got DensityMatrix\(num_qubits=4\)$"
    with pytest.raises(ValueError, match=message):
        entanglement_entropy(rho, [0])
    with pytest.raises(ValueError, match="^observable must be a PauliString, got 'XXXX'$"):
        expectation(c4_state(), "XXXX")


# the prefix-sharing walk against two independent sequential runs of each
# branch (oracles.sequential_branches): chained forced measurements, then
# the byproducts gate by gate.  The first splits each state as a stack of
# one with the walk's kernel, the way every branch used to be computed;
# equal bit for bit, so the exact search tables and the counts drawn from
# them are unchanged.  The second projects with the oracle's written-out
# bras and reads no private kernel; it agrees within 1e-12

MARKS = ("00", "01", "10", "11")


def _forced_measure(a, qubit, alpha, bit):
    """One forced B(alpha) measurement of the state array ``a``,
    (probability, residual array): a stack of one split by the walk's
    kernel and the bit's branch taken; None below the walk's floor."""
    kept, residuals = qcore._branches(a[None], qubit, alpha)
    for i, (_, out, prob) in enumerate(kept):
        if out == bit:
            return prob, None if residuals is None else residuals[i]
    return None


def _sequential_branches(state, pattern, measure=oracles.projected):
    """The oracle's branches of ``pattern`` on ``state``, each step forced by ``measure``."""
    fields = (pattern.steps, pattern.readout, pattern.feedforward)
    return oracles.sequential_branches(qcore._array(state), *fields, measure)


def _oracle_runs(rng):
    """(state in its frame, pattern) for every oracle state of seed 41: the
    four search patterns in the box frame, and both gates' patterns with
    and without feedforward at angles drawn from ``rng``."""
    for state in oracle_states(np.random.default_rng(41)):
        box = to_box_frame(state)
        yield from ((box, grover_pattern(marked)) for marked in MARKS)
        alpha, beta = (float(v) for v in rng.uniform(-math.pi, math.pi, size=2))
        for frame, pattern_fn, _ in GATES.values():
            mapped = frame.apply(state)
            yield from ((mapped, pattern_fn(alpha, beta, feedforward=ff)) for ff in (True, False))


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
    runs = list(_oracle_runs(rng))
    runs += [
        (make(rng, len(pattern.steps) + len(pattern.readout)), pattern)
        for pattern in _random_feedforward_patterns(rng)
        for make in (random_state, random_density)
    ]
    for state, pattern in runs:
        got = branch_distribution(state, pattern)
        want = _sequential_branches(state, pattern, _forced_measure)
        assert [(bits, prob) for bits, prob, _ in got] == [(bits, prob) for bits, prob, _ in want]
        for (_, _, a), (_, _, b) in zip(got, want):
            assert (a is None) == (b is None)
            assert b is None or np.array_equal(qcore._array(a), b)


def test_branch_distribution_matches_projector_runs():
    for state, pattern in _oracle_runs(np.random.default_rng(41)):
        got = branch_distribution(state, pattern)
        want = _sequential_branches(state, pattern)
        assert [bits for bits, _, _ in got] == [bits for bits, _, _ in want]
        for (_, prob, residual), (_, oracle_prob, oracle) in zip(got, want):
            assert prob == pytest.approx(oracle_prob, rel=0.0, abs=1e-12)
            assert (residual is None) == (oracle is None)
            if oracle is not None:
                got_array = qcore._array(residual)
                assert got_array.shape == oracle.shape
                assert np.allclose(got_array, oracle, rtol=0.0, atol=1e-12)


def test_branch_distribution_checks_the_register():
    with pytest.raises(ValueError, match="pattern qubits do not match"):
        branch_distribution(
            build_cluster(BOX_GRAPH), MeasurementPattern(steps=((1, 0.0),), readout=(0,))
        )


def test_exact_search_equals_forced_branch_sums():
    for state in oracle_states(np.random.default_rng(43)):
        box = to_box_frame(state)
        for marked in MARKS:
            branches = _sequential_branches(box, grover_pattern(marked), _forced_measure)
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


def test_bell_probabilities_match_projector_oracle(rng):
    states = [random_state(rng, 2) for _ in range(5)] + [random_density(rng, 2) for _ in range(5)]
    for state in states:
        got = bell_probabilities(state)
        expected = oracles.bell_probabilities(qcore._array(state))
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


def test_mixed_search_builds_no_intermediate_state(monkeypatch):
    calls = []
    count_states(monkeypatch, calls)
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
    count_states(monkeypatch, calls)
    ideal = c4_state()
    assert calls == ["ket"]
    calls.clear()
    for state in (ideal, None):  # None reads the cluster's constant amplitudes
        grover_run("10", True, state)
    assert calls == []
