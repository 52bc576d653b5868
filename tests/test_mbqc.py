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
    BOX_FRAME,
    BOX_GRAPH,
    HORSESHOE_GRAPH,
    build_cluster,
    c4_state,
    stabilizer_generators,
)
from onewaysim.mbqc import (
    BELL_LABELS,
    MeasurementPattern,
    bell_probabilities,
    branch_distribution,
    frame_equivalence,
    gate_output,
    gate_pattern,
    grover_pattern,
    grover_run,
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
    LAYOUTS,
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
            gate_output("horseshoe", angle, 0.0)
    # qubit indices are integers, named when not, never truncated
    for bad in (1.5, np.float64(1.0), True, "a", None):
        shown = re.escape(repr(bad))
        message = f"^steps\\[1\\] qubit must be an integer >= 0, got {shown}$"
        with pytest.raises(ValueError, match=message):
            MeasurementPattern(((0, 0.1), (bad, 0.2)))
    steps = MeasurementPattern(((np.int64(0), 0.1),)).steps
    assert steps == ((0, 0.1),) and type(steps[0][0]) is int


def test_run_pattern_register_checks(rng):
    psi = random_state(rng, 4)
    message = r"^steps\[1\] qubit must be an integer in \[0, 3\], got 4$"
    with pytest.raises(ValueError, match=message):
        run_pattern(psi, MeasurementPattern(steps=((0, 0.0), (4, 0.0))), [0, 0])
    with pytest.raises(ValueError):
        run_pattern(psi, gate_pattern(0.0, 0.0), [0])  # one bit, two steps
    with pytest.raises(ValueError, match="outcomes"):
        run_pattern(psi, gate_pattern(0.0, 0.0), 0)  # bare int ambiguous


def test_run_pattern_records_step_order(rng):
    state = build_cluster(HORSESHOE_GRAPH)
    outcomes, prob, residual = run_pattern(state, gate_pattern(0.3, 0.9), [0, 1])
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
            shown = re.escape(repr(bits))
            message = f"^outcomes must be an ordered sequence of 2 items, got {shown}$"
            with pytest.raises(ValueError, match=message):
                run_pattern(state, pattern, bits)


def test_run_pattern_reads_its_outcomes_in_the_order_given():
    # an iterator or generator of bits is read once, as its list; a set,
    # mapping or mapping view has no order of the caller's and is refused
    state = build_cluster(HORSESHOE_GRAPH)
    pattern = gate_pattern(0.3, 0.9)
    expected = run_pattern(state, pattern, [0, 1])
    assert expected[0] == (0, 1)
    for outcomes in (iter([0, 1]), (bit for bit in (0, 1)), np.array([0, 1])):
        got = run_pattern(state, pattern, outcomes)
        assert got[:2] == expected[:2]
        assert np.array_equal(got[2].amplitudes, expected[2].amplitudes)
    for outcomes in ({0, 1}, frozenset({0, 1}), {0: 0, 1: 1}, {0: 0, 1: 1}.values()):
        message = "^outcomes must be an ordered sequence of 2 items, got "
        with pytest.raises(ValueError, match=message):
            run_pattern(state, pattern, outcomes)


def test_branch_distribution_is_lexicographic_and_normalized():
    state = build_cluster(HORSESHOE_GRAPH)
    branches = branch_distribution(state, gate_pattern(0.4, 1.3))
    assert [b[0] for b in branches] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-12)
    # forced runs must agree branch by branch
    for bits, prob, residual in branches:
        _, forced_prob, res2 = run_pattern(state, gate_pattern(0.4, 1.3), list(bits))
        assert forced_prob == pytest.approx(prob)
        assert np.allclose(res2.amplitudes, residual.amplitudes)


# ---------------------------------------------------------------------------
# two-qubit gates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", LAYOUTS)
def test_gate_formula_matches_simulation(kind):
    state = build_cluster(LAYOUTS[kind][0])
    for alpha in GRID:
        for beta in GRID:
            for s2, s3 in BRANCHES:
                pattern = gate_pattern(alpha, beta)
                _, prob, residual = run_pattern(state, pattern, [s2, s3])
                target = gate_output(kind, alpha, beta, s2, s3)
                assert fidelity(residual, target) == pytest.approx(1.0, abs=1e-10)
                assert prob == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("kind", LAYOUTS)
def test_byproduct_table_undoes_every_branch(kind):
    # T_s^dagger times branch s's uncorrected residual is the s2 = s3 = 0
    # output, up to the global phase each measurement branch carries
    state = build_cluster(LAYOUTS[kind][0])
    alpha, beta = 0.8, 2.1
    reference = gate_output(kind, alpha, beta)
    table = mbqc._GATES[kind][2]
    for s2, s3 in BRANCHES:
        _, _, residual = run_pattern(state, gate_pattern(alpha, beta), [s2, s3])
        corrected = StateVector(table[2 * s2 + s3].conj().T @ residual.amplitudes)
        assert overlap(corrected, reference) == pytest.approx(1.0, abs=1e-12)


def test_byproduct_tables_are_the_written_out_pauli_products():
    # branch (s2, s3): the horseshoe's X^s2 x X^s3; the box's (X x Z)^s2
    # followed by (Z x X)^s3, the later product on the left
    def power(letter, bit):
        return oracles.PAULI[letter if bit else "I"]

    for s2, s3 in BRANCHES:
        horseshoe = oracles.kron(power("X", s2), power("X", s3))
        box_s2 = oracles.kron(power("X", s2), power("Z", s2))
        box_s3 = oracles.kron(power("Z", s3), power("X", s3))
        box = box_s3 @ box_s2
        assert np.array_equal(mbqc._GATES["horseshoe"][2][2 * s2 + s3], horseshoe)
        assert np.array_equal(mbqc._GATES["box"][2][2 * s2 + s3], box)
    # one row per layout: its graph, frame map and table; only the box's
    # graph joins the two readout qubits, whose edge is the output CZ
    assert list(mbqc._GATES) == list(LAYOUTS)
    for kind, (graph, frame, table) in mbqc._GATES.items():
        assert graph is LAYOUTS[kind][0] and frame is LAYOUTS[kind][1]
        assert ((0, 3) in graph.edges) is (kind == "box")
        assert table.shape == (4, 4, 4) and not table.flags.writeable


def test_pattern_runs_on_density_matrices():
    state = build_cluster(BOX_GRAPH)
    rho = as_density(state)
    pattern = gate_pattern(0.5, 1.7)
    _, _, pure = run_pattern(state, pattern, [1, 0])
    _, _, mixed = run_pattern(rho, pattern, [1, 0])
    assert np.allclose(
        mixed.matrix, np.outer(pure.amplitudes, pure.amplitudes.conj()), atol=1e-10
    )


def test_horseshoe_zero_angles_state():
    out = gate_output("horseshoe", 0.0, 0.0)
    assert np.allclose(out.amplitudes, np.array([1, 1, 1, -1]) / 2)


def test_horseshoe_output_is_always_maximally_entangled(rng):
    # the pattern enacts a controlled-phase on the encoded pair; local
    # rotations never change the Schmidt spectrum of CZ|++>
    for _ in range(10):
        alpha, beta = rng.uniform(0.0, 2 * math.pi, size=2)
        s2, s3 = int(rng.integers(2)), int(rng.integers(2))
        out = gate_output("horseshoe", float(alpha), float(beta), s2, s3)
        assert entanglement_entropy(out, [0]) == pytest.approx(1.0, abs=1e-9)


def test_box_beta_zero_outputs_are_product(rng):
    for alpha in (*GRID, float(rng.uniform(0, 2 * math.pi))):
        for s2, s3 in BRANCHES:
            out = gate_output("box", alpha, 0.0, s2, s3)
            assert entanglement_entropy(out, [0]) == pytest.approx(0.0, abs=1e-9)


def test_box_equal_angles_entangle():
    out = gate_output("box", math.pi / 2, math.pi / 2)
    assert entanglement_entropy(out, [0]) == pytest.approx(1.0, abs=1e-9)


def test_box_alpha_pi_branches_are_orthogonal_products():
    pm = dict(zip("+-", oracles.HADAMARD))  # the rows of H are |+> and |->
    expected = {(0, 0): "+-", (0, 1): "--", (1, 0): "++", (1, 1): "-+"}
    states = {}
    for (s2, s3), label in expected.items():
        out = gate_output("box", math.pi, 0.0, s2, s3)
        target = StateVector(np.kron(pm[label[0]], pm[label[1]]))
        assert overlap(out, target) == pytest.approx(1.0, abs=1e-10)
        states[(s2, s3)] = out
    keys = list(states)
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            assert overlap(states[a], states[b]) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("kind", LAYOUTS)
def test_gate_output_validation(kind):
    with pytest.raises(ValueError, match="^s2 must be one of 0, 1, got 2$"):
        gate_output(kind, 0.0, 0.0, s2=2)
    with pytest.raises(ValueError, match="^alpha must be a finite number, got inf$"):
        gate_output(kind, float("inf"), 0.0)
    with pytest.raises(ValueError, match="^beta must be a finite number, got nan$"):
        gate_output(kind, 0.0, float("nan"))
    for name in ("s2", "s3"):
        for bit in (True, np.bool_(True), 1.0, "1", None, np.int64(2), -1):
            with pytest.raises(ValueError, match=f"^{name} must be one of 0, 1, got "):
                gate_output(kind, 0.0, 0.0, **{name: bit})
    # numpy integer bits act as ints, down to the gate output's last bit
    for s2, s3 in BRANCHES:
        numpy_bits = gate_output(kind, 0.3, -1.1, np.int64(s2), np.int8(s3))
        plain = gate_output(kind, 0.3, -1.1, s2, s3)
        assert np.array_equal(numpy_bits.amplitudes, plain.amplitudes)


def test_a_layout_is_picked_by_its_name_alone():
    message = "^kind must be one of 'horseshoe', 'box', got "
    for kind in ("Box", "linear", "", None, 0, b"box", ("box",)):
        with pytest.raises(ValueError, match=message):
            gate_output(kind, 0.3, 1.1)
        with pytest.raises(ValueError, match=message):
            frame_equivalence(kind)
    numpy_name = gate_output(np.str_("box"), 0.3, 1.1)
    assert np.array_equal(numpy_name.amplitudes, gate_output("box", 0.3, 1.1).amplitudes)


def _with_written_bras(kind, alpha, beta, s2, s3):
    """A gate output built from written-out B(alpha) bras: byproducts times
    A C B^T, with A and B the bras (1, +-e^{-i t})/sqrt(2) of B(alpha), B(beta)."""
    phases = np.exp(-1j * np.array([alpha, beta]))
    a, b = (np.array([[1.0, p], [1.0, -p]]) / math.sqrt(2) for p in phases)
    target = a @ mbqc._CZ_PLUS @ b.T
    if kind == "box":
        target[1, 1] = -target[1, 1]
    return mbqc._GATES[kind][2][2 * s2 + s3] @ target.reshape(4)


@pytest.mark.parametrize("kind", LAYOUTS)
def test_gate_outputs_skip_the_gate_check_and_keep_every_bit(kind, rng):
    angles = rng.uniform(-4 * math.pi, 4 * math.pi, size=(40, 2)).tolist()
    angles += [[0.0, 0.0], [math.pi, -math.pi], [1e-300, 1e12]]
    for alpha, beta in angles:
        for s2, s3 in BRANCHES:
            want = _with_written_bras(kind, alpha, beta, s2, s3)
            assert np.array_equal(gate_output(kind, alpha, beta, s2, s3).amplitudes, want)


@pytest.mark.parametrize("kind", LAYOUTS)
def test_gate_outputs_equal_the_forced_runs_entry_for_entry(kind):
    # the closed form reads the walk's own B(alpha) bras, so each output is
    # the forced run's residual on the layout's cluster, global phase and all
    angles = [(a, b) for a in GRID for b in GRID]
    angles += np.random.default_rng(36).uniform(-2 * math.pi, 2 * math.pi, size=(8, 2)).tolist()
    cluster = build_cluster(LAYOUTS[kind][0])
    for alpha, beta in angles:
        for s2, s3 in BRANCHES:
            run = run_pattern(cluster, gate_pattern(alpha, beta), (s2, s3))[2].amplitudes
            closed = gate_output(kind, alpha, beta, s2, s3).amplitudes
            assert np.abs(closed - run).max() <= 1e-15


# ---------------------------------------------------------------------------
# four-entry search
# ---------------------------------------------------------------------------


def test_grover_pattern_shape():
    # the oracle reads a tagged bit at B(0) and an untagged one at B(pi)
    pattern = grover_pattern("10")
    assert pattern.steps == ((1, 0.0), (2, math.pi), (0, math.pi), (3, math.pi))
    assert grover_pattern("01").steps[:2] == ((1, math.pi), (2, 0.0))
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
    box = BOX_FRAME.apply(c4_state())
    for outcomes, prob, _ in branch_distribution(box, grover_pattern(marked)):
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
        apply_noise(value, NoiseModel())
    for _, frame in LAYOUTS.values():
        with pytest.raises(ValueError, match=f"^state must be a state of 4 qubits, got {shown}$"):
            frame.apply(value)
    pattern = gate_pattern(0.3, 0.9)
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
    for _, frame in LAYOUTS.values():
        with pytest.raises(ValueError, match="^state must be a state of 4 qubits, got None$"):
            frame.apply(None)
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
# branch (oracles.sequential_branches): chained forced measurements.  The
# first splits each state as a stack of one with the walk's kernel, the way
# every branch used to be computed; equal bit for bit, so the exact search
# tables and the counts drawn from them are unchanged.  The second projects
# with the oracle's written-out bras and reads no private kernel; it agrees
# within 1e-12

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
    return oracles.sequential_branches(qcore._array(state), pattern.steps, measure)


def _oracle_runs(rng):
    """(state in its frame, pattern) for every oracle state of seed 41: the
    four search patterns in the box frame, and the gate pattern in both
    gates' frames at angles drawn from ``rng``."""
    for state in oracle_states(np.random.default_rng(41)):
        box = BOX_FRAME.apply(state)
        yield from ((box, grover_pattern(marked)) for marked in MARKS)
        alpha, beta = (float(v) for v in rng.uniform(-math.pi, math.pi, size=2))
        for _, frame in LAYOUTS.values():
            yield frame.apply(state), gate_pattern(alpha, beta)


def _random_patterns(rng):
    """Seeded (register size, pattern) pairs, one for each count of 1-3 steps
    and 1-3 readout qubits, with qubits and steps in random order."""
    patterns = []
    for num_steps, num_readout in itertools.product((1, 2, 3), repeat=2):
        qubits = rng.permutation(num_steps + num_readout).tolist()
        angles = rng.uniform(-math.pi, math.pi, size=num_steps).tolist()
        steps = tuple(zip(qubits[:num_steps], angles))
        patterns.append((num_steps + num_readout, MeasurementPattern(steps)))
    return patterns


def test_branch_distribution_equals_forced_runs():
    rng = np.random.default_rng(41)
    runs = list(_oracle_runs(rng))
    runs += [
        (make(rng, num_qubits), pattern)
        for num_qubits, pattern in _random_patterns(rng)
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


def _bra(alpha, bit):
    """The B(alpha) bra of outcome ``bit``, written out."""
    return np.array([1.0, (-1) ** bit * np.exp(-1j * alpha)]) / math.sqrt(2)


def test_a_residual_sits_on_the_unmeasured_qubits_in_ascending_order(rng):
    # the readout is not given: it is what the steps leave of the register,
    # in ascending order, whichever order the steps measure in; each case is
    # (state, pattern, the unnormalised residual of outcomes s, written out)
    psi = random_state(rng, 3)
    t = psi.amplitudes.reshape(2, 2, 2)
    cluster = build_cluster(HORSESHOE_GRAPH)
    c = cluster.amplitudes.reshape(2, 2, 2, 2)

    def gate_residual(s2, s3):  # cluster qubits 1, 4 (indices 0, 3) left
        return np.einsum("b,c,abcd->ad", _bra(0.3, s2), _bra(1.1, s3), c)

    cases = (
        (psi, MeasurementPattern(((1, 0.7),)), lambda s: np.einsum("b,abc->ac", _bra(0.7, *s), t)),
        (cluster, gate_pattern(0.3, 1.1), lambda s: gate_residual(*s)),
        (cluster, MeasurementPattern(((2, 1.1), (1, 0.3))), lambda s: gate_residual(s[1], s[0])),
    )
    for state, pattern, residual_of in cases:
        branches = branch_distribution(state, pattern)
        assert len(branches) == 2 ** len(pattern.steps)
        for bits, probability, residual in branches:
            left = residual_of(bits).reshape(-1)
            assert probability == pytest.approx(np.vdot(left, left).real, abs=1e-13)
            want = left / np.linalg.norm(left)
            np.testing.assert_allclose(residual.amplitudes, want, rtol=0, atol=1e-13)
    for (s2, s3), _, residual in branch_distribution(cluster, gate_pattern(0.3, 1.1)):
        want = gate_output("horseshoe", 0.3, 1.1, s2, s3)
        assert overlap(residual, want) == pytest.approx(1.0, abs=1e-12)


def test_branch_distribution_checks_the_register(rng):
    # a step qubit outside the register is refused by name
    psi = random_state(rng, 3)
    for state in (psi, as_density(psi)):
        for qubit in (3, 7):
            message = rf"^steps\[1\] qubit must be an integer in \[0, 2\], got {qubit}$"
            with pytest.raises(ValueError, match=message):
                branch_distribution(state, MeasurementPattern(((0, 0.1), (qubit, 0.2))))
    # the register's last qubit is a step qubit, and every qubit may be one
    assert len(branch_distribution(psi, MeasurementPattern(((2, 0.1), (0, 0.2), (1, 0.3))))) == 8


def test_exact_search_equals_forced_branch_sums():
    for state in oracle_states(np.random.default_rng(43)):
        box = BOX_FRAME.apply(state)
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
        state = gate_output("horseshoe", 0.0, 0.0, s2, s3)
        probs = bell_probabilities(state)
        label = max(probs, key=probs.get)
        assert probs[label] == pytest.approx(1.0, abs=1e-12)
        assert sum(probs.values()) - probs[label] == pytest.approx(0.0, abs=1e-12)
        expected[(s2, s3)] = label
    assert sorted(expected.values()) == sorted(BELL_LABELS)
    assert expected == {(0, 0): "++", (0, 1): "-+", (1, 0): "+-", (1, 1): "--"}


def test_bell_discriminate_mixed_input():
    state = gate_output("horseshoe", 0.0, 0.0, 1, 0)
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
    pattern = MeasurementPattern(((1, 0.3),))
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
