"""Tests for cluster-state construction and frame equivalences."""

import itertools
import math
import re

import numpy as np
import pytest

from onewaysim import cluster
from onewaysim.cluster import (
    BOX_FRAME,
    BOX_GRAPH,
    HORSESHOE_FRAME,
    HORSESHOE_GRAPH,
    ClusterGraph,
    FrameMap,
    build_cluster,
    c4_state,
    stabilizer_generators,
)
from onewaysim.mbqc import frame_equivalence
from onewaysim.qcore import (
    PauliString,
    _array,
    _density_array,
    entanglement_entropy,
    expectation,
)

import oracles
from conftest import LAYOUTS, as_density, ket, one_qubit_gate, random_density, random_state


def test_graph_normalizes_edges():
    g = ClusterGraph(3, ((2, 1), (1, 2), (0, 1)))
    assert g.edges == ((0, 1), (1, 2))
    assert g.neighbors(1) == (0, 2)
    assert g.neighbors(0) == (1,)


def test_graph_validation():
    for count in (0, -1, 2.5, 4.0, True, False, "4", None, np.float64(4.0), np.bool_(True)):
        with pytest.raises(ValueError, match="^num_vertices must be an integer >= 1, got "):
            ClusterGraph(count, ())
    with pytest.raises(ValueError, match="num_vertices"):
        ClusterGraph(2.5, ((0, 1),))
    # a numpy integer is an integer
    graph = ClusterGraph(np.int64(4), ((0, 1),))
    assert graph == ClusterGraph(4, ((0, 1),))
    built = build_cluster(ClusterGraph(4, ((0, 1),))).amplitudes
    assert np.array_equal(build_cluster(graph).amplitudes, built)
    with pytest.raises(ValueError):
        ClusterGraph(2, ((0, 0),))  # self loop
    # an end out of range is named by its position
    for edge, end in (((0, 2), 1), ((2, 0), 0), ((-1, 1), 0), ((1, -1), 1)):
        message = f"edges[0][{end}] must be an integer in [0, 1], got {edge[end]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClusterGraph(2, (edge,))
    # as is an end that is not an integer, never truncated
    for edge, end in (
        ((0, 1.5), 1), ((True, 2), 0), ((0, np.float64(1.0)), 1),
        ((np.bool_(False), 1), 0), (("0", 1), 0),
    ):
        message = f"edges[0][{end}] must be an integer in [0, 2], got {edge[end]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClusterGraph(3, (edge,))
    assert ClusterGraph(3, ((np.int64(0), np.int32(2)),)).edges == ((0, 2),)


def test_named_graphs():
    assert HORSESHOE_GRAPH.edges == ((0, 1), (1, 2), (2, 3))
    assert BOX_GRAPH.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_build_cluster_two_qubits():
    # CZ|++> has amplitudes (1,1,1,-1)/2
    state = build_cluster(ClusterGraph(2, ((0, 1),)))
    assert np.allclose(state.amplitudes, np.array([1, 1, 1, -1]) / 2)


def test_build_cluster_equals_the_cphase_chain(rng):
    # every graph of 1-4 vertices, then seeded random graphs of 5-6
    graphs = []
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for keep in itertools.product((False, True), repeat=len(pairs)):
            graphs.append(ClusterGraph(n, tuple(p for p, k in zip(pairs, keep) if k)))
    for _ in range(40):
        n = int(rng.integers(5, 7))
        pairs = itertools.combinations(range(n), 2)
        graphs.append(ClusterGraph(n, tuple(p for p in pairs if rng.random() < 0.5)))
    assert len(graphs) == 75 + 40
    for graph in graphs:
        chain = oracles.cphase_chain(graph.num_vertices, graph.edges)
        assert np.array_equal(build_cluster(graph).amplitudes, chain)
    # CPhase acts on |11> alone, and is symmetric in its two qubits
    cz_plus = build_cluster(ClusterGraph(2, ((1, 0),)))
    assert np.array_equal(cz_plus.amplitudes, [0.5, 0.5, 0.5, -0.5])
    assert np.array_equal(build_cluster(ClusterGraph(1, ())).amplitudes, [1 / math.sqrt(2)] * 2)
    with pytest.raises(ValueError):
        build_cluster(ClusterGraph(0, ()))


def test_c4_amplitudes():
    amps = c4_state().amplitudes
    expected = np.zeros(16, dtype=complex)
    expected[0b0000] = 0.5
    expected[0b0011] = 0.5
    expected[0b1100] = 0.5
    expected[0b1111] = -0.5
    assert np.allclose(amps, expected)


def test_linear_stabilizer_words():
    words = [g.letters for g in stabilizer_generators(HORSESHOE_GRAPH)]
    assert words == ["XZII", "ZXZI", "IZXZ", "IIZX"]


def test_stabilizers_fix_named_clusters():
    for graph in (HORSESHOE_GRAPH, BOX_GRAPH):
        state = build_cluster(graph)
        for gen in stabilizer_generators(graph):
            assert expectation(state, gen) == pytest.approx(1.0, abs=1e-12)


def test_stabilizers_fix_random_clusters(rng):
    # includes graphs with isolated vertices; X alone stabilizes |+>
    for _ in range(30):
        n = int(rng.integers(2, 7))
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.5
        ]
        graph = ClusterGraph(n, tuple(edges))
        state = build_cluster(graph)
        for gen in stabilizer_generators(graph):
            assert expectation(state, gen) == pytest.approx(1.0, abs=1e-12)


def test_c4_witness_words_are_stabilizers():
    state = c4_state()
    for word in ("XXIZ", "XXZI", "IIZZ", "IZXX", "ZIXX", "ZZII"):
        assert expectation(state, PauliString(word)) == pytest.approx(1.0, abs=1e-12)


def test_cluster_entropy_of_every_cut():
    # the entropy across a cut of a graph state is the GF(2) rank of the
    # adjacency block between its sides; cuts of 1, 2 and 3 qubits
    expected = {
        HORSESHOE_GRAPH: {(0,): 1, (1,): 1, (0, 1): 1, (0, 2): 2, (0, 3): 2, (0, 1, 2): 1},
        BOX_GRAPH: {(0,): 1, (1,): 1, (0, 1): 2, (0, 2): 1, (0, 3): 2, (0, 1, 2): 1},
    }
    for graph, cuts in expected.items():
        state = build_cluster(graph)
        for keep, entropy in cuts.items():
            assert entanglement_entropy(state, keep) == pytest.approx(entropy, abs=1e-12)
    assert entanglement_entropy(c4_state(), (0, 2)) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("kind", LAYOUTS)
def test_frame_equivalence(kind):
    graph, frame = LAYOUTS[kind]
    built, mapped, value = frame_equivalence(kind)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(built.amplitudes, mapped.amplitudes)
    assert np.array_equal(built.amplitudes, build_cluster(graph).amplitudes)
    assert np.array_equal(mapped.amplitudes, frame.apply(c4_state()).amplitudes)


@pytest.mark.parametrize("kind", LAYOUTS)
def test_frame_maps_are_polymorphic(kind):
    frame = LAYOUTS[kind][1]
    psi = c4_state()
    pure = frame.apply(psi)
    mixed = frame.apply(as_density(psi))
    assert np.allclose(mixed.matrix, np.outer(pure.amplitudes, pure.amplitudes.conj()))


def test_frame_maps_preserve_basis_labels():
    # H on 0 and 3 sends |0..0> to a uniform superposition over those qubits
    out = HORSESHOE_FRAME.apply(ket("0000"))
    nonzero = np.flatnonzero(np.abs(out.amplitudes) > 1e-12)
    assert {format(i, "04b") for i in nonzero} == {"0000", "0001", "1000", "1001"}


def test_frame_map_relabels_before_its_gates():
    # source qubit 2 lands on frame qubit 0 and is then flipped by H
    frame = FrameMap((2, 0, 1), (0,))
    out = frame.apply(ket("001"))
    expected = (ket("000").amplitudes - ket("100").amplitudes) / np.sqrt(2)
    assert np.allclose(out.amplitudes, expected)
    assert np.allclose(frame.matrix @ ket("001").amplitudes, expected)


def _swapped(state, q, j):
    """The state with qubits q and j exchanged: the two axes of each side
    of its tensor swapped, rebuilt (and checked) by its constructor."""
    a, n = _array(state), state.num_qubits
    t = a.reshape((2,) * (n * a.ndim))
    for side in range(a.ndim):
        t = t.swapaxes(side * n + q, side * n + j)
    return type(state)(t.reshape(a.shape))


def _apply_one_by_one(frame, state):
    """The frame change one step at a time, each result checked by the
    public constructors."""
    held = list(range(len(frame.sources)))
    for q, source in enumerate(frame.sources):
        j = held.index(source)
        if j != q:
            state = _swapped(state, q, j)
            held[q], held[j] = held[j], held[q]
    for q in frame.hadamards:
        state = one_qubit_gate(state, q, oracles.HADAMARD)
    return state


def test_frame_maps_equal_the_public_operations_bit_for_bit(rng):
    states = [c4_state(), random_state(rng, 4), random_density(rng, 4)]
    # the last frame's Hadamards run in the order given, not in qubit order
    frames = (BOX_FRAME, HORSESHOE_FRAME, FrameMap((2, 3, 1, 0), (2, 1)))
    for frame in frames:
        for state in states:
            mapped, oracle = frame.apply(state), _apply_one_by_one(frame, state)
            assert type(mapped) is type(oracle)
            assert np.array_equal(_array(mapped), _array(oracle))
            m, rho = frame.matrix, _density_array(state)
            assert np.allclose(m @ rho @ m.conj().T, _density_array(mapped), atol=1e-12)
        # the matrix is the same rule on each basis ket, column by column,
        # C-ordered and read-only, and the Kronecker product of its H and I
        # factors after the relabelling
        m, relabel = frame.matrix, np.zeros((16, 16))
        assert m.flags.c_contiguous and not m.flags.writeable
        for j, bits in enumerate(itertools.product("01", repeat=4)):
            column = _apply_one_by_one(frame, ket("".join(bits))).amplitudes
            assert np.array_equal(m[:, j], column)
            relabel[int("".join(bits[s] for s in frame.sources), 2), j] = 1.0
        factors = [oracles.HADAMARD if q in frame.hadamards else np.eye(2) for q in range(4)]
        assert np.array_equal(m, oracles.kron(*factors) @ relabel)
    short, long = ket("010"), random_state(rng, 5)
    for state in (short, as_density(short), long, random_density(rng, 5)):
        message = f"state must be a state of 4 qubits, got {state!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BOX_FRAME.apply(state)


@pytest.mark.parametrize("kind", LAYOUTS)
def test_frame_map_checks_the_state_it_returns(kind, monkeypatch, rng):
    # no step of the frame change is checked, so a faulty gate kernel must
    # still meet the returned state's constructor, with its message
    out = []
    gate_array = cluster._gate_array

    def doubled(a, qubit, u):
        out.append(2.0 * gate_array(a, qubit, u))
        return out[-1]

    monkeypatch.setattr(cluster, "_gate_array", doubled)
    for state, prefix in (
        (c4_state(), "state norm"),
        (random_state(rng, 4), "state norm"),
        (random_density(rng, 4), "density matrix"),
    ):
        with pytest.raises(ValueError) as caught:
            LAYOUTS[kind][1].apply(state)
        assert str(caught.value).startswith(prefix)
        with pytest.raises(ValueError) as expected:
            type(state)(out[-1])  # the last gate's result
        assert str(caught.value) == str(expected.value)


def test_frame_map_rejects_bad_layouts():
    for sources in ((0, 0, 1), (1, 2, 3), (0, 1, 3)):
        with pytest.raises(ValueError, match="^frame sources must be a permutation of the qubits$"):
            FrameMap(sources, ())
    for hadamards, shown in (((4,), "4"), ((0, -1), "-1"), ((True,), "True")):
        at = len(hadamards) - 1
        message = rf"^hadamards\[{at}\] must be an integer in \[0, 3\], got {shown}$"
        with pytest.raises(ValueError, match=message):
            FrameMap((0, 1, 2, 3), hadamards)
    # a frame map is its sources and Hadamards, compared and hashed by value
    assert FrameMap((0, 2, 1, 3), (0, 1, 2, 3)) == BOX_FRAME
    assert hash(FrameMap((0, 1, 2, 3), (0, 3))) == hash(HORSESHOE_FRAME)
    assert BOX_FRAME != HORSESHOE_FRAME != FrameMap((0, 1, 2, 3), (3, 0))
