"""Cluster states, graph stabilizers, and the two experiment layouts.

A cluster state on a graph G is |+> on every vertex with CPhase applied
across every edge; it is built in closed form.  Vertices are numbered
0..n-1 and map directly to qubit indices (qubit 0 = most significant
bit).

The four-qubit chip realizes two graphs on the linear cluster |C4>:

    horseshoe            box
    1 - 2                1 - 2
        |                |   |
    4 - 3                4 - 3

Both are local-unitary images of |C4>; the converters below move
states between the |C4> frame and either graph frame, and the
``*_equivalence`` functions check the identities exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .qcore import (
    _HADAMARD,
    PauliString,
    State,
    StateVector,
    _check_integer,
    _check_state,
    _check_type,
    _gate_array,
    _product_basis,
    overlap,
)


@dataclass(frozen=True)
class ClusterGraph:
    """Simple undirected graph; edges are stored sorted and deduplicated."""

    num_vertices: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        n = _check_integer(self.num_vertices, "num_vertices", 1)
        normalized = set()
        for i, edge in enumerate(self.edges):
            ends = [_check_integer(v, f"edges[{i}][{j}]", 0, n - 1) for j, v in enumerate(edge)]
            a, b = sorted(ends)
            if a == b:
                raise ValueError(f"self-loop on vertex {a}")
            normalized.add((a, b))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    def neighbors(self, vertex: int) -> Tuple[int, ...]:
        out = []
        for a, b in self.edges:
            if a == vertex:
                out.append(b)
            elif b == vertex:
                out.append(a)
        return tuple(sorted(out))


# the two layouts demonstrated on the chip, 0-based
LINEAR_GRAPH = ClusterGraph(4, ((0, 1), (1, 2), (2, 3)))
HORSESHOE_GRAPH = LINEAR_GRAPH
BOX_GRAPH = ClusterGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def build_cluster(graph: ClusterGraph) -> StateVector:
    """|+>^n followed by CPhase on every edge, in closed form: the amplitude
    of |x> is (-1)^k / sqrt(2^n), with k the number of edges whose two ends
    both read 1 (Hein, Eisert & Briegel, PRA 69, 062311 (2004))."""
    n = _check_type(graph, "graph", ClusterGraph).num_vertices
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1  # qubit 0 first
    ones = sum((bits[:, a] & bits[:, b] for a, b in graph.edges), np.zeros(2**n, dtype=int))
    return StateVector((-1.0) ** ones / math.sqrt(2**n))


def stabilizer_generators(graph: ClusterGraph) -> Tuple[PauliString, ...]:
    """One generator per vertex: X there, Z on each neighbor."""
    gens = []
    for v in range(_check_type(graph, "graph", ClusterGraph).num_vertices):
        letters = ["I"] * graph.num_vertices
        letters[v] = "X"
        for u in graph.neighbors(v):
            letters[u] = "Z"
        gens.append(PauliString("".join(letters)))
    return tuple(gens)


# |C4>'s amplitudes (read-only), from which the library's own stages start
_C4 = np.zeros(16, dtype=complex)
_C4[[0b0000, 0b0011, 0b1100]] = 0.5
_C4[0b1111] = -0.5
_C4.setflags(write=False)


def c4_state() -> StateVector:
    """The linear four-qubit cluster (|0000> + |0011> + |1100> - |1111>)/2."""
    return StateVector(_C4)


@dataclass(frozen=True, eq=False)
class FrameMap:
    """A local-unitary change of frame: relabel the qubits, then apply
    one 2x2 matrix per qubit.

    Frame qubit q holds source qubit ``sources[q]`` and is then acted on
    by ``gates[q]``, an unchecked 2x2 array (``_HADAMARD`` in both frames
    below), or None.  :meth:`apply` checks only the state it returns.
    ``matrix`` is the whole map on kets, built once and read-only.
    Compared by identity: a tuple of arrays has no truth value.
    """

    sources: Tuple[int, ...]
    gates: Tuple[Optional[np.ndarray], ...]
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if sorted(self.sources) != list(range(len(self.sources))):
            raise ValueError("frame sources must be a permutation of the qubits")
        if len(self.gates) != len(self.sources):
            raise ValueError("frame map needs one gate slot per qubit")
        # the relabelling moves source ket entry order[i] to frame entry i
        n = len(self.sources)
        order = np.arange(2**n).reshape((2,) * n).transpose(self.sources).reshape(-1)
        local = _product_basis([np.eye(2) if g is None else g for g in self.gates])
        m = local[:, np.argsort(order)]
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, state: State) -> State:
        """The state in the new frame, checked by its constructor."""
        return type(state)(self._frame(_check_state(state, "state", len(self.sources))))

    def _frame(self, a: np.ndarray) -> np.ndarray:
        """:meth:`apply` on a state array, unchecked; the result is C-ordered."""
        n = len(self.sources)
        t = a.reshape((2,) * (n * a.ndim))  # one axis per qubit and side, relabelled at once
        axes = [s * n + q for s in range(a.ndim) for q in self.sources]
        frame = t.transpose(axes).reshape(a.shape)
        for q, gate in enumerate(self.gates):
            if gate is not None:
                frame = _gate_array(frame, q, gate)
        return np.ascontiguousarray(frame)


# |C4> frame -> graph frames
HORSESHOE_FRAME = FrameMap((0, 1, 2, 3), (_HADAMARD, None, None, _HADAMARD))
BOX_FRAME = FrameMap((0, 2, 1, 3), (_HADAMARD,) * 4)


def to_horseshoe_frame(state: State) -> State:
    """Map a |C4>-frame state to the horseshoe graph frame (HORSESHOE_FRAME)."""
    return HORSESHOE_FRAME.apply(state)


def to_box_frame(state: State) -> State:
    """Map a |C4>-frame state to the box graph frame (BOX_FRAME)."""
    return BOX_FRAME.apply(state)


def horseshoe_equivalence() -> Tuple[StateVector, StateVector, float]:
    """Built horseshoe cluster vs the converted |C4>; overlap should be 1."""
    built = build_cluster(HORSESHOE_GRAPH)
    mapped = to_horseshoe_frame(c4_state())
    return built, mapped, overlap(built, mapped)


def box_equivalence() -> Tuple[StateVector, StateVector, float]:
    """Built box cluster vs the converted |C4>; overlap should be 1."""
    built = build_cluster(BOX_GRAPH)
    mapped = to_box_frame(c4_state())
    return built, mapped, overlap(built, mapped)
