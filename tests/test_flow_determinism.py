"""Determinism oracle: random one-layer patterns with causal flow.

Causal flow (Danos & Kashefi, PRA 74, 052310 (2006); Browne, Kashefi,
Mhalla & Perdrix, NJP 9, 250 (2007)) gives each measured qubit m a
successor f(m) next to it.  Correcting an outcome 1 of m by X on f(m)
and Z on every other neighbour of f(m) makes all branches give the same
output, each with weight 2**-|M|, for any input state.  A
``MeasurementPattern`` does not adapt its angles, so the theorem applies
here when every f(m) is a readout qubit whose only measured neighbour is
m.  The patterns below are drawn under that rule: the non-successor
qubits carry a random pure or mixed input, each successor starts in |+>,
and any edge is allowed that gives no successor a second measured
neighbour.

A pattern applies no correction, so the oracle checks the spec, not the
shape of the walk: both ``mbqc.branch_distribution`` and the branch maps
of ``analysis._branch_maps``, each corrected by the flow's byproducts
written out here.
"""

import itertools
import math

import numpy as np

from onewaysim.analysis import _branch_maps
from onewaysim.cluster import FrameMap
from onewaysim.mbqc import MeasurementPattern, branch_distribution
from onewaysim.qcore import DensityMatrix, StateVector, _array, _density_array

import oracles
from conftest import random_density, random_state


def _flow_pattern(rng):
    """(state, pattern, flow, neighbours) of one random flow pattern on
    2-6 qubits, its state pure or mixed."""
    n = int(rng.integers(2, 7))
    order = [int(q) for q in rng.permutation(n)]
    k = int(rng.integers(1, n // 2 + 1))
    measured, successors, rest = order[:k], order[k : 2 * k], order[2 * k :]
    flow = dict(zip(measured, successors))
    predecessor = {f: m for m, f in flow.items()}
    edges = {(min(m, f), max(m, f)) for m, f in flow.items()}
    for a, b in itertools.combinations(range(n), 2):
        # a successor's only measured neighbour is its own predecessor
        ends = ((a, b), (b, a))
        if any(u in predecessor and v in flow and predecessor[u] != v for u, v in ends):
            continue
        if rng.random() < 0.4:
            edges.add((a, b))
    neighbours = {q: {b if a == q else a for a, b in edges if q in (a, b)} for q in range(n)}

    # inputs on the measured and the other readout qubits, |+> on each
    # successor, then CZ on every edge: a sign per basis state
    inputs = measured + rest
    make = random_state if rng.random() < 0.5 else random_density
    a = _array(make(rng, len(inputs)))
    plus = np.full(2**k, 2 ** (-k / 2))
    layout = inputs + successors  # qubit of each axis before the transpose
    axes = [layout.index(q) for q in range(n)]
    if a.ndim == 1:
        t = np.kron(a, plus).reshape((2,) * n).transpose(axes)
    else:
        t = np.kron(a, np.outer(plus, plus)).reshape((2,) * (2 * n))
        t = t.transpose(axes + [n + i for i in axes])
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    signs = (-1.0) ** sum((bits[:, u] & bits[:, v] for u, v in edges), np.zeros(2**n))
    t = t.reshape((2**n,) * a.ndim) * signs  # signs the last axis
    state = StateVector(t) if a.ndim == 1 else DensityMatrix(signs[:, None] * t)

    alphas = rng.uniform(0.0, 2 * math.pi, size=k).tolist()
    pattern = MeasurementPattern(tuple(zip(measured, alphas)))
    return state, pattern, flow, neighbours


def _correction(pattern, flow, neighbours, branch):
    """The flow's byproduct of one branch on the readout qubits (the
    unmeasured ones, in ascending order), up to sign."""
    readout = [q for q in neighbours if q not in flow]
    c = np.eye(2 ** len(readout))
    for (m, _), bit in zip(pattern.steps, branch):
        if bit:
            letters = {flow[m]: "X", **{w: "Z" for w in neighbours[flow[m]] - {m}}}
            c = c @ oracles.kron(*(oracles.PAULI[letters.get(q, "I")] for q in readout))
    return c


def test_flow_patterns_are_deterministic():
    rng = np.random.default_rng(8)
    kinds = set()
    for _ in range(150):
        state, pattern, flow, neighbours = _flow_pattern(rng)
        k = len(pattern.steps)
        kinds.add((state.num_qubits, k, type(state).__name__))
        # branch s of the walk, corrected: C_s R_s C_s^dagger; branch 0's C is I
        branches = branch_distribution(state, pattern)
        assert [b[0] for b in branches] == list(itertools.product((0, 1), repeat=k))
        reference = _density_array(branches[0][2])
        for outcomes, prob, residual in branches:
            c = _correction(pattern, flow, neighbours, outcomes)
            assert abs(prob - 2.0**-k) <= 1e-12
            r = c @ _density_array(residual) @ c.conj().T
            assert oracles.infidelity(r, reference) <= 1e-12

        # the same branches from the maps K_s: R_s = C_s K_s rho K_s^dagger C_s^dagger
        identity = FrameMap(tuple(range(state.num_qubits)), ())
        maps = _branch_maps(identity, pattern.steps)
        rho = _density_array(state)
        for branch, k_s in zip(itertools.product((0, 1), repeat=k), maps):
            c = _correction(pattern, flow, neighbours, branch)
            r = c @ k_s @ rho @ k_s.conj().T @ c.conj().T
            weight = np.trace(r).real
            assert abs(weight - 2.0**-k) <= 1e-12
            assert oracles.infidelity(r / weight, reference) <= 1e-12
    # the draws cover every register size, one to three measured qubits,
    # and pure and mixed inputs
    assert {n for n, _, _ in kinds} == {2, 3, 4, 5, 6}
    assert {k for _, k, _ in kinds} == {1, 2, 3}
    assert {name for _, _, name in kinds} == {"StateVector", "DensityMatrix"}
