import math

import numpy as np
import pytest

from onewaysim.cluster import ClusterGraph, build_cluster
from onewaysim.qcore import DensityMatrix, StateVector, _array, _density_array, _gate_array

# H written out, for oracles that do not read the package's own matrix
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def ket(bits: str) -> StateVector:
    """Computational basis state from a bit string, e.g. ket('0110')."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"invalid bit string {bits!r}")
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(amps)


def plus(num_qubits: int) -> StateVector:
    """|+>^n: the cluster of a graph with no edges."""
    return build_cluster(ClusterGraph(num_qubits, ()))


def one_qubit_gate(state, qubit: int, u: np.ndarray):
    """The 2x2 matrix ``u`` on one qubit of a state through the gate
    kernel, the result checked by the state's constructor."""
    return type(state)(_gate_array(_array(state), qubit, u))


def random_state(rng: np.random.Generator, num_qubits: int) -> StateVector:
    dim = 2**num_qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector.normalized(amps)


def random_density(rng: np.random.Generator, num_qubits: int) -> DensityMatrix:
    dim = 2**num_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def as_density(state) -> DensityMatrix:
    """The density matrix of a state, |a><a| for a pure one."""
    return DensityMatrix(_density_array(state))


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    # fix the phase freedom so the decomposition is a proper unitary
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return q


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
