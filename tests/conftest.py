"""Shared inputs of the tests: seeded random states, the noise models and
states every oracle test runs, the fitted model, the gate table and
helpers that read the package.  The independent references themselves
are in ``oracles``."""

import numpy as np
import pytest

from onewaysim import analysis, cli, cluster, mbqc, photonics, qcore
from onewaysim.cluster import BOX_FRAME, HORSESHOE_FRAME, ClusterGraph, build_cluster, c4_state
from onewaysim.mbqc import box_gate, box_pattern, horseshoe_gate, horseshoe_pattern
from onewaysim.photonics import (
    REFERENCE_WITNESS_TERMS,
    WITNESS_OBSERVABLES,
    NoiseModel,
    apply_noise,
    fit_noise,
)
from onewaysim.qcore import DensityMatrix, StateVector, _array, _density_array, _gate_array

# the fit of the reference stabilizer table as a `noise: fit` run makes it,
# and its white noise p and dephasing product q to the digits quoted
FITTED_MODEL = fit_noise([REFERENCE_WITNESS_TERMS[w][0] for w in WITNESS_OBSERVABLES])[0]
FIT_P = 0.06675
FIT_Q = 0.9634074470934906

# the range every seed is checked against, 2**128 - 1 written out
SEED_RANGE = "an integer in [0, 340282366920938463463374607431768211455]"

# the models whose count-feeding tables test_count_floats pins bit for bit:
# the ideal and fitted models and three seeded ones
PIN_MODELS = {
    "ideal": NoiseModel.ideal(),
    "fitted": FITTED_MODEL,
    **{
        f"noise_{seed}": NoiseModel(*np.random.default_rng(seed).uniform(0, 0.4, size=3).tolist())
        for seed in (5, 17, 2024)
    },
}

# each gate's frame map (from the |C4> frame to its graph), pattern and output
GATES = {
    "horseshoe": (HORSESHOE_FRAME, horseshoe_pattern, horseshoe_gate),
    "box": (BOX_FRAME, box_pattern, box_gate),
}


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


def noisy(state, model: NoiseModel):
    """``state`` through the noise channel, or itself under the ideal model."""
    return state if model.is_ideal() else apply_noise(state, model)


def oracle_models(rng: np.random.Generator, count: int = 4):
    """The noise models the oracle tests run: the ideal and fitted models,
    each weight alone at 1, both dephasings at 1 under white noise, and
    ``count`` seeded random models."""
    models = [
        NoiseModel.ideal(),
        FITTED_MODEL,
        NoiseModel(0.0, 0.0, 1.0),
        NoiseModel(1.0, 0.0, 0.0),
        NoiseModel(0.0, 1.0, 0.0),
        NoiseModel(1.0, 1.0, 0.3),
    ]
    return models + [
        NoiseModel(*(float(v) for v in rng.uniform(0.0, 1.0, size=3))) for _ in range(count)
    ]


def oracle_states(rng: np.random.Generator, count: int = 2):
    """Pure and mixed four-qubit inputs: the ideal cluster as a ket and as a
    matrix, the cluster under every other oracle model and under near-ideal
    noise, and ``count`` random kets and matrices that break the cluster's
    symmetries."""
    ideal = c4_state()
    # near-ideal noise: walk rows of weight ~1e-11 take the trace rescue
    near = [NoiseModel(a, 0.0, w) for w in (1e-12, 1e-10, 1e-9) for a in (0.0, w)]
    states = [ideal, as_density(ideal)]
    states += [apply_noise(ideal, model) for model in oracle_models(rng)[1:] + near]
    states += [random_state(rng, 4) for _ in range(count)]
    return states + [random_density(rng, 4) for _ in range(count)]


def hex_floats(value):
    """``value`` with every float as its ``float.hex`` and every dict as its
    items, recursively: equal results hold the same bits in the same order."""
    if isinstance(value, dict):
        return [(key, hex_floats(item)) for key, item in value.items()]
    return float.hex(value) if isinstance(value, float) else value


def spy(monkeypatch, fn, record=lambda *args, **kwargs: 1):
    """Route every package module's name for ``fn`` through a wrapper that
    appends ``record(*args)`` of each call to the list it returns."""
    calls = []

    def spied(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return fn(*args, **kwargs)

    for module in (qcore, cluster, photonics, mbqc, analysis, cli):
        for name, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, name, spied)
    return calls


def count_states(monkeypatch, calls):
    """Record every state constructor call and every density check in ``calls``."""
    ket_init, density_init = StateVector.__init__, DensityMatrix.__init__
    check = qcore._check_density

    def counted_ket(self, amplitudes):
        calls.append("ket")
        ket_init(self, amplitudes)

    def counted_density(self, matrix):
        calls.append("density")
        density_init(self, matrix)

    def counted_check(matrix):
        calls.append(("check", matrix.shape))
        check(matrix)

    monkeypatch.setattr(StateVector, "__init__", counted_ket)
    monkeypatch.setattr(DensityMatrix, "__init__", counted_density)
    monkeypatch.setattr(qcore, "_check_density", counted_check)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
