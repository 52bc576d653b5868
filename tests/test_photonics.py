"""Tests for the photonic source, noise channel, and apparatus."""

import math

import numpy as np
import pytest

from onewaysim.cluster import c4_state
from onewaysim.mbqc import GateOutputSpec
from onewaysim.photonics import (
    COINCIDENCE_RATE_HZ,
    DETECTOR_PAIRS,
    REFERENCE_VISIBILITIES,
    REFERENCE_WITNESS_TERMS,
    WITNESS_OBSERVABLES,
    WITNESS_SETTINGS,
    NoiseModel,
    _fringe_table,
    apply_noise,
    fit_noise,
    joint_distribution,
    source_state,
    visibility_scans,
)
from onewaysim.qcore import (
    DensityMatrix,
    PauliString,
    StateVector,
    apply_gate,
    expectation,
    hadamard,
    ket,
)

from conftest import random_density, random_state


# ---------------------------------------------------------------------------
# source
# ---------------------------------------------------------------------------


def test_source_matches_cluster_at_zero_phase():
    assert np.allclose(source_state(0.0).amplitudes, c4_state().amplitudes)


def test_source_phase_moves_only_the_rr_pair():
    amps = source_state(math.pi).amplitudes
    expected = np.zeros(16, dtype=complex)
    expected[0b0000] = 0.5
    expected[0b1100] = 0.5
    expected[0b0011] = -0.5
    expected[0b1111] = 0.5
    assert np.allclose(amps, expected)


def test_source_phase_rotates_the_path_coherence_terms():
    # words without X on the path qubits are insensitive to theta
    for theta in (0.0, 0.7, math.pi / 2, math.pi):
        psi = source_state(theta)
        for word in ("XXIZ", "XXZI", "IIZZ", "ZZII"):
            assert expectation(psi, PauliString(word)) == pytest.approx(1.0, abs=1e-12)
        for word in ("IZXX", "ZIXX"):
            assert expectation(psi, PauliString(word)) == pytest.approx(
                math.cos(theta), abs=1e-12
            )
    with pytest.raises(ValueError, match="theta must be a finite number"):
        source_state(float("inf"))


# ---------------------------------------------------------------------------
# noise channel
# ---------------------------------------------------------------------------


def _reference_noise(ideal: np.ndarray, model: NoiseModel) -> np.ndarray:
    """Elementwise restatement of the channel, as an independent oracle."""
    out = ideal.astype(complex).copy()
    for i in range(16):
        for j in range(16):
            if (i >> 1) & 1 != (j >> 1) & 1:  # path A is bit 1 from the right
                out[i, j] *= 1.0 - model.path_dephasing_a
            if i & 1 != j & 1:  # path B is the least significant bit
                out[i, j] *= 1.0 - model.path_dephasing_b
    return (1.0 - model.white_noise) * out + model.white_noise * np.eye(16) / 16.0


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(white_noise=1.5)
    with pytest.raises(ValueError):
        NoiseModel(path_dephasing_a=-0.1)
    assert NoiseModel.ideal().is_ideal()
    assert not NoiseModel(0.0, 0.0, 0.1).is_ideal()


NUMBER_FIELDS = {
    "path_dephasing_a": NoiseModel,
    "path_dephasing_b": NoiseModel,
    "white_noise": NoiseModel,
    "theta": source_state,
    "alpha": lambda **bad: GateOutputSpec(**{"alpha": 0.0, "beta": 0.0, **bad}),
    "beta": lambda **bad: GateOutputSpec(**{"alpha": 0.0, "beta": 0.0, **bad}),
}


@pytest.mark.parametrize("field", list(NUMBER_FIELDS))
@pytest.mark.parametrize("flag", [False, True, "x", None])
def test_noise_model_rejects_booleans(field, flag):
    # bool is an int subclass; True would otherwise pass as a weight of 1 or
    # an angle of 1 rad, and a non-number must not end in a bare TypeError
    with pytest.raises(ValueError, match=field):
        NUMBER_FIELDS[field](**{field: flag})


def test_apply_noise_matches_elementwise_reference(rng):
    for _ in range(15):
        psi = random_state(rng, 4)
        model = NoiseModel(*(float(v) for v in rng.uniform(0.0, 0.6, size=3)))
        rho = apply_noise(psi, model)
        ideal = np.outer(psi.amplitudes, psi.amplitudes.conj())
        assert np.allclose(rho.matrix, _reference_noise(ideal, model), atol=1e-12)


def test_apply_noise_ideal_model_is_identity():
    psi = c4_state()
    rho = apply_noise(psi, NoiseModel.ideal())
    assert np.allclose(rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def test_apply_noise_accepts_density_input(rng):
    psi = random_state(rng, 4)
    model = NoiseModel(0.2, 0.1, 0.05)
    from_pure = apply_noise(psi, model)
    from_mixed = apply_noise(DensityMatrix.from_state(psi), model)
    assert np.allclose(from_pure.matrix, from_mixed.matrix)


def test_apply_noise_requires_four_qubits():
    with pytest.raises(ValueError):
        apply_noise(ket("00"), NoiseModel.ideal())


def test_noise_pauli_transfer_factors(rng):
    # every Pauli word scales by (1-p) times (1-lambda) per path qubit
    # on which the word has an off-diagonal letter
    letters = "IXYZ"
    for _ in range(40):
        psi = random_state(rng, 4)
        word = "".join(rng.choice(list(letters)) for _ in range(4))
        if word == "IIII":
            continue
        model = NoiseModel(*(float(v) for v in rng.uniform(0.0, 0.8, size=3)))
        factor = 1.0 - model.white_noise
        if word[2] in "XY":
            factor *= 1.0 - model.path_dephasing_a
        if word[3] in "XY":
            factor *= 1.0 - model.path_dephasing_b
        raw = expectation(psi, PauliString(word))
        noisy = expectation(apply_noise(psi, model), PauliString(word))
        assert noisy == pytest.approx(factor * raw, abs=1e-10)


# ---------------------------------------------------------------------------
# noise fit
# ---------------------------------------------------------------------------


_FLAT_WORDS = ("XXIZ", "XXZI", "IIZZ", "ZZII")
_MIXED_WORDS = ("IZXX", "ZIXX")


def _model_targets(keep, q):
    """Stabilizer values of the noise model: keep = 1 - p, q the dephasing product."""
    return {w: (keep * q if w in _MIXED_WORDS else keep) for w in WITNESS_OBSERVABLES}


def _closed_form_fit(targets):
    """Separable least-squares solution used as the oracle.

    Four of the six words see only the white-noise factor b = 1 - p, the
    other two see b*q with q the dephasing product, so the optimum is
    b = mean of the four, b*q = mean of the two.
    """
    flat = [targets[w] for w in _FLAT_WORDS]
    mixed = [targets[w] for w in _MIXED_WORDS]
    b = sum(flat) / 4.0
    bq = sum(mixed) / 2.0
    residual = sum((b - t) ** 2 for t in flat) + sum((bq - t) ** 2 for t in mixed)
    return b, bq / b, residual


def _brute_force_fit(targets):
    """Grid search over the parameter box, used as an independent oracle.

    Scans keep = 1 - p and q over [0, 1] x [0, 1] on a 41 x 41 grid, then
    repeatedly zooms a grid of the same size onto the best point until
    the window is far below the float precision of the result.  Returns
    (keep, q, residual) of the best grid point found.
    """
    flat = np.array([targets[w] for w in _FLAT_WORDS])
    mixed = np.array([targets[w] for w in _MIXED_WORDS])
    keep_lo, keep_hi, q_lo, q_hi = 0.0, 1.0, 0.0, 1.0
    for _ in range(14):
        keep, q = np.meshgrid(
            np.linspace(keep_lo, keep_hi, 41), np.linspace(q_lo, q_hi, 41), indexing="ij"
        )
        misfit = ((flat[:, None, None] - keep) ** 2).sum(axis=0)
        misfit += ((mixed[:, None, None] - keep * q) ** 2).sum(axis=0)
        i, j = np.unravel_index(np.argmin(misfit), misfit.shape)
        best = (float(keep[i, j]), float(q[i, j]), float(misfit[i, j]))
        keep_step = (keep_hi - keep_lo) / 40.0
        q_step = (q_hi - q_lo) / 40.0
        keep_lo, keep_hi = max(0.0, best[0] - 2 * keep_step), min(1.0, best[0] + 2 * keep_step)
        q_lo, q_hi = max(0.0, best[1] - 2 * q_step), min(1.0, best[1] + 2 * q_step)
    return best


def _assert_no_worse_than_oracle(targets):
    model, residual = fit_noise([targets[w] for w in WITNESS_OBSERVABLES])
    assert model.path_dephasing_a == 0.0
    _, _, oracle = _brute_force_fit(targets)
    assert residual <= oracle + 1e-12
    # the reported residual is the misfit of the returned model
    predicted = _model_targets(1.0 - model.white_noise, 1.0 - model.path_dephasing_b)
    misfit = sum((predicted[w] - targets[w]) ** 2 for w in WITNESS_OBSERVABLES)
    assert residual == pytest.approx(misfit, abs=1e-12)
    return model, residual


def test_fit_noise_reference_targets():
    targets = {w: REFERENCE_WITNESS_TERMS[w][0] for w in WITNESS_OBSERVABLES}
    model, residual = fit_noise([targets[w] for w in WITNESS_OBSERVABLES])
    b, q, expected_residual = _closed_form_fit(targets)
    assert model.path_dephasing_a == 0.0  # gauge choice
    assert model.white_noise == pytest.approx(1.0 - b, abs=1e-12)
    assert 1.0 - model.path_dephasing_b == pytest.approx(q, abs=1e-12)
    assert residual == pytest.approx(expected_residual, abs=1e-12)
    assert model.white_noise == pytest.approx(0.06675, abs=1e-7)
    assert model.path_dephasing_b == pytest.approx(0.0365926, abs=1e-7)
    # the grid-and-descent search this replaced stopped at 0.0037897900014
    assert residual <= 0.0037897900014


def test_fit_noise_is_no_worse_than_brute_force_on_random_targets():
    rng = np.random.default_rng(5)
    for index in range(100):
        if index % 2:
            values = rng.uniform(-1.0, 1.0, size=6)
        else:
            # near the physical region: a model's values plus measurement noise
            model = _model_targets(*rng.uniform(0.5, 1.0, size=2))
            values = [model[w] + rng.normal(0.0, 0.05) for w in WITNESS_OBSERVABLES]
            values = np.clip(values, -1.0, 1.0)
        _assert_no_worse_than_oracle(dict(zip(WITNESS_OBSERVABLES, map(float, values))))


@pytest.mark.parametrize(
    "flat, mixed, white_noise, path_dephasing_b, residual",
    [
        (0.0, 0.0, 1.0, 0.0, 0.0),     # all zero: pure white noise, q free, no dephasing reported
        (1.0, 1.0, 0.0, 0.0, 0.0),     # all +1: the ideal model
        (-1.0, -1.0, 1.0, 0.0, 6.0),   # all -1: pure white noise
        (0.8, 0.95, 1.0 - 0.85, 0.0, 4 * 0.05**2 + 2 * 0.1**2),  # q > 1: clipped to q = 1
        (-0.2, -0.1, 1.0, 0.0, 4 * 0.04 + 2 * 0.01),  # negative means
        (0.9, -0.3, 0.1, 1.0, 2 * 0.09),  # negative mixed mean: q = 0
        (1.0, 0.5, 0.0, 0.5, 0.0),     # keep = 1 inside the box
        (1.0, -0.5, 0.0, 1.0, 2 * 0.25),  # keep = 1 and q = 0
        (-0.3, 0.2, 1.0, 0.0, 4 * 0.09 + 2 * 0.04),  # negative flat, positive mixed
        (0.3, -0.9, 0.7, 1.0, 2 * 0.81),  # positive flat, negative mixed
    ],
)
def test_fit_noise_boundary_targets(flat, mixed, white_noise, path_dephasing_b, residual):
    targets = {w: (mixed if w in _MIXED_WORDS else flat) for w in WITNESS_OBSERVABLES}
    model, got = _assert_no_worse_than_oracle(targets)
    assert model.white_noise == pytest.approx(white_noise, abs=1e-12)
    assert model.path_dephasing_b == pytest.approx(path_dephasing_b, abs=1e-12)
    assert got == pytest.approx(residual, abs=1e-12)


def test_fit_noise_exact_recovery():
    # targets generated by the channel itself must fit with ~zero residual
    truth = NoiseModel(0.0, 0.05, 0.08)
    rho = apply_noise(c4_state(), truth)
    targets = [expectation(rho, PauliString(w)) for w in WITNESS_OBSERVABLES]
    model, residual = fit_noise(targets)
    assert model.path_dephasing_b == pytest.approx(0.05, abs=1e-4)
    assert model.white_noise == pytest.approx(0.08, abs=1e-4)
    assert residual < 1e-8


def test_fit_noise_validation():
    with pytest.raises(ValueError):
        fit_noise([0.9] * 5)
    with pytest.raises(ValueError):
        fit_noise([0.9, 0.9, 0.9, 0.9, 0.9, 1.3])


# ---------------------------------------------------------------------------
# apparatus
# ---------------------------------------------------------------------------


def _readout_projectors(basis):
    """One projector per outcome: row k of a readout basis is outcome k's bra."""
    return [np.outer(row.conj(), row) for row in basis]


@pytest.mark.parametrize(
    "setting",
    [
        # one photon's (path, polarization) readout: A is (qubit 2, qubit 1)
        # and B (qubit 3, qubit 0) in register order
        (bases[path], bases[pol])
        for bases in WITNESS_SETTINGS.values()
        for path, pol in ((2, 1), (3, 0))
    ],
)
def test_apparatus_projectors_complete_and_idempotent(setting):
    # the projectors of one photon's (path, pol) readout, path qubit first
    path_basis, pol_basis = setting
    projs = [
        np.kron(path, pol)
        for path in _readout_projectors(path_basis)
        for pol in _readout_projectors(pol_basis)
    ]
    assert len(projs) == 4
    total = sum(projs)
    assert np.allclose(total, np.eye(4))
    for op in projs:
        assert np.allclose(op @ op, op)
        assert np.allclose(op, op.conj().T)


def test_b_alpha_at_zero_equals_plus_minus():
    # the beam splitters of the ZZXX setting read both paths in B(0)
    for qubit in (2, 3):
        p0, p1 = _readout_projectors(WITNESS_SETTINGS["ZZXX"][qubit])
        assert np.allclose(p0, np.full((2, 2), 0.5))
        assert np.allclose(p1, np.array([[0.5, -0.5], [-0.5, 0.5]]))


def test_witness_settings_are_read_only():
    assert sorted(WITNESS_SETTINGS) == ["XXZZ", "ZZXX"]
    for bases in WITNESS_SETTINGS.values():
        assert len(bases) == 4
        for basis in bases:
            with pytest.raises(ValueError, match="read-only"):
                basis[0, 0] = 0.0


# ---------------------------------------------------------------------------
# joint outcome distributions
# ---------------------------------------------------------------------------


def _word_sign(word: str, key: str) -> int:
    sign = 1
    for letter, bit in zip(word, key):
        if letter != "I" and bit == "1":
            sign = -sign
    return sign


_SETTING_WORDS = {
    "XXZZ": ("XXIZ", "XXZI", "IIZZ"),
    "ZZXX": ("IZXX", "ZIXX", "ZZII"),
}


def test_joint_distribution_normalization(rng):
    for name in WITNESS_SETTINGS:
        for _ in range(5):
            psi = random_state(rng, 4)
            dist = joint_distribution(psi, name)
            assert len(dist) == 16
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
            assert all(v >= 0.0 for v in dist.values())


def test_joint_distribution_reproduces_expectations(rng):
    # signed sums over the coincidence distribution must equal the
    # operator expectation values for every word the setting measures
    for name in WITNESS_SETTINGS:
        for _ in range(8):
            psi = random_state(rng, 4)
            dist = joint_distribution(psi, name)
            for word in _SETTING_WORDS[name]:
                signed = sum(_word_sign(word, k) * v for k, v in dist.items())
                assert signed == pytest.approx(
                    expectation(psi, PauliString(word)), abs=1e-10
                )


def test_joint_distribution_on_mixed_states(rng):
    psi = random_state(rng, 4)
    rho = apply_noise(psi, NoiseModel(0.1, 0.2, 0.15))
    for name in WITNESS_SETTINGS:
        dist = joint_distribution(rho, name)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        for word in _SETTING_WORDS[name]:
            signed = sum(_word_sign(word, k) * v for k, v in dist.items())
            assert signed == pytest.approx(
                expectation(rho, PauliString(word)), abs=1e-10
            )


def test_joint_distribution_requires_four_qubits():
    with pytest.raises(ValueError):
        joint_distribution(ket("00"), "XXZZ")


@pytest.mark.parametrize("setting", ["XXXX", "xxzz", None, ("XXZZ",), WITNESS_SETTINGS["ZZXX"]])
def test_joint_distribution_rejects_other_settings(setting):
    with pytest.raises(ValueError, match="setting must be one of"):
        joint_distribution(c4_state(), setting)


def test_ideal_cluster_coincidences_are_half_even_parity():
    # on the ideal state each setting shows the stabilizer correlations
    dist = joint_distribution(c4_state(), "XXZZ")
    for word in _SETTING_WORDS["XXZZ"]:
        signed = sum(_word_sign(word, k) * v for k, v in dist.items())
        assert signed == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# interference fringes
# ---------------------------------------------------------------------------


_PAIR_SIGNS = {"D1-D2": 1.0, "D1-D4": -1.0, "D3-D2": -1.0, "D3-D4": 1.0}


def _fringe_formula(model: NoiseModel, pair: str, theta: float) -> float:
    p = model.white_noise
    q = (1.0 - model.path_dephasing_a) * (1.0 - model.path_dephasing_b)
    return (1.0 - p) / 8.0 * (1.0 + _PAIR_SIGNS[pair] * q * math.cos(theta)) + p / 16.0


def _fringe(model: NoiseModel, pair: str, theta: float) -> float:
    """One pair's coincidence probability at one phase, off the fringe table."""
    port_a, port_b = _ORACLE_PORTS[pair]
    return float(_fringe_table(model, [theta])[0, port_a, port_b])


def test_fringe_matches_closed_form(rng):
    for _ in range(12):
        model = NoiseModel(*(float(v) for v in rng.uniform(0.0, 0.5, size=3)))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        for pair in DETECTOR_PAIRS:
            assert _fringe(model, pair, theta) == pytest.approx(
                _fringe_formula(model, pair, theta), abs=1e-12
            )


def test_fringe_pair_signs():
    ideal = NoiseModel.ideal()
    assert _fringe(ideal, "D1-D2", 0.0) > _fringe(ideal, "D1-D2", math.pi)
    assert _fringe(ideal, "D1-D4", 0.0) < _fringe(ideal, "D1-D4", math.pi)
    with pytest.raises(ValueError):
        visibility_scans(ideal, ("D2-D1",))


def test_visibility_scan_closed_form(rng):
    for _ in range(6):
        model = NoiseModel(*(float(v) for v in rng.uniform(0.0, 0.4, size=3)))
        p = model.white_noise
        q = (1.0 - model.path_dephasing_a) * (1.0 - model.path_dephasing_b)
        expected = q * (1.0 - p) / (1.0 - p / 2.0)
        (scan,) = visibility_scans(model, ("D3-D2",), samples=24)
        assert scan.visibility == pytest.approx(expected, abs=1e-12)
        assert len(scan.thetas) == 24 and len(scan.probabilities) == 24


def test_visibility_scan_ideal_is_unity():
    (scan,) = visibility_scans(NoiseModel.ideal(), ("D1-D2",), samples=8)
    assert scan.visibility == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        visibility_scans(NoiseModel.ideal(), ("D1-D2",), samples=3)


def test_visibility_scan_rejects_odd_samples():
    # five samples would miss theta = pi and report 0.826 for an ideal source
    with pytest.raises(ValueError, match="even"):
        visibility_scans(NoiseModel.ideal(), ("D1-D2",), samples=5)


# ---------------------------------------------------------------------------
# oracles: every readout restated with explicit projectors (Kronecker
# products, one expectation per outcome), independent of the basis-rotation
# kernels they check
# ---------------------------------------------------------------------------

_ORACLE_Z = (
    np.diag([1.0, 0.0]).astype(complex),
    np.diag([0.0, 1.0]).astype(complex),
)
_ORACLE_PM = (
    np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
)
_ORACLE_PORTS = {"D1-D2": (0, 0), "D1-D4": (0, 1), "D3-D2": (1, 0), "D3-D4": (1, 1)}
_ORACLE_TOL = 1e-12


def _oracle_joint_distribution(state, setting):
    """Sixteen Kronecker-product projectors, one expectation each.

    The setting's name gives the readout of each qubit in register order:
    X along +/- (a beam splitter reads a path in B(0), which is +/-) and
    Z in the computational basis."""
    families = [{"X": _ORACLE_PM, "Z": _ORACLE_Z}[letter] for letter in setting]
    out = {}
    for index in range(16):
        bits = [(index >> (3 - q)) & 1 for q in range(4)]
        op = np.array([[1.0 + 0j]])
        for q in range(4):
            op = np.kron(op, families[q][bits[q]])
        if isinstance(state, StateVector):
            value = np.vdot(state.amplitudes, op @ state.amplitudes).real
        else:
            value = np.trace(op @ state.matrix).real
        out["".join(map(str, bits))] = float(max(value, 0.0))
    return out


def _oracle_fringe(model, pair, theta):
    """apply_noise, two checked beam splitters (a Hadamard on each path
    qubit), then a 16x16 projector."""
    port_a, port_b = _ORACLE_PORTS[pair]
    probe = apply_noise(source_state(theta), model)
    probe = apply_gate(probe, 2, hadamard())
    probe = apply_gate(probe, 3, hadamard())
    op = np.array([[1.0 + 0j]])
    for proj in (_ORACLE_Z[0], _ORACLE_Z[0], _ORACLE_Z[port_a], _ORACLE_Z[port_b]):
        op = np.kron(op, proj)
    return float(np.trace(op @ probe.matrix).real)


def _oracle_models(rng, count):
    models = [
        NoiseModel.ideal(),
        NoiseModel(0.0, 0.0, 1.0),
        NoiseModel(1.0, 0.0, 0.0),
        NoiseModel(0.0, 1.0, 0.0),
        NoiseModel(1.0, 1.0, 0.3),
    ]
    models += [NoiseModel(*(float(v) for v in rng.uniform(0.0, 1.0, size=3))) for _ in range(count)]
    return models


def test_fringe_matches_projector_oracle(rng):
    for model in _oracle_models(rng, 10):
        for theta in rng.uniform(-2.0 * math.pi, 4.0 * math.pi, size=4):
            for pair in DETECTOR_PAIRS:
                assert _fringe(model, pair, float(theta)) == pytest.approx(
                    _oracle_fringe(model, pair, float(theta)), abs=_ORACLE_TOL
                )


@pytest.mark.parametrize("samples", [4, 10, 24])
def test_visibility_scans_match_projector_oracle(rng, samples):
    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    for model in _oracle_models(rng, 4):
        scans = visibility_scans(model, DETECTOR_PAIRS, samples)
        assert [scan.detector_pair for scan in scans] == list(DETECTOR_PAIRS)
        for scan in scans:
            expected = [_oracle_fringe(model, scan.detector_pair, t) for t in thetas]
            assert scan.thetas == tuple(float(t) for t in thetas)
            assert scan.probabilities == pytest.approx(expected, abs=_ORACLE_TOL)
            top, bottom = max(expected), min(expected)
            assert scan.visibility == pytest.approx(
                (top - bottom) / (top + bottom), abs=_ORACLE_TOL
            )
            # a pair scanned alone reads the same fringe
            assert visibility_scans(model, (scan.detector_pair,), samples) == (scan,)


def test_long_scan_is_built_in_blocks():
    # more phases than one stack holds: the blocks must join seamlessly
    model = NoiseModel(0.1, 0.05, 0.2)
    samples = 2 * 1024 + 6
    for scan in visibility_scans(model, DETECTOR_PAIRS, samples):
        assert len(scan.probabilities) == samples
        expected = [_fringe_formula(model, scan.detector_pair, t) for t in scan.thetas]
        assert scan.probabilities == pytest.approx(expected, abs=1e-12)


def test_visibility_scans_validate_every_pair():
    with pytest.raises(ValueError, match="detector pair"):
        visibility_scans(NoiseModel.ideal(), ("D1-D2", "D2-D1"))


def test_fringe_kernel_checks_its_stack(monkeypatch):
    # a stack that is not a density matrix must not reach the readout
    import onewaysim.photonics as photonics

    monkeypatch.setattr(photonics, "_noise_channel", lambda rho, model: -rho)
    with pytest.raises(ValueError, match="trace"):
        visibility_scans(NoiseModel.ideal(), ("D1-D2",), samples=4)


@pytest.mark.parametrize("model", [NoiseModel.ideal(), NoiseModel(0.1, 0.05, 0.2)])
def test_fringe_kernel_catches_one_slightly_negative_member(monkeypatch, model):
    # one of 48 phases gets an eigenvalue of -2e-10, twice the tolerance
    import onewaysim.photonics as photonics

    visibility_scans(model, DETECTOR_PAIRS, samples=48)  # the true stack passes
    channel = photonics._noise_channel

    def one_bad_member(rho, model):
        stack = channel(rho, model).copy()
        assert stack.shape == (48, 16, 16)
        values, vectors = np.linalg.eigh(stack[17])
        low, high = vectors[:, 0], vectors[:, -1]
        # move the smallest eigenvalue to -2e-10 and its weight to the largest
        shift = values[0] + 2e-10
        stack[17] += shift * (np.outer(high, high.conj()) - np.outer(low, low.conj()))
        assert np.linalg.eigvalsh(stack[17])[0] == pytest.approx(-2e-10, abs=1e-14)
        return stack

    monkeypatch.setattr(photonics, "_noise_channel", one_bad_member)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        visibility_scans(model, DETECTOR_PAIRS, samples=48)


def test_joint_distribution_matches_projector_oracle(rng):
    states = [c4_state(), source_state(0.4)]
    states += [random_state(rng, 4) for _ in range(3)]
    states += [random_density(rng, 4) for _ in range(3)]
    states += [apply_noise(random_state(rng, 4), m) for m in _oracle_models(rng, 2)]
    for setting in WITNESS_SETTINGS:
        for state in states:
            got = joint_distribution(state, setting)
            expected = _oracle_joint_distribution(state, setting)
            assert list(got) == list(expected)
            assert list(got.values()) == pytest.approx(list(expected.values()), abs=_ORACLE_TOL)
            assert min(got.values()) >= 0.0


def test_reference_tables_are_consistent():
    assert tuple(REFERENCE_VISIBILITIES) == DETECTOR_PAIRS
    assert tuple(REFERENCE_WITNESS_TERMS) == WITNESS_OBSERVABLES
    assert COINCIDENCE_RATE_HZ > 0
    for value, err in REFERENCE_WITNESS_TERMS.values():
        assert 0.0 < value < 1.0 and err > 0.0
