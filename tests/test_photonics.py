"""Tests for the photonic source, noise channel, and apparatus."""

import math
import re
from dataclasses import astuple

import numpy as np
import pytest

from onewaysim import photonics
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
from onewaysim.qcore import PauliString, _array, expectation

import oracles
from conftest import as_density, ket, oracle_models, random_density, random_state, spy


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
        for word in WITNESS_OBSERVABLES:
            want = oracles.witness_term(word, 0.0, 1.0, theta)
            assert expectation(psi, PauliString(word)) == pytest.approx(want, abs=1e-12)
    # an int no float holds is named, not an OverflowError from math.isfinite
    for bad in (float("inf"), 10**400):
        with pytest.raises(ValueError, match="^theta must be a finite number"):
            source_state(bad)


# ---------------------------------------------------------------------------
# noise channel
# ---------------------------------------------------------------------------


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(white_noise=1.5)
    with pytest.raises(ValueError):
        NoiseModel(path_dephasing_a=-0.1)
    for name in ("path_dephasing_a", "path_dephasing_b", "white_noise"):
        with pytest.raises(ValueError, match=name):
            NoiseModel(**{name: 1.0 + 1e-9})  # just above the range
    assert NoiseModel.ideal().is_ideal()
    assert NoiseModel() == NoiseModel.ideal()  # every parameter defaults to 0
    assert not NoiseModel(0.0, 0.0, 0.1).is_ideal()
    # any real number but a bool: numpy's float32 is one
    assert NoiseModel(np.float32(0.1)).path_dephasing_a == np.float32(0.1)


NUMBER_FIELDS = {
    "path_dephasing_a": NoiseModel,
    "path_dephasing_b": NoiseModel,
    "white_noise": NoiseModel,
    "theta": source_state,
    "alpha": lambda **bad: GateOutputSpec(**{"alpha": 0.0, "beta": 0.0, **bad}),
    "beta": lambda **bad: GateOutputSpec(**{"alpha": 0.0, "beta": 0.0, **bad}),
}


@pytest.mark.parametrize("field", list(NUMBER_FIELDS))
@pytest.mark.parametrize("flag", [False, True, np.bool_(True), "x", None])
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
        assert np.allclose(rho.matrix, oracles.noise_channel(ideal, *astuple(model)), atol=1e-12)


def test_apply_noise_ideal_model_is_identity():
    psi = c4_state()
    rho = apply_noise(psi, NoiseModel.ideal())
    assert np.allclose(rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def test_apply_noise_accepts_density_input(rng):
    psi = random_state(rng, 4)
    model = NoiseModel(0.2, 0.1, 0.05)
    from_pure = apply_noise(psi, model)
    from_mixed = apply_noise(as_density(psi), model)
    assert np.allclose(from_pure.matrix, from_mixed.matrix)


def test_apply_noise_requires_four_qubits():
    with pytest.raises(ValueError):
        apply_noise(ket("00"), NoiseModel.ideal())


def test_noise_pauli_transfer_factors(rng):
    # every Pauli word scales by (1-p) times (1-lambda) per path qubit
    # on which the word has an off-diagonal letter
    for _ in range(40):
        psi = random_state(rng, 4)
        word = "".join(rng.choice(list(oracles.PAULI)) for _ in range(4))
        if word == "IIII":
            continue
        model = NoiseModel(*(float(v) for v in rng.uniform(0.0, 0.8, size=3)))
        factor = oracles.pauli_transfer(word, *astuple(model))
        raw = expectation(psi, PauliString(word))
        noisy = expectation(apply_noise(psi, model), PauliString(word))
        assert noisy == pytest.approx(factor * raw, abs=1e-10)


# ---------------------------------------------------------------------------
# noise fit
# ---------------------------------------------------------------------------


_FLAT_WORDS = tuple(w for w in WITNESS_OBSERVABLES if w not in oracles.DEPHASED_WORDS)


def _closed_form_fit(targets):
    """Separable least-squares solution used as the oracle.

    Four of the six words see only the white-noise factor b = 1 - p, the
    other two see b*q with q the dephasing product, so the optimum is
    b = mean of the four, b*q = mean of the two.
    """
    flat = [targets[w] for w in _FLAT_WORDS]
    mixed = [targets[w] for w in oracles.DEPHASED_WORDS]
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
    mixed = np.array([targets[w] for w in oracles.DEPHASED_WORDS])
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
    p, q = model.white_noise, 1.0 - model.path_dephasing_b
    misfit = sum((oracles.witness_term(w, p, q, 0.0) - targets[w]) ** 2 for w in targets)
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
            keep, q = rng.uniform(0.5, 1.0, size=2)
            model = [oracles.witness_term(w, 1.0 - keep, q, 0.0) for w in WITNESS_OBSERVABLES]
            values = [value + rng.normal(0.0, 0.05) for value in model]
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
        (-0.5, -0.5, 1.0, 0.0, 6 * 0.25),  # all negative: keep clipped to 0, q reported as 1
        (1e-7, -0.5, 1.0 - 1e-7, 1.0, 2 * 0.25),  # q = 0 edge with keep just above 0
        (0.0, 3e-7, 1.0 - 1e-7, 0.0, 4e-14 + 8e-14),  # q = 1 edge with keep just above 0
    ],
)
def test_fit_noise_boundary_targets(flat, mixed, white_noise, path_dephasing_b, residual):
    targets = {w: (mixed if w in oracles.DEPHASED_WORDS else flat) for w in WITNESS_OBSERVABLES}
    model, got = _assert_no_worse_than_oracle(targets)
    assert model.white_noise == pytest.approx(white_noise, abs=1e-12)
    assert model.path_dephasing_b == pytest.approx(path_dephasing_b, abs=1e-12)
    assert got == pytest.approx(residual, abs=1e-12)


def test_fit_noise_takes_the_interior_fit_where_the_means_agree():
    # equal means give q = 1 inside the box: the interior candidate keeps the
    # flat mean 0.8 with residual 0, while the q = 1 edge's mean of all six
    # values rounds away from 0.8 and so leaves a residual
    assert (sum([0.8] * 4) + sum([0.8] * 2)) / 6.0 != 0.8
    assert fit_noise([0.8] * 6) == (NoiseModel(0.0, 0.0, 1.0 - 0.8), 0.0)


def test_fit_noise_takes_an_interior_fit_with_keep_near_zero():
    # keep = 5e-7 and q = 0.5 fit all six targets exactly: the interior
    # candidate wins for any positive keep, however small
    targets = [5e-7, 5e-7, 5e-7, 2.5e-7, 2.5e-7, 5e-7]
    assert fit_noise(targets) == (NoiseModel(0.0, 0.5, 0.9999995), 0.0)


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


def test_fit_noise_takes_targets_in_minus_one_to_one_only():
    # both bounds are inclusive; the doubles just past them are not targets
    for edge in (-1.0, 1.0):
        model, _ = fit_noise([edge] * 6)
        assert isinstance(model, NoiseModel)
    # and each target is a real number: an int no float holds, a bool or a
    # string is named, never an OverflowError or read as a number
    edges = (math.nextafter(-1.0, -2.0), math.nextafter(1.0, 2.0), math.nan, -math.inf)
    for bad in edges + (10**400, -(10**400), True, "0.9", None):
        message = rf"^targets\[5\] must lie in \[-1, 1\], got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            fit_noise([0.9] * 5 + [bad])


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
        projectors = _readout_projectors(WITNESS_SETTINGS["ZZXX"][qubit])
        assert np.allclose(projectors, oracles.PM_PROJECTORS)


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
            for word in oracles.SETTING_WORDS[name]:
                signed = sum(oracles.sign(word, k) * v for k, v in dist.items())
                assert signed == pytest.approx(
                    expectation(psi, PauliString(word)), abs=1e-10
                )


def test_joint_distribution_on_mixed_states(rng):
    psi = random_state(rng, 4)
    rho = apply_noise(psi, NoiseModel(0.1, 0.2, 0.15))
    for name in WITNESS_SETTINGS:
        dist = joint_distribution(rho, name)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        for word in oracles.SETTING_WORDS[name]:
            signed = sum(oracles.sign(word, k) * v for k, v in dist.items())
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
    for word in oracles.SETTING_WORDS["XXZZ"]:
        signed = sum(oracles.sign(word, k) * v for k, v in dist.items())
        assert signed == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# interference fringes
# ---------------------------------------------------------------------------


def _fringe_formula(model: NoiseModel, pair: str, theta: float) -> float:
    q = oracles.dephasing_product(model.path_dephasing_a, model.path_dephasing_b)
    return oracles.fringe(pair, model.white_noise, q, theta)


def _fringe(model: NoiseModel, pair: str, theta: float) -> float:
    """One pair's coincidence probability at one phase, off the fringe table."""
    port_a, port_b = oracles.DETECTOR_PORTS[pair]
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
        q = oracles.dephasing_product(model.path_dephasing_a, model.path_dephasing_b)
        expected = oracles.visibility(model.white_noise, q)
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


def test_visibility_scans_cap_the_sample_count():
    # the whole phase grid is allocated at once
    (scan,) = visibility_scans(NoiseModel.ideal(), ("D1-D2",), samples=65536)
    assert len(scan.probabilities) == 65536
    message = r"^samples must be an integer in \[4, 65536\], got 65538$"
    with pytest.raises(ValueError, match=message):
        visibility_scans(NoiseModel.ideal(), ("D1-D2",), samples=65538)


# ---------------------------------------------------------------------------
# every readout against the projector readouts of ``oracles``, independent
# of the basis-rotation kernels they check
# ---------------------------------------------------------------------------

_ORACLE_TOL = 1e-12


def test_fringe_matches_projector_oracle(rng):
    for model in oracle_models(rng, 10):
        for theta in rng.uniform(-2.0 * math.pi, 4.0 * math.pi, size=4).tolist():
            for pair in DETECTOR_PAIRS:
                oracle = oracles.fringe_probability(pair, *astuple(model), theta)
                assert _fringe(model, pair, theta) == pytest.approx(oracle, abs=_ORACLE_TOL)


@pytest.mark.parametrize("samples", [4, 10, 24])
def test_visibility_scans_match_projector_oracle(rng, samples):
    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    for model in oracle_models(rng):
        scans = visibility_scans(model, DETECTOR_PAIRS, samples)
        assert [scan.detector_pair for scan in scans] == list(DETECTOR_PAIRS)
        for scan in scans:
            pair = scan.detector_pair
            expected = [oracles.fringe_probability(pair, *astuple(model), t) for t in thetas]
            assert scan.thetas == tuple(float(t) for t in thetas)
            assert scan.probabilities == pytest.approx(expected, abs=_ORACLE_TOL)
            top, bottom = max(expected), min(expected)
            assert scan.visibility == pytest.approx(
                (top - bottom) / (top + bottom), abs=_ORACLE_TOL
            )
            # a pair scanned alone reads the same fringe
            assert visibility_scans(model, (scan.detector_pair,), samples) == (scan,)


def test_long_scan_is_built_in_blocks(monkeypatch):
    # more phases than one stack holds: the blocks must join seamlessly,
    # and no stack holds more than 1024 phases (~4 MB)
    sizes = spy(monkeypatch, photonics._noise_channel, lambda stack, model: len(stack))
    model = NoiseModel(0.1, 0.05, 0.2)
    samples = 2 * 1024 + 6
    scans = visibility_scans(model, DETECTOR_PAIRS, samples)
    assert sizes == [1024, 1024, 6]
    for scan in scans:
        assert len(scan.probabilities) == samples
        expected = [_fringe_formula(model, scan.detector_pair, t) for t in scan.thetas]
        assert scan.probabilities == pytest.approx(expected, abs=1e-12)


def _full_register_fringes(model, thetas):
    """The fringe table from whole-register (n, 16, 16) stacks: the channel
    applied entry by entry to all 16 x 16 entries, then the HH block
    rotated by both beam splitters and its diagonal read off."""
    amps = photonics._source_amplitudes(thetas)
    rho = oracles.noise_channel(amps[:, :, None] * amps[:, None, :].conj(), *astuple(model))
    splitters = np.kron(oracles.HADAMARD, oracles.HADAMARD)
    return ((splitters @ rho[:, :4, :4]) * splitters.conj()).sum(axis=-1).real.reshape(-1, 2, 2)


def test_fringe_table_equals_the_full_register_bit_for_bit(rng):
    assert np.array_equal(np.kron(oracles.HADAMARD, oracles.HADAMARD), photonics._BEAM_SPLITTERS)
    models = oracle_models(rng, 12) + [NoiseModel(0.1, 0.0, 0.0), NoiseModel(0.0, 0.0, 0.05)]
    for model in models:
        for size in (1, 4, 24, 48, int(rng.integers(2, 200))):
            thetas = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, size=size)
            table = _fringe_table(model, thetas)
            assert np.array_equal(table, _full_register_fringes(model, thetas))
    # a scan split into blocks reads the same bits as one whole stack
    thetas = np.linspace(0.0, 2.0 * math.pi, 2 * 1024 + 2, endpoint=False)
    for model in models[:7]:
        table = _fringe_table(model, thetas)
        assert np.array_equal(table, _full_register_fringes(model, thetas))


def test_noise_channel_on_the_leading_block_keeps_every_bit(rng):
    for model in oracle_models(rng, 6):
        for rho in [as_density(random_state(rng, 4)).matrix, random_density(rng, 4).matrix]:
            full = photonics._noise_channel(rho, model)
            assert np.array_equal(photonics._noise_channel(rho[:4, :4], model), full[:4, :4])
            stack = np.stack([rho, full])
            assert np.array_equal(
                photonics._noise_channel(stack[:, :4, :4], model),
                photonics._noise_channel(stack, model)[:, :4, :4],
            )


def test_dephasing_masks_are_read_only_and_nested():
    for photon in ("A", "B"):
        full, block = photonics._DEPHASING_MASKS[16, photon], photonics._DEPHASING_MASKS[4, photon]
        assert not (full.flags.writeable or block.flags.writeable)
        assert np.array_equal(block, full[:4, :4])
        # the entries the oracle channel zeroes at full dephasing of the photon
        weights = (1.0, 0.0, 0.0) if photon == "A" else (0.0, 1.0, 0.0)
        assert np.array_equal(full, oracles.noise_channel(np.ones((16, 16)), *weights) == 0)


@pytest.mark.parametrize("samples, blocks", [(24, [24]), (2050, [1024, 1024, 2])])
def test_fringes_send_only_4x4_blocks_through_the_channel(monkeypatch, samples, blocks):
    shapes = spy(monkeypatch, photonics._noise_channel, lambda stack, model: stack.shape)
    visibility_scans(NoiseModel(0.1, 0.05, 0.2), DETECTOR_PAIRS, samples)
    assert shapes == [(n, 4, 4) for n in blocks]


def test_visibility_scans_validate_every_pair():
    message = "detector_pairs[1] must be one of 'D1-D2', 'D1-D4', 'D3-D2', 'D3-D4', got 'D2-D1'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        visibility_scans(NoiseModel.ideal(), ("D1-D2", "D2-D1"))


@pytest.mark.parametrize(
    "args, name",
    [
        *(((NoiseModel.ideal(), ("D1-D2",), s), "samples") for s in (24.0, "24", True, None, 3)),
        ((NoiseModel.ideal(), "D1-D2", 24), "detector_pairs"),
        *(((model, ("D1-D2",), 24), "model") for model in (None, "ideal", (0.0, 0.0, 0.0))),
        *(((NoiseModel.ideal(), pairs, 24), "detector_pairs") for pairs in (None, 12, 1.5)),
    ],
)
def test_visibility_scans_name_a_bad_argument(args, name):
    with pytest.raises(ValueError, match=name):
        visibility_scans(*args)


def test_visibility_scans_read_an_iterator_of_pairs_alike():
    model, pairs = NoiseModel(0.1, 0.05, 0.2), ("D1-D2", "D3-D4")
    assert visibility_scans(model, iter(pairs)) == visibility_scans(model, pairs)


def test_visibility_scans_read_a_numpy_sample_count_alike():
    model = NoiseModel(0.1, 0.05, 0.2)
    expected = visibility_scans(model, ("D1-D4",), 16)
    assert visibility_scans(model, ["D1-D4"], np.int64(16)) == expected


def test_apply_noise_names_a_bad_model():
    for model in (None, "x", (0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="model must be a NoiseModel"):
            apply_noise(c4_state(), model)
    # the register is checked first, as before
    message = r"^ideal must be a state of 4 qubits, got StateVector\(num_qubits=2\)$"
    with pytest.raises(ValueError, match=message):
        apply_noise(ket("00"), "x")


def test_joint_distribution_matches_projector_oracle(rng):
    states = [c4_state(), source_state(0.4)]
    states += [random_state(rng, 4) for _ in range(3)]
    states += [random_density(rng, 4) for _ in range(3)]
    states += [apply_noise(random_state(rng, 4), m) for m in oracle_models(rng, 2)]
    for setting in WITNESS_SETTINGS:
        for state in states:
            got = joint_distribution(state, setting)
            expected = oracles.joint_table(_array(state), setting)
            assert list(got) == list(expected)
            assert list(got.values()) == pytest.approx(list(expected.values()), abs=_ORACLE_TOL)
            assert min(got.values()) >= 0.0


def test_reference_tables_are_consistent():
    assert tuple(REFERENCE_VISIBILITIES) == DETECTOR_PAIRS
    assert tuple(REFERENCE_WITNESS_TERMS) == WITNESS_OBSERVABLES
    assert COINCIDENCE_RATE_HZ > 0
    for value, err in REFERENCE_WITNESS_TERMS.values():
        assert 0.0 < value < 1.0 and err > 0.0
    # the acceptance gate reads some of these only through a mean or a
    # margin, so a moved digit or a renamed key would pass it
    quoted = {
        "REFERENCE_WITNESS_TERMS": {
            "XXIZ": (0.9070, 0.0036),
            "XXZI": (0.9076, 0.0035),
            "IIZZ": (0.9812, 0.0016),
            "IZXX": (0.9071, 0.0037),
            "ZIXX": (0.8911, 0.0040),
            "ZZII": (0.9372, 0.0030),
        },
        "REFERENCE_WITNESS": (-0.766, 0.004),
        "REFERENCE_FIDELITY_BOUND": (0.883, 0.002),
        "REFERENCE_SEARCH_SUCCESS": (0.961, 0.002),
        "REFERENCE_SEARCH_NO_FEEDFORWARD": (0.249, 0.004),
        "REFERENCE_HORSESHOE_FIDELITIES": {
            (0, 0): (0.954, 0.003),
            (0, 1): (0.940, 0.004),
            (1, 0): (0.936, 0.005),
            (1, 1): (0.910, 0.005),
        },
        "REFERENCE_BOX_FIDELITIES": {
            (0, 0): (0.935, 0.005),
            (0, 1): (0.962, 0.004),
            (1, 0): (0.969, 0.003),
            (1, 1): (0.975, 0.003),
        },
        "REFERENCE_VISIBILITIES": {
            "D1-D2": (0.842, 0.008),
            "D1-D4": (0.943, 0.006),
            "D3-D2": (0.968, 0.004),
            "D3-D4": (0.949, 0.006),
        },
    }
    tables = {name: table for name, table in vars(photonics).items() if "REFERENCE_" in name}
    assert tables == quoted
