"""Physical layer: encoding, source, noise, and measurement apparatus.

The four qubits live on two photons, each carrying a polarization and
a spatial (path) degree of freedom:

    qubit index   carrier                  logical 0 / 1
    0             photon B polarization    H / V
    1             photon A polarization    H / V
    2             photon A path            L / R
    3             photon B path            L / R

The source emits ((HH + VV) LL + e^{i theta} (HH - VV) RR)/2; at
theta = 0 this is exactly the linear cluster.  Imperfections are
modelled by independent phase damping on the two path qubits (the
interferometric arms) followed by an isotropic white noise admixture.

The witness is read in two coincidence settings (``WITNESS_SETTINGS``,
which lists the three stabilizer words each gives), each named by the
Pauli word whose bases (qcore's) it reads, qubit by qubit in register order:

    XXZZ    polarizations along +/-, paths read in Z (which arm)
    ZZXX    polarizations in H/V, both arms interfered on beam splitters
            (a B(0) path measurement, X's basis)

Outcome bit 0 always maps to the first label of a basis (H, L, R', +),
so a Pauli eigenvalue is (-1)**bit at every position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .qcore import (
    DensityMatrix,
    State,
    StateVector,
    _check_finite,
    _check_integer,
    _check_member,
    _check_sequence,
    _check_state,
    _check_type,
    _check_unit,
    _density_array,
    _rotated_diagonal,
    _word_rotation,
)

# ---------------------------------------------------------------------------
# reference values from the demonstration this package models
# ---------------------------------------------------------------------------

# setting name -> the stabilizer words its coincidence table gives
WITNESS_SETTINGS: Dict[str, Tuple[str, ...]] = {
    "XXZZ": ("XXIZ", "XXZI", "IIZZ"),
    "ZZXX": ("IZXX", "ZIXX", "ZZII"),
}

WITNESS_OBSERVABLES = tuple(word for words in WITNESS_SETTINGS.values() for word in words)

# measured stabilizer expectations (value, standard error)
REFERENCE_WITNESS_TERMS = {
    "XXIZ": (0.9070, 0.0036),
    "XXZI": (0.9076, 0.0035),
    "IIZZ": (0.9812, 0.0016),
    "IZXX": (0.9071, 0.0037),
    "ZIXX": (0.8911, 0.0040),
    "ZZII": (0.9372, 0.0030),
}
REFERENCE_WITNESS = (-0.766, 0.004)
REFERENCE_FIDELITY_BOUND = (0.883, 0.002)

REFERENCE_SEARCH_SUCCESS = (0.961, 0.002)
REFERENCE_SEARCH_NO_FEEDFORWARD = (0.249, 0.004)

# branch fidelities for outcomes (s2, s3), horseshoe then box layout
REFERENCE_HORSESHOE_FIDELITIES = {
    (0, 0): (0.954, 0.003),
    (0, 1): (0.940, 0.004),
    (1, 0): (0.936, 0.005),
    (1, 1): (0.910, 0.005),
}
REFERENCE_BOX_FIDELITIES = {
    (0, 0): (0.935, 0.005),
    (0, 1): (0.962, 0.004),
    (1, 0): (0.969, 0.003),
    (1, 1): (0.975, 0.003),
}

REFERENCE_VISIBILITIES = {
    "D1-D2": (0.842, 0.008),
    "D1-D4": (0.943, 0.006),
    "D3-D2": (0.968, 0.004),
    "D3-D4": (0.949, 0.006),
}

COINCIDENCE_RATE_HZ = 1.2e4


# ---------------------------------------------------------------------------
# encoding: the register layout is the table in the module docstring
# ---------------------------------------------------------------------------

_PATH_QUBITS = {"A": 2, "B": 3}


# ---------------------------------------------------------------------------
# source
# ---------------------------------------------------------------------------


def source_state(theta: float) -> StateVector:
    """State emitted by the source: ((HH+VV)LL + e^{i theta}(HH-VV)RR)/2.

    theta is the relative phase of the RR double pair against LL; at
    theta = 0 this equals the linear cluster state componentwise.
    """
    return StateVector(_source_amplitudes(_check_finite(theta, "theta")))


def _source_amplitudes(thetas) -> np.ndarray:
    """Source amplitudes for every phase in ``thetas`` (shape + (16,))."""
    phase = np.exp(1j * np.asarray(thetas, dtype=float))
    amps = np.zeros(phase.shape + (16,), dtype=complex)
    amps[..., 0b0000] = 0.5
    amps[..., 0b1100] = 0.5
    amps[..., 0b0011] = 0.5 * phase
    amps[..., 0b1111] = -0.5 * phase
    return amps


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Phase damping of the two path qubits plus white noise.

    path_dephasing_a, path_dephasing_b
        Coherences involving the respective path qubit shrink by
        (1 - lambda).  Models arm length jitter of each interferometer.
    white_noise
        Admixture weight p of the maximally mixed state.

    ``NoiseModel()``, every parameter 0, is the ideal model.
    """

    path_dephasing_a: float = 0.0
    path_dephasing_b: float = 0.0
    white_noise: float = 0.0

    def __post_init__(self):
        for name in ("path_dephasing_a", "path_dephasing_b", "white_noise"):
            _check_unit(getattr(self, name), name)


def apply_noise(ideal: State, model: NoiseModel) -> DensityMatrix:
    """Send a four-qubit state through the noise channel."""
    _check_state(ideal, "ideal", 4)
    model = _check_type(model, "model", NoiseModel)
    return DensityMatrix(_noise_channel(_density_array(ideal), model))


def _noisy(amps: np.ndarray, model: NoiseModel) -> np.ndarray:
    """The ket ``amps``, or under a nonzero parameter :func:`apply_noise`'s matrix, unchecked."""
    noisy = any(vars(model).values())
    return _noise_channel(np.outer(amps, amps.conj()), model) if noisy else amps


def _bits_differ(qubit: int) -> np.ndarray:
    """Read-only 16x16 mask of the entries whose row and column differ in ``qubit``'s bit."""
    bits = (np.arange(16) >> (3 - qubit)) & 1
    differ = np.not_equal.outer(bits, bits)
    differ.setflags(write=False)
    return differ


# photon -> the entries of the register matrix that its path dephasing shrinks
_DEPHASING_MASKS = {photon: _bits_differ(qubit) for photon, qubit in _PATH_QUBITS.items()}


def _noise_channel(rho: np.ndarray, model: NoiseModel) -> np.ndarray:
    """The noise channel on a 16x16 register matrix, its leading d x d block
    (the fringes' 4x4 HH block) or a stack of either, entry by entry with each
    mask's leading block: a block comes out as that block of the full result, bit for bit."""
    d = rho.shape[-1]
    for photon, lam in (("A", model.path_dephasing_a), ("B", model.path_dephasing_b)):
        if lam:
            rho = np.where(_DEPHASING_MASKS[photon][:d, :d], (1.0 - lam) * rho, rho)
    p = model.white_noise
    if p:
        rho = (1.0 - p) * rho + p * np.eye(d) / 16.0
    return rho


def fit_noise(targets: Sequence[float]) -> Tuple[NoiseModel, float]:
    """Least-squares noise parameters for six measured stabilizer values.

    ``targets`` follows WITNESS_OBSERVABLES order.  Under the noise model
    XXIZ, XXZI, IIZZ and ZZII each equal keep = 1 - p, and IZXX and ZIXX
    each equal keep * q with q = (1 - lambda_A)(1 - lambda_B), so the six
    values only determine p and q; the returned model uses the gauge
    lambda_A = 0 with the whole path dephasing attributed to photon B.

    The fit is the exact least-squares solution in closed form: keep is
    the mean of the first four values and keep * q the mean of the other
    two, when that gives 0 <= q <= 1.  Otherwise the minimum lies on the
    edge q = 0 (keep the mean of the four) or q = 1 (keep the mean of all
    six), with keep clipped at 0; no target exceeds 1, so keep never
    does.  When keep = 0, q has no effect and is reported as 1.

    Returns (model, residual) with residual the summed squared misfit.
    """
    values = enumerate(_check_sequence(targets, "targets", 6, ordered=True))
    checked = [_check_unit(v, f"targets[{i}]", -1.0) for i, v in values]
    named = dict(zip(WITNESS_OBSERVABLES, checked))
    flat = [named[w] for w in ("XXIZ", "XXZI", "IIZZ", "ZZII")]
    mixed = [named[w] for w in ("IZXX", "ZIXX")]

    def residual(keep: float, q: float) -> float:
        return sum((v - keep) ** 2 for v in flat) + sum((v - keep * q) ** 2 for v in mixed)

    keep, keep_q = sum(flat) / 4.0, sum(mixed) / 2.0
    candidates = [(max(0.0, keep), 0.0), (max(0.0, (sum(flat) + sum(mixed)) / 6.0), 1.0)]
    if keep > 0.0 and 0.0 <= keep_q <= keep:
        candidates.append((keep, keep_q / keep))
    keep, q = min(candidates, key=lambda c: residual(*c))
    if keep == 0.0:
        q = 1.0
    return NoiseModel(0.0, 1.0 - q, 1.0 - keep), residual(keep, q)


# ---------------------------------------------------------------------------
# apparatus
# ---------------------------------------------------------------------------


# setting name -> its readout rotation, built once (read-only): the product of
# its letters' bases in register order (B pol, A pol, A path, B path)
_SETTING_ROTATIONS = {name: _word_rotation(name) for name in WITNESS_SETTINGS}


def _check_setting(setting) -> None:
    _check_member(setting, "setting", tuple(WITNESS_SETTINGS))


# joint outcome keys: bit strings in register order, indexed like basis states
_OUTCOME_KEYS = tuple(format(index, "04b") for index in range(16))


def joint_distribution(state: State, setting: str) -> Dict[str, float]:
    """Probabilities of the 16 coincidence outcomes in a witness setting.

    ``setting`` names an entry of WITNESS_SETTINGS.  Keys are bit strings
    in register order (qubits 1..4); bit 0 stands for the first label of
    each basis, so eigenvalue signs follow (-1)**bit.  The probabilities
    are the diagonal of the state after the setting's readout rotation
    (x)U, clipped at 0.
    """
    _check_setting(setting)
    table = _joint_table(_check_state(state, "state", 4), setting)
    return dict(zip(_OUTCOME_KEYS, table.tolist()))


def _joint_table(a: np.ndarray, setting: str) -> np.ndarray:
    """:func:`joint_distribution`'s values for a four-qubit state array, unchecked."""
    return np.maximum(_rotated_diagonal(_SETTING_ROTATIONS[setting], a), 0.0)


# ---------------------------------------------------------------------------
# interference fringes
# ---------------------------------------------------------------------------

# detector name -> (photon, output port bit after the beam splitter)
_DETECTORS = {"D1": ("A", 0), "D3": ("A", 1), "D2": ("B", 0), "D4": ("B", 1)}

DETECTOR_PAIRS = ("D1-D2", "D1-D4", "D3-D2", "D3-D4")


def _parse_pair(detector_pair: str, name: str) -> Tuple[int, int]:
    name_a, name_b = _check_member(detector_pair, name, DETECTOR_PAIRS).split("-")
    return _DETECTORS[name_a][1], _DETECTORS[name_b][1]


# both beam splitters, a Hadamard on each path qubit: the word XX's rotation
_BEAM_SPLITTERS = _word_rotation("XX")

# phases per stack, so a long scan needs no more than ~256 KB per stack
_FRINGE_BLOCK = 1024

# phases per scan: the whole phase grid is allocated at once
_MAX_SAMPLES = 65536


def _check_samples(samples, name: str) -> int:
    """``samples`` as an int, once it is an even integer in [4, 65536]."""
    samples = _check_integer(samples, name, 4, _MAX_SAMPLES)
    if samples % 2:
        raise ValueError(f"{name} must be even, got {samples}")
    return samples


def _fringe_table(model: NoiseModel, thetas) -> np.ndarray:
    """H-polarized coincidence probabilities behind both beam splitters.

    Both polarizations read H, so only the leading 4x4 (HH) block of the
    noisy source matters: for every phase in ``thetas`` it is built from
    the four HH amplitudes as one (n, 4, 4) stack, unchecked (it is never
    returned, and ``NoiseModel`` checked the model), rotated by the beam
    splitters, and its diagonal read off.  Returns an array of shape
    (len(thetas), 2, 2) indexed [theta, photon A port, photon B port],
    which holds the fringes of all four detector pairs.
    """
    if len(thetas) > _FRINGE_BLOCK:
        blocks = [thetas[i : i + _FRINGE_BLOCK] for i in range(0, len(thetas), _FRINGE_BLOCK)]
        return np.concatenate([_fringe_table(model, block) for block in blocks])
    amps = _source_amplitudes(thetas)[:, :4]
    stack = _noise_channel(amps[:, :, None] * amps[:, None, :].conj(), model)
    return _rotated_diagonal(_BEAM_SPLITTERS, stack).reshape(-1, 2, 2)


@dataclass(frozen=True)
class VisibilityScan:
    """Sampled fringe of one detector pair over a full phase turn."""

    detector_pair: str
    thetas: Tuple[float, ...]
    probabilities: Tuple[float, ...]
    visibility: float


def visibility_scans(
    model: NoiseModel, detector_pairs: Sequence[str], samples: int = 24
) -> Tuple[VisibilityScan, ...]:
    """Scan the source phase once and report the fringe of each pair.

    Visibility is (max - min)/(max + min) over the sampled fringe.
    ``samples`` must be an even integer in [4, 65536], so that it includes
    both extremes of this source (theta = 0 and pi); an odd count
    understates the visibility.  ``detector_pairs`` lists DETECTOR_PAIRS.
    """
    samples = _check_samples(samples, "samples")
    detector_pairs = _check_sequence(detector_pairs, "detector_pairs", ordered=True)
    ports = [_parse_pair(pair, f"detector_pairs[{i}]") for i, pair in enumerate(detector_pairs)]
    _check_type(model, "model", NoiseModel)
    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    table = _fringe_table(model, thetas)
    thetas = tuple(thetas.tolist())
    scans = []
    for pair, (port_a, port_b) in zip(detector_pairs, ports):
        probs = table[:, port_a, port_b].tolist()
        top, bottom = max(probs), min(probs)
        scans.append(
            VisibilityScan(
                detector_pair=pair,
                thetas=thetas,
                probabilities=tuple(probs),
                visibility=(top - bottom) / (top + bottom),
            )
        )
    return tuple(scans)
