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

Measurement apparatus for one photon comes in two kinds:

    path_Z           path read in Z (which arm), polarization analyzed
    path_B_alpha     the two arms interfere on a beam splitter, giving
                     a B(alpha) path measurement; polarization analyzed

Outcome bit 0 always maps to the first label of a basis (H, L, R', +),
so a Pauli eigenvalue is (-1)**bit at every position.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .qcore import (
    DensityMatrix,
    State,
    StateVector,
    _basis_probabilities,
    _check_density,
    _density_array,
    _is_number,
    _rotated_diagonal,
    apply_gate,
    hadamard,
)

# ---------------------------------------------------------------------------
# reference values from the demonstration this package models
# ---------------------------------------------------------------------------

WITNESS_OBSERVABLES = ("XXIZ", "XXZI", "IIZZ", "IZXX", "ZIXX", "ZZII")

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


@dataclass(frozen=True)
class SourceParams:
    """Adjustable source settings; theta is the relative phase of the
    RR double pair against LL."""

    theta: float = 0.0

    def __post_init__(self):
        if not (_is_number(self.theta) and math.isfinite(self.theta)):
            raise ValueError(f"theta must be a finite number, got {self.theta!r}")


def source_state(params: SourceParams) -> StateVector:
    """State emitted by the source: ((HH+VV)LL + e^{i theta}(HH-VV)RR)/2.

    At theta = 0 this equals the linear cluster state componentwise.
    """
    return StateVector(_source_amplitudes(params.theta))


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
    """

    path_dephasing_a: float = 0.0
    path_dephasing_b: float = 0.0
    white_noise: float = 0.0

    def __post_init__(self):
        for name in ("path_dephasing_a", "path_dephasing_b", "white_noise"):
            value = getattr(self, name)
            if not (_is_number(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    @classmethod
    def ideal(cls) -> "NoiseModel":
        return cls(0.0, 0.0, 0.0)

    def is_ideal(self) -> bool:
        return (
            self.path_dephasing_a == 0.0
            and self.path_dephasing_b == 0.0
            and self.white_noise == 0.0
        )


def apply_noise(ideal: State, model: NoiseModel) -> DensityMatrix:
    """Send a four-qubit state through the noise channel."""
    if ideal.num_qubits != 4:
        raise ValueError("the noise model is defined on the four-qubit register")
    return DensityMatrix(_noise_channel(_density_array(ideal), model))


def _noise_channel(rho: np.ndarray, model: NoiseModel) -> np.ndarray:
    """The noise channel on one 16x16 matrix or a stack of them."""
    for photon, lam in (("A", model.path_dephasing_a), ("B", model.path_dephasing_b)):
        if lam == 0.0:
            continue
        qubit = _PATH_QUBITS[photon]
        bits = (np.arange(16) >> (3 - qubit)) & 1
        differ = bits[:, None] != bits[None, :]
        rho = np.where(differ, (1.0 - lam) * rho, rho)
    p = model.white_noise
    if p:
        rho = (1.0 - p) * rho + p * np.eye(16) / 16.0
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
    values = tuple(float(t) for t in targets)
    if len(values) != 6:
        raise ValueError("expected six target values")
    for v in values:
        if not (math.isfinite(v) and -1.0 <= v <= 1.0):
            raise ValueError(f"target {v!r} is not an expectation value")
    named = dict(zip(WITNESS_OBSERVABLES, values))
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


def beam_splitter(state: State, path_qubit: int) -> State:
    """Interfere the two arms of one path qubit (a Hadamard on it).

    Output port 0 is labelled R', port 1 is L'.
    """
    if state.num_qubits == 4 and path_qubit not in _PATH_QUBITS.values():
        warnings.warn(
            f"qubit {path_qubit} is not a path mode of the four-qubit encoding",
            stacklevel=2,
        )
    return apply_gate(state, path_qubit, hadamard())


_APPARATUS_KINDS = ("path_Z", "path_B_alpha")
_POL_BASES = ("HV", "PM")

# A readout basis is a 2x2 unitary whose row k is the bra of outcome k:
# rotating a qubit by it turns the readout into a Z measurement.
_Z_BASIS = np.eye(2, dtype=complex)
_PM_BASIS = hadamard().matrix


def _b_alpha_basis(alpha: float) -> np.ndarray:
    phase = np.exp(-1j * alpha)
    return np.array([[1.0, phase], [1.0, -phase]]) / math.sqrt(2)


@dataclass(frozen=True)
class ApparatusSetting:
    """Per-photon analysis configuration.

    kind selects how the path qubit is read; polarization_basis is the
    polarization analysis (HV or PM, i.e. +/-).  ``alpha`` is only
    meaningful (and required) for path_B_alpha, the beam splitter with
    a phase shifter in one input arm.
    """

    kind: str
    alpha: Optional[float] = None
    polarization_basis: str = "HV"

    def __post_init__(self):
        if self.kind not in _APPARATUS_KINDS:
            raise ValueError(f"unknown apparatus kind {self.kind!r}")
        if self.polarization_basis not in _POL_BASES:
            raise ValueError(
                f"polarization basis must be HV or PM, got {self.polarization_basis!r}"
            )
        if self.kind == "path_B_alpha":
            if not (_is_number(self.alpha) and math.isfinite(self.alpha)):
                raise ValueError(
                    f"path_B_alpha needs a finite number alpha, got {self.alpha!r}"
                )
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} does not take an alpha")

    def _path_readout(self) -> np.ndarray:
        """Readout basis of the path qubit: rows R', L' or L, R."""
        if self.kind == "path_B_alpha":
            return _b_alpha_basis(self.alpha)
        return _Z_BASIS

    def _polarization_readout(self) -> np.ndarray:
        """Readout basis of the polarization qubit: rows +, - or H, V."""
        if self.polarization_basis == "PM":
            return _PM_BASIS
        return _Z_BASIS


WITNESS_SETTINGS: Dict[str, Tuple[ApparatusSetting, ApparatusSetting]] = {
    # polarizations along +/- and paths in Z: words XXIZ, XXZI, IIZZ
    "XXZZ": (
        ApparatusSetting("path_Z", polarization_basis="PM"),
        ApparatusSetting("path_Z", polarization_basis="PM"),
    ),
    # polarizations in H/V and paths interfered on beam splitters:
    # words IZXX, ZIXX, ZZII
    "ZZXX": (
        ApparatusSetting("path_B_alpha", alpha=0.0, polarization_basis="HV"),
        ApparatusSetting("path_B_alpha", alpha=0.0, polarization_basis="HV"),
    ),
}


# joint outcome keys: bit strings in register order, indexed like basis states
_OUTCOME_KEYS = tuple(format(index, "04b") for index in range(16))


def _register_readouts(settings: Tuple[ApparatusSetting, ApparatusSetting]):
    """Per-qubit readout bases in register order."""
    setting_a, setting_b = settings
    return (
        setting_b._polarization_readout(),
        setting_a._polarization_readout(),
        setting_a._path_readout(),
        setting_b._path_readout(),
    )


def joint_distribution(
    state: State, settings: Tuple[ApparatusSetting, ApparatusSetting]
) -> Dict[str, float]:
    """Probabilities of the 16 coincidence outcomes for a setting pair.

    Keys are bit strings in register order (qubits 1..4); bit 0 stands
    for the first label of each basis, so eigenvalue signs follow
    (-1)**bit.  Each qubit is rotated into its readout basis, and the
    probabilities are the diagonal of the rotated state.
    """
    if state.num_qubits != 4:
        raise ValueError("joint distribution is defined on the four-qubit register")
    probs = np.maximum(_basis_probabilities(state, _register_readouts(settings)), 0.0)
    return dict(zip(_OUTCOME_KEYS, probs.tolist()))


# ---------------------------------------------------------------------------
# interference fringes
# ---------------------------------------------------------------------------

# detector name -> (photon, output port bit after the beam splitter)
_DETECTORS = {"D1": ("A", 0), "D3": ("A", 1), "D2": ("B", 0), "D4": ("B", 1)}

DETECTOR_PAIRS = ("D1-D2", "D1-D4", "D3-D2", "D3-D4")


def _parse_pair(detector_pair: str) -> Tuple[int, int]:
    if detector_pair not in DETECTOR_PAIRS:
        raise ValueError(
            f"detector pair must be one of {DETECTOR_PAIRS}, got {detector_pair!r}"
        )
    name_a, name_b = detector_pair.split("-")
    return _DETECTORS[name_a][1], _DETECTORS[name_b][1]


# both beam splitters, a Hadamard on each path qubit
_BEAM_SPLITTERS = np.kron(hadamard().matrix, hadamard().matrix)

# phases per stack, so a long scan needs no more than ~4 MB per stack
_FRINGE_BLOCK = 1024


def _fringe_table(model: NoiseModel, thetas) -> np.ndarray:
    """H-polarized coincidence probabilities behind both beam splitters.

    The noisy source for every phase in ``thetas`` is built as one stack
    and checked once.  Both polarizations read H, so only the leading
    4x4 block (the two path qubits) matters; it is rotated by the beam
    splitters and its diagonal read off.  Returns an array of shape
    (len(thetas), 2, 2) indexed [theta, photon A port, photon B port],
    which holds the fringes of all four detector pairs.
    """
    if len(thetas) > _FRINGE_BLOCK:
        blocks = [thetas[i : i + _FRINGE_BLOCK] for i in range(0, len(thetas), _FRINGE_BLOCK)]
        return np.concatenate([_fringe_table(model, block) for block in blocks])
    amps = _source_amplitudes(thetas)
    stack = _noise_channel(amps[:, :, None] * amps[:, None, :].conj(), model)
    _check_density(stack)
    return _rotated_diagonal(_BEAM_SPLITTERS, stack[:, :4, :4]).reshape(-1, 2, 2)


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
    ``samples`` must be even, so that it includes both extremes of this
    source (theta = 0 and pi); an odd count understates the visibility.
    """
    if samples < 4:
        raise ValueError("need at least four samples per turn")
    if samples % 2:
        raise ValueError(f"samples must be even, got {samples}")
    ports = [_parse_pair(pair) for pair in detector_pairs]
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
