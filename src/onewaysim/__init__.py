"""Simulator and analysis toolkit for one-way computing on a
two-photon four-qubit cluster state."""

from .qcore import (
    DensityMatrix,
    ImpossibleOutcomeError,
    PauliString,
    StateVector,
    entanglement_entropy,
    expectation,
    fidelity,
    overlap,
)
from .cluster import (
    BOX_GRAPH,
    ClusterGraph,
    HORSESHOE_GRAPH,
    build_cluster,
    c4_state,
    stabilizer_generators,
)
from .photonics import (
    COINCIDENCE_RATE_HZ,
    DETECTOR_PAIRS,
    NoiseModel,
    VisibilityScan,
    WITNESS_OBSERVABLES,
    WITNESS_SETTINGS,
    apply_noise,
    fit_noise,
    joint_distribution,
    source_state,
    visibility_scans,
)
from .mbqc import (
    MeasurementPattern,
    bell_probabilities,
    branch_distribution,
    frame_equivalence,
    gate_output,
    gate_pattern,
    grover_run,
    run_pattern,
)
from .analysis import (
    CountRecord,
    GroverReport,
    NoCountsError,
    WitnessReport,
    gate_fidelity_report,
    grover_report,
    simulate_counts,
    simulate_witness_records,
    witness_from_counts,
    witness_value,
)

__version__ = "0.1.0"
