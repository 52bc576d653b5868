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
    box_equivalence,
    build_cluster,
    c4_state,
    horseshoe_equivalence,
    stabilizer_generators,
    to_box_frame,
    to_horseshoe_frame,
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
    GateOutputSpec,
    MeasurementPattern,
    bell_probabilities,
    box_gate,
    box_pattern,
    branch_distribution,
    grover_run,
    horseshoe_gate,
    horseshoe_pattern,
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
