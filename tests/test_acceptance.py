"""Acceptance gate: nine criteria covering the witness arithmetic, the
ideal protocol suite, the noise fit, counting statistics, and the
property checks.  Each test prints one verdict line with its measured
margins; the asserts pin the tolerances stated in the detail strings."""

import math

import numpy as np
import pytest

from onewaysim.analysis import (
    gate_fidelity_report,
    simulate_counts,
    simulate_witness_records,
    witness_from_counts,
    witness_value,
)
from onewaysim.cluster import (
    BOX_GRAPH,
    HORSESHOE_GRAPH,
    ClusterGraph,
    box_equivalence,
    build_cluster,
    c4_state,
    horseshoe_equivalence,
    stabilizer_generators,
)
from onewaysim.mbqc import (
    BELL_LABELS,
    GateOutputSpec,
    bell_probabilities,
    box_gate,
    box_pattern,
    grover_run,
    horseshoe_gate,
    horseshoe_pattern,
    run_pattern,
)
from onewaysim.photonics import (
    COINCIDENCE_RATE_HZ,
    REFERENCE_BOX_FIDELITIES,
    REFERENCE_FIDELITY_BOUND,
    REFERENCE_HORSESHOE_FIDELITIES,
    REFERENCE_SEARCH_NO_FEEDFORWARD,
    REFERENCE_SEARCH_SUCCESS,
    REFERENCE_WITNESS,
    REFERENCE_WITNESS_TERMS,
    WITNESS_OBSERVABLES,
    WITNESS_SETTINGS,
    NoiseModel,
    apply_noise,
    fit_noise,
    joint_distribution,
    source_state,
)
from onewaysim.qcore import (
    DensityMatrix,
    PauliString,
    StateVector,
    entanglement_entropy,
    expectation,
    fidelity,
    overlap,
)

GRID = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)
BRANCHES = ((0, 0), (0, 1), (1, 0), (1, 1))
MARKS = ("00", "01", "10", "11")


@pytest.fixture
def verdict(capfd):
    """One visible pass/fail line per criterion, outside pytest capture."""

    def emit(num: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(
                f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}",
                flush=True,
            )

    return emit


def _fitted_model() -> NoiseModel:
    targets = [REFERENCE_WITNESS_TERMS[w][0] for w in WITNESS_OBSERVABLES]
    model, _ = fit_noise(targets)
    return model


def test_criterion_1_witness_table_arithmetic(verdict):
    values = [REFERENCE_WITNESS_TERMS[w][0] for w in WITNESS_OBSERVABLES]
    witness = (4.0 - sum(values)) / 2.0
    bound = 0.5 - 0.5 * witness
    ok = (
        abs(witness - (-0.7656)) <= 5e-4
        and abs(bound - 0.8828) <= 5e-4
        and abs(witness - REFERENCE_WITNESS[0]) <= REFERENCE_WITNESS[1]
        and abs(bound - REFERENCE_FIDELITY_BOUND[0]) <= REFERENCE_FIDELITY_BOUND[1]
    )
    verdict(
        1,
        ok,
        "measured stabilizer table gives witness %.4f (quoted %.3f+-%.3f) and "
        "fidelity bound %.4f (quoted %.3f+-%.3f), tolerance 5e-4 on the arithmetic"
        % (
            witness,
            REFERENCE_WITNESS[0],
            REFERENCE_WITNESS[1],
            bound,
            REFERENCE_FIDELITY_BOUND[0],
            REFERENCE_FIDELITY_BOUND[1],
        ),
    )
    assert ok


def test_criterion_2_ideal_witness_suite(verdict):
    report = witness_value(c4_state())
    term_err = max(abs(v - 1.0) for v in report.terms.values())
    witness_err = abs(report.witness - (-1.0))
    source_err = float(
        np.max(np.abs(source_state(0.0).amplitudes - c4_state().amplitudes))
    )
    ok = term_err <= 1e-10 and witness_err <= 1e-10 and source_err <= 1e-10
    verdict(
        2,
        ok,
        "ideal cluster: six stabilizer terms off by %.1e, witness off by %.1e, "
        "source state off by %.1e (tolerance 1e-10)"
        % (term_err, witness_err, source_err),
    )
    assert ok


def test_criterion_3_search_is_deterministic(verdict):
    worst_hit = 1.0
    worst_flat = 0.0
    for marked in MARKS:
        with_ff = grover_run(marked, feedforward=True)
        worst_hit = min(worst_hit, with_ff[marked])
        without = grover_run(marked, feedforward=False)
        worst_flat = max(worst_flat, max(abs(v - 0.25) for v in without.values()))
    ok = abs(worst_hit - 1.0) <= 1e-10 and worst_flat <= 1e-10
    verdict(
        3,
        ok,
        "search with feed-forward finds every mark (worst probability %.12f); "
        "without it every answer sits at 0.25 (worst deviation %.1e); tolerance 1e-10"
        % (worst_hit, worst_flat),
    )
    assert ok


def test_criterion_4_gate_formulas_match_simulation(verdict):
    worst = 1.0
    for kind, graph, pattern_fn, gate_fn in (
        ("horseshoe", HORSESHOE_GRAPH, horseshoe_pattern, horseshoe_gate),
        ("box", BOX_GRAPH, box_pattern, box_gate),
    ):
        state = build_cluster(graph)
        for alpha in GRID:
            for beta in GRID:
                pattern = pattern_fn(alpha, beta, feedforward=False)
                for s2, s3 in BRANCHES:
                    _, _, residual = run_pattern(state, pattern, (s2, s3))
                    target = gate_fn(GateOutputSpec(alpha, beta, s2, s3))
                    worst = min(worst, fidelity(residual, target))

    entropy_err = max(
        abs(entanglement_entropy(horseshoe_gate(GateOutputSpec(a, b)), [0]) - 1.0)
        for a in GRID
        for b in GRID
    )
    box_states = [box_gate(GateOutputSpec(math.pi, 0.0, s2, s3)) for s2, s3 in BRANCHES]
    box_entropy = max(entanglement_entropy(s, [0]) for s in box_states)
    box_overlap = max(
        overlap(box_states[i], box_states[j])
        for i in range(4)
        for j in range(i + 1, 4)
    )
    ok = (
        worst >= 1.0 - 1e-10
        and entropy_err <= 1e-9
        and box_entropy <= 1e-9
        and box_overlap <= 1e-9
    )
    verdict(
        4,
        ok,
        "closed-form gate outputs match forced runs over a 5x5 angle grid and all "
        "branches (worst fidelity 1-%.1e); horseshoe outputs maximally entangled "
        "(entropy off by %.1e); box alpha=pi beta=0 outputs are orthogonal products "
        "(entropy %.1e, worst overlap %.1e)"
        % (1.0 - worst, entropy_err, box_entropy, box_overlap),
    )
    assert ok


def test_criterion_5_output_discrimination(verdict):
    labels = {}
    worst = 1.0
    for s2, s3 in BRANCHES:
        state = horseshoe_gate(GateOutputSpec(0.0, 0.0, s2, s3))
        probs = bell_probabilities(state)
        label = max(probs, key=probs.get)
        labels[(s2, s3)] = label
        worst = min(worst, probs[label])
    distinct = sorted(labels.values()) == sorted(BELL_LABELS)
    ok = distinct and abs(worst - 1.0) <= 1e-10
    verdict(
        5,
        ok,
        "the four entangled gate outputs map to four distinct interferometer "
        "labels %s deterministically (worst probability %.12f, tolerance 1e-10)"
        % (sorted(labels.values()), worst),
    )
    assert ok


def test_criterion_6_graph_frame_equivalences(verdict):
    _, _, horseshoe = horseshoe_equivalence()
    _, _, box = box_equivalence()
    ok = abs(horseshoe - 1.0) <= 1e-10 and abs(box - 1.0) <= 1e-10
    verdict(
        6,
        ok,
        "locally rotated source state equals both built clusters: horseshoe "
        "overlap 1-%.1e, box overlap 1-%.1e (tolerance 1e-10)"
        % (1.0 - horseshoe, 1.0 - box),
    )
    assert ok


def test_criterion_7_fitted_model_reproduces_the_experiment(verdict):
    model = _fitted_model()
    noisy = apply_noise(c4_state(), model)

    witness = witness_value(noisy).witness
    witness_diff = abs(witness - REFERENCE_WITNESS[0])

    search = grover_run("00", feedforward=True, input_state=noisy)["00"]
    search_diff = abs(search - REFERENCE_SEARCH_SUCCESS[0])
    flat = grover_run("00", feedforward=False, input_state=noisy)
    flat_diff = abs(max(flat.values()) - REFERENCE_SEARCH_NO_FEEDFORWARD[0])

    horseshoe = gate_fidelity_report("horseshoe", 0.0, 0.0, noise=model)
    horseshoe_mean = sum(horseshoe.values()) / 4.0
    horseshoe_quoted = sum(v for v, _ in REFERENCE_HORSESHOE_FIDELITIES.values()) / 4.0
    horseshoe_diff = abs(horseshoe_mean - horseshoe_quoted)

    box = gate_fidelity_report("box", 0.0, 0.0, noise=model)
    box_mean = sum(box.values()) / 4.0
    box_quoted = sum(v for v, _ in REFERENCE_BOX_FIDELITIES.values()) / 4.0
    box_diff = abs(box_mean - box_quoted)

    ok = (
        witness_diff <= 0.02
        and search_diff <= 0.02
        and flat_diff <= 0.02
        and horseshoe_diff <= 0.04
        and box_diff <= 0.04
    )
    verdict(
        7,
        ok,
        "fitted noise model: witness %.4f vs quoted %.3f (diff %.4f <= 0.02), "
        "search success %.4f vs %.3f (diff %.4f <= 0.02), no-feed-forward max "
        "%.4f vs %.3f (diff %.4f <= 0.02), horseshoe gate mean %.4f vs %.4f "
        "(diff %.4f <= 0.04), box gate mean %.4f vs %.4f (diff %.4f <= 0.04)"
        % (
            witness,
            REFERENCE_WITNESS[0],
            witness_diff,
            search,
            REFERENCE_SEARCH_SUCCESS[0],
            search_diff,
            max(flat.values()),
            REFERENCE_SEARCH_NO_FEEDFORWARD[0],
            flat_diff,
            horseshoe_mean,
            horseshoe_quoted,
            horseshoe_diff,
            box_mean,
            box_quoted,
            box_diff,
        ),
    )
    assert ok


def test_criterion_8_count_statistics_are_realistic(verdict):
    model = _fitted_model()
    noisy = apply_noise(c4_state(), model)

    records = simulate_witness_records(noisy, COINCIDENCE_RATE_HZ, 1.0, seed=0)
    # the same counts, drawn setting by setting from the public tables
    chain = tuple(
        simulate_counts(joint_distribution(noisy, name), COINCIDENCE_RATE_HZ, 1.0, (0, index), name)
        for index, name in enumerate(sorted(WITNESS_SETTINGS))
    )
    assert chain == records
    report = witness_from_counts(records)
    term_lo = min(report.term_stderrs.values())
    term_hi = max(report.term_stderrs.values())
    terms_ok = 0.0008 <= term_lo and term_hi <= 0.0080
    witness_ok = 0.002 <= report.witness_stderr <= 0.008

    base = report.witness_stderr
    scaling_err = 0.0
    for duration in (4.0, 16.0):
        scaled = witness_from_counts(
            simulate_witness_records(noisy, COINCIDENCE_RATE_HZ, duration, seed=0)
        ).witness_stderr
        scaling_err = max(scaling_err, abs(scaled * math.sqrt(duration) / base - 1.0))
    scaling_ok = scaling_err <= 0.2

    ok = terms_ok and witness_ok and scaling_ok
    verdict(
        8,
        ok,
        "one second of counts at %.0f Hz: per-term standard errors %.4f..%.4f "
        "(window 0.0008..0.0080), witness standard error %.4f (quoted %.3f, "
        "window 0.002..0.008), 1/sqrt(duration) scaling off by %.1f%% over "
        "1 s, 4 s, 16 s (allowance 20%%)"
        % (
            COINCIDENCE_RATE_HZ,
            term_lo,
            term_hi,
            report.witness_stderr,
            REFERENCE_WITNESS[1],
            100.0 * scaling_err,
        ),
    )
    assert ok


def test_criterion_9_property_suites(verdict):
    rng = np.random.default_rng(987654321)

    # (a) the witness lower-bounds the cluster fidelity on any state
    bound_margin = math.inf
    for _ in range(1000):
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = DensityMatrix((g @ g.conj().T) / np.trace(g @ g.conj().T).real)
        bound = 0.5 - 0.5 * witness_value(rho).witness
        bound_margin = min(bound_margin, fidelity(rho, c4_state()) - bound)
    bound_ok = bound_margin >= -1e-10

    # (b) every generator stabilizes its built cluster
    stabilizer_err = 0.0
    graphs = [HORSESHOE_GRAPH, BOX_GRAPH]
    for _ in range(40):
        n = int(rng.integers(2, 7))
        edges = tuple(
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.5
        )
        graphs.append(ClusterGraph(n, edges))
    for graph in graphs:
        state = build_cluster(graph)
        for gen in stabilizer_generators(graph):
            stabilizer_err = max(stabilizer_err, abs(expectation(state, gen) - 1.0))
    stabilizer_ok = stabilizer_err <= 1e-10

    # (c) the noise channel always returns a valid density matrix and
    # scales Pauli words by its transfer factors
    channel_err = 0.0
    letters = np.array(list("IXYZ"))
    for _ in range(1000):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi = StateVector.normalized(amps)
        la, lb, p = (float(v) for v in rng.uniform(0.0, 1.0, size=3))
        model = NoiseModel(la, lb, p)
        rho = apply_noise(psi, model)  # constructor enforces validity
        channel_err = max(channel_err, abs(np.trace(rho.matrix).real - 1.0))
        word = "".join(rng.choice(letters, size=4))
        if word == "IIII":
            continue
        factor = 1.0 - p
        if word[2] in "XY":
            factor *= 1.0 - la
        if word[3] in "XY":
            factor *= 1.0 - lb
        channel_err = max(
            channel_err,
            abs(
                expectation(rho, PauliString(word))
                - factor * expectation(psi, PauliString(word))
            ),
        )
    channel_ok = channel_err <= 1e-10

    ok = bound_ok and stabilizer_ok and channel_ok
    verdict(
        9,
        ok,
        "1000 random density matrices keep fidelity >= bound (worst margin "
        "%.1e); stabilizers fix 42 built clusters (worst error %.1e); 1000 "
        "random noise channels stay trace-one, positive, and follow the "
        "transfer factors (worst error %.1e); tolerance 1e-10"
        % (bound_margin, stabilizer_err, channel_err),
    )
    assert ok
