"""Tests for witness evaluation, count simulation, and the gate and
search summaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onewaysim import analysis
from onewaysim.analysis import (
    CountRecord,
    GroverReport,
    WitnessReport,
    gate_fidelity_report,
    grover_report,
    simulate_counts,
    simulate_witness_records,
    witness_from_counts,
    witness_value,
)
from onewaysim.cluster import c4_state, to_box_frame, to_horseshoe_frame
from onewaysim.mbqc import (
    GateOutputSpec,
    box_gate,
    box_pattern,
    grover_run,
    horseshoe_gate,
    horseshoe_pattern,
    run_pattern,
)
from onewaysim.photonics import (
    DETECTOR_PAIRS,
    WITNESS_OBSERVABLES,
    WITNESS_SETTINGS,
    NoiseModel,
    apply_noise,
    source_state,
    visibility_scans,
)
from onewaysim.qcore import ImpossibleOutcomeError, StateVector, fidelity

from conftest import random_density, random_state

# frozen fit of the reference stabilizer table (see test_photonics for
# the closed form): white noise p and dephasing product q
FIT_P = 0.06675
FIT_Q = 0.9634074470934906
FITTED_MODEL = NoiseModel(0.0, 1.0 - FIT_Q, FIT_P)


def _fitted_state():
    return apply_noise(c4_state(), FITTED_MODEL)


# ---------------------------------------------------------------------------
# witness evaluation
# ---------------------------------------------------------------------------


def test_witness_on_ideal_cluster():
    report = witness_value(c4_state())
    assert isinstance(report, WitnessReport)
    for word in WITNESS_OBSERVABLES:
        assert report.terms[word] == pytest.approx(1.0, abs=1e-12)
    assert report.witness == pytest.approx(-1.0, abs=1e-12)
    assert report.fidelity_bound == pytest.approx(1.0, abs=1e-12)
    assert report.term_stderrs is None and report.witness_stderr is None


def test_witness_on_fitted_state():
    # witness = 2 - 2b - bq with b = 1 - p; the fitted model lands on
    # the mean of the four flat reference terms and the two mixed ones
    report = witness_value(_fitted_state())
    b = 1.0 - FIT_P
    assert report.witness == pytest.approx(2.0 - 2.0 * b - b * FIT_Q, abs=1e-12)
    assert report.witness == pytest.approx(-0.7656, abs=1e-4)
    assert report.fidelity_bound == pytest.approx(0.8828, abs=1e-4)


def test_witness_on_white_noise_only():
    rho = apply_noise(c4_state(), NoiseModel(0.0, 0.0, 0.5))
    report = witness_value(rho)
    for value in report.terms.values():
        assert value == pytest.approx(0.5, abs=1e-12)
    assert report.witness == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# count simulation
# ---------------------------------------------------------------------------


def test_simulate_counts_reproducible():
    probs = {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}
    a = simulate_counts(probs, 1000.0, 1.0, seed=5)
    b = simulate_counts(probs, 1000.0, 1.0, seed=5)
    assert a.counts == b.counts
    assert a.duration == 1.0 and a.rate == 1000.0
    c = simulate_counts(probs, 1000.0, 1.0, seed=6)
    assert c.counts != a.counts


def test_simulate_counts_total_scale():
    probs = {"0": 0.5, "1": 0.5}
    record = simulate_counts(probs, 10000.0, 2.0, seed=1)
    expected = 20000.0
    assert abs(record.total() - expected) < 5.0 * math.sqrt(expected)


def test_simulate_counts_validation():
    with pytest.raises(ValueError):
        simulate_counts({"0": 0.5, "1": 0.5}, 0.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        simulate_counts({"0": 0.5, "1": 0.5}, 100.0, -1.0, seed=0)
    with pytest.raises(ValueError):
        simulate_counts({}, 100.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        simulate_counts({"0": 0.7, "1": -0.3}, 100.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        simulate_counts({"0": 0.7, "1": 0.7}, 100.0, 1.0, seed=0)


def test_simulate_witness_records_shape():
    records = simulate_witness_records(c4_state(), rate=2000.0, duration=1.0, seed=3)
    assert len(records) == 2
    assert [r.setting for r in records] == sorted(WITNESS_SETTINGS)
    for record in records:
        assert abs(record.total() - 2000.0) < 5.0 * math.sqrt(2000.0)
        assert all(len(k) == 4 for k in record.counts)


# ---------------------------------------------------------------------------
# witness from counts
# ---------------------------------------------------------------------------


def _hand_built_records():
    # XXZZ setting: every coincidence in the all-zero outcome
    rec_a = CountRecord(
        counts={"0000": 100},
        duration=1.0,
        rate=100.0,
        setting="XXZZ",
    )
    # ZZXX setting: an even split between all-zero and all-one outcomes
    rec_b = CountRecord(
        counts={"0000": 50, "1111": 50},
        duration=1.0,
        rate=100.0,
        setting="ZZXX",
    )
    return [rec_a, rec_b]


def test_witness_from_hand_built_counts():
    report = witness_from_counts(_hand_built_records())
    # the XXZZ words all read +1; IZXX and ZIXX flip three signs on
    # '1111' and average to zero; ZZII flips two and stays +1
    assert report.terms["XXIZ"] == pytest.approx(1.0)
    assert report.terms["XXZI"] == pytest.approx(1.0)
    assert report.terms["IIZZ"] == pytest.approx(1.0)
    assert report.terms["IZXX"] == pytest.approx(0.0)
    assert report.terms["ZIXX"] == pytest.approx(0.0)
    assert report.terms["ZZII"] == pytest.approx(1.0)
    assert report.witness == pytest.approx(0.0)
    assert report.fidelity_bound == pytest.approx(0.5)
    # binomial stderr on a +/-1 estimate of zero from 100 counts
    assert report.term_stderrs["IZXX"] == pytest.approx(0.1)
    assert report.term_stderrs["XXIZ"] == pytest.approx(0.0, abs=1e-12)
    # per-setting sums: T2 spreads as [50*(3-1)^2 + 50*(-1-1)^2]/100^2
    assert report.witness_stderr == pytest.approx(0.1)
    assert report.fidelity_bound_stderr == pytest.approx(0.05)
    assert report.setting_totals == {"XXZZ": 100, "ZZXX": 100}


def test_witness_from_counts_merges_duplicate_settings():
    rec_a, rec_b = _hand_built_records()
    half_1 = CountRecord({"0000": 30, "1111": 20}, 0.5, 100.0, rec_b.setting)
    half_2 = CountRecord({"0000": 20, "1111": 30}, 0.5, 100.0, rec_b.setting)
    merged = witness_from_counts([rec_a, half_1, half_2])
    combined = witness_from_counts([rec_a, rec_b])
    assert merged.terms == combined.terms
    assert merged.witness == combined.witness


def test_witness_from_counts_validation():
    rec_a, rec_b = _hand_built_records()
    with pytest.raises(ValueError):
        witness_from_counts([rec_a])  # missing the ZZXX setting
    # the setting is one of the two names, nothing else
    for setting in (None, "XXXX", "zzxx", ("ZZXX",), WITNESS_SETTINGS["ZZXX"]):
        with pytest.raises(ValueError, match="setting must be one of"):
            witness_from_counts([rec_a, CountRecord({"0000": 1}, 1.0, 1.0, setting)])
    with pytest.raises(ValueError):
        witness_from_counts(
            [rec_a, CountRecord({"00": 1}, 1.0, 1.0, rec_b.setting)]
        )
    with pytest.raises(ValueError):
        witness_from_counts(
            [rec_a, CountRecord({"0000": -1}, 1.0, 1.0, rec_b.setting)]
        )
    # a count that is not an integer is rejected with its outcome key,
    # neither truncated nor, for a bool, read as 0 or 1
    for key, counts in (
        ("0000", {"0000": 99.9, "0001": 0.9}),
        ("0110", {"0110": True}),
        ("0011", {"0011": math.nan}),
    ):
        with pytest.raises(ValueError, match=f"'{key}'"):
            witness_from_counts([rec_a, CountRecord(counts, 1.0, 1.0, rec_b.setting)])


def test_setting_totals_stay_exact_past_float_precision():
    rec_a, rec_b = _hand_built_records()
    big = CountRecord({"0000": 2**53, "0101": 1}, 1.0, 1.0, rec_a.setting)
    report = witness_from_counts([big, rec_b])
    assert report.setting_totals["XXZZ"] == 2**53 + 1
    assert type(report.setting_totals["XXZZ"]) is int


def _sign(word, key):
    return (-1.0) ** sum(bit == "1" for letter, bit in zip(word, key) if letter != "I")


_SETTING_WORDS = {"XXZZ": ("XXIZ", "XXZI", "IIZZ"), "ZZXX": ("IZXX", "ZIXX", "ZZII")}
_KEYS = [format(index, "04b") for index in range(16)]


def _delta_method_reference(buckets):
    """The delta-method sums written out: a term's variance is
    sum c (s - e)**2 / N**2 over the outcomes of its setting, and the
    witness variance adds up, per setting, the same sum over the three
    words' summed signs, divided by 4."""
    term_err, witness_var = {}, 0.0
    for name, words in _SETTING_WORDS.items():
        bucket = buckets[name]
        total = sum(bucket.values())
        estimates = {w: sum(c * _sign(w, k) for k, c in bucket.items()) / total for w in words}
        for word in words:
            var = sum(c * (_sign(word, k) - estimates[word]) ** 2 for k, c in bucket.items())
            term_err[word] = math.sqrt(var / total**2)
        summed = sum(estimates.values())
        var = sum(c * (sum(_sign(w, k) for w in words) - summed) ** 2 for k, c in bucket.items())
        witness_var += var / total**2 / 4.0
    return term_err, math.sqrt(witness_var)


def test_closed_form_stderrs_equal_the_delta_method_sums():
    rng = np.random.default_rng(53)
    # per setting, the outcomes on which its three signs sum to -1
    minus = {
        name: [k for k in _KEYS if sum(_sign(w, k) for w in words) == -1.0]
        for name, words in _SETTING_WORDS.items()
    }
    for trial in range(300):
        buckets = {}
        for name in _SETTING_WORDS:
            shape = (trial + len(buckets)) % 3
            if shape == 0:  # one outcome: every term is +-1
                keys = [_KEYS[int(rng.integers(16))]]
            elif shape == 1:  # signs summing to -1 only: S = -1
                keys = list(rng.choice(minus[name], size=int(rng.integers(1, 5)), replace=False))
            else:
                keys = list(rng.choice(_KEYS, size=int(rng.integers(1, 17)), replace=False))
            scale = int(10 ** rng.integers(0, 7))
            buckets[name] = {str(k): int(rng.integers(1, scale + 1)) for k in keys}
        records = [CountRecord(buckets[name], 1.0, 1.0, name) for name in buckets]
        report = witness_from_counts(records)
        term_err, witness_err = _delta_method_reference(buckets)
        for word in WITNESS_OBSERVABLES:
            assert report.term_stderrs[word] == pytest.approx(term_err[word], rel=0.0, abs=1e-12)
        assert report.witness_stderr == pytest.approx(witness_err, rel=0.0, abs=1e-12)


def test_counted_witness_tracks_the_exact_value():
    state = _fitted_state()
    exact = witness_value(state).witness
    records = simulate_witness_records(state, duration=1.0, seed=0)
    report = witness_from_counts(records)
    assert report.witness_stderr is not None
    assert abs(report.witness - exact) < 4.0 * report.witness_stderr
    assert 0.002 < report.witness_stderr < 0.012
    for word in WITNESS_OBSERVABLES:
        assert 0.0 < report.term_stderrs[word] < 0.02


def _bootstrap_stderrs(records, n_boot: int, seed: int):
    """Parametric bootstrap of the witness: every record's count vector
    resampled as Poisson variables n_boot times; the spread of the
    re-estimated terms and witness is the oracle for the delta-method
    errors."""
    rng = np.random.default_rng((int(seed), 0xB007))
    reports = []
    for _ in range(n_boot):
        resampled = []
        for record in records:
            keys = sorted(record.counts)
            drawn = rng.poisson([record.counts[key] for key in keys]).tolist()
            resampled.append(CountRecord(dict(zip(keys, drawn)), 1.0, 1.0, record.setting))
        reports.append(witness_from_counts(resampled))
    term_err = {
        word: float(np.std([report.terms[word] for report in reports], ddof=1))
        for word in WITNESS_OBSERVABLES
    }
    return term_err, float(np.std([report.witness for report in reports], ddof=1))


def test_delta_and_bootstrap_stderrs_agree():
    records = simulate_witness_records(_fitted_state(), duration=1.0, seed=2)
    delta = witness_from_counts(records)
    term_err, witness_err = _bootstrap_stderrs(records, n_boot=300, seed=9)
    assert witness_err == pytest.approx(delta.witness_stderr, rel=0.35)
    for word in WITNESS_OBSERVABLES:
        assert term_err[word] == pytest.approx(delta.term_stderrs[word], rel=0.35)


def test_witness_stderr_scales_with_duration():
    state = _fitted_state()
    short = witness_from_counts(simulate_witness_records(state, duration=1.0, seed=4))
    long = witness_from_counts(simulate_witness_records(state, duration=4.0, seed=4))
    ratio = short.witness_stderr / long.witness_stderr
    assert ratio == pytest.approx(2.0, rel=0.2)


# ---------------------------------------------------------------------------
# gate summaries
# ---------------------------------------------------------------------------


def test_gate_report_ideal_is_unit_fidelity():
    for kind in ("horseshoe", "box"):
        report = gate_fidelity_report(kind, 0.3, 1.1)
        assert set(report) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for value in report.values():
            assert value == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        gate_fidelity_report("ring", 0.0, 0.0)


def test_horseshoe_report_under_fitted_noise():
    # dephasing shrinks the single coherence the branch keeps:
    # fidelity = (1-p)(1+q)/2 + p/4 for every branch and angle pair
    expected = (1.0 - FIT_P) * (1.0 + FIT_Q) / 2.0 + FIT_P / 4.0
    for alpha, beta in ((0.0, 0.0), (math.pi / 2, math.pi / 4)):
        report = gate_fidelity_report("horseshoe", alpha, beta, noise=FITTED_MODEL)
        for value in report.values():
            assert value == pytest.approx(expected, abs=1e-9)


def test_box_report_under_fitted_noise():
    # the box frame spreads both path qubits across the measured pair,
    # leaving only the white-noise penalty: fidelity = 1 - 3p/4
    expected = 1.0 - 0.75 * FIT_P
    for alpha, beta in ((0.0, 0.0), (math.pi, 0.0)):
        report = gate_fidelity_report("box", alpha, beta, noise=FITTED_MODEL)
        for value in report.values():
            assert value == pytest.approx(expected, abs=1e-9)


# the branch fidelities against the forced-branch runs they replaced: the
# state mapped into the gate's graph frame, the uncorrected pattern run for
# each outcome pair, and the residual compared with the closed form

GATE_PARTS = {
    "horseshoe": (to_horseshoe_frame, horseshoe_pattern, horseshoe_gate),
    "box": (to_box_frame, box_pattern, box_gate),
}


def _gate_report_by_branches(kind, alpha, beta, state):
    frame, pattern_fn, target_fn = GATE_PARTS[kind]
    mapped = frame(state)
    pattern = pattern_fn(alpha, beta, feedforward=False)
    report = {}
    for s2 in (0, 1):
        for s3 in (0, 1):
            _, _, residual = run_pattern(mapped, pattern, (s2, s3))
            report[(s2, s3)] = fidelity(residual, target_fn(GateOutputSpec(alpha, beta, s2, s3)))
    return report


def _assert_reports_match(report, oracle):
    assert set(report) == set(oracle)
    for branch, value in oracle.items():
        assert report[branch] == pytest.approx(value, abs=1e-12)


def _oracle_models(rng):
    models = [
        NoiseModel.ideal(),
        FITTED_MODEL,
        NoiseModel(0.0, 0.0, 1.0),
        NoiseModel(1.0, 0.0, 0.0),
        NoiseModel(0.0, 1.0, 0.0),
    ]
    return models + [
        NoiseModel(*(float(v) for v in rng.uniform(0.0, 1.0, size=3))) for _ in range(4)
    ]


@pytest.mark.parametrize("kind", ("horseshoe", "box"))
def test_gate_report_matches_branch_runs(kind):
    rng = np.random.default_rng(97)
    for model in _oracle_models(rng):
        state = c4_state() if model.is_ideal() else apply_noise(c4_state(), model)
        for _ in range(3):
            alpha, beta = (float(v) for v in rng.uniform(-2 * math.pi, 2 * math.pi, size=2))
            report = gate_fidelity_report(kind, alpha, beta, noise=model)
            _assert_reports_match(report, _gate_report_by_branches(kind, alpha, beta, state))


@pytest.mark.parametrize("kind", ("horseshoe", "box"))
def test_gate_report_matches_branch_runs_on_any_state(kind, monkeypatch):
    # random registers break the symmetries of the cluster, so a measured
    # qubit read off the wrong source qubit shows up here
    rng = np.random.default_rng(101)
    for make in (random_state, random_density) * 3:
        state = make(rng, 4)
        monkeypatch.setattr(analysis, "_prepare_state", lambda noise, state=state: state)
        alpha, beta = (float(v) for v in rng.uniform(-2 * math.pi, 2 * math.pi, size=2))
        report = gate_fidelity_report(kind, alpha, beta)
        _assert_reports_match(report, _gate_report_by_branches(kind, alpha, beta, state))


def test_gate_report_rejects_an_impossible_branch(monkeypatch):
    # source qubit 1 in |+> never gives outcome 1 in B(0) on the horseshoe
    state = StateVector(np.kron(np.kron([1, 0], [1, 1]), [1, 0, 0, 0]) / math.sqrt(2))
    monkeypatch.setattr(analysis, "_prepare_state", lambda noise: state)
    with pytest.raises(ImpossibleOutcomeError):
        _gate_report_by_branches("horseshoe", 0.0, 0.3, state)
    with pytest.raises(ImpossibleOutcomeError, match="branch"):
        gate_fidelity_report("horseshoe", 0.0, 0.3)


# ---------------------------------------------------------------------------
# search summaries
# ---------------------------------------------------------------------------


def test_grover_report_ideal():
    report = grover_report()
    assert isinstance(report, GroverReport)
    assert report.marked == "00" and report.feedforward
    assert report.success_probability == pytest.approx(1.0, abs=1e-12)
    assert report.estimated_success == pytest.approx(1.0)
    assert report.estimate_stderr == pytest.approx(0.0)
    assert report.trials > 0


def test_grover_report_under_fitted_noise():
    report = grover_report(noise=FITTED_MODEL, marked="10", seed=1)
    expected = 1.0 - 0.75 * FIT_P
    assert report.success_probability == pytest.approx(expected, abs=1e-9)
    assert report.estimate_stderr > 0.0
    assert abs(report.estimated_success - expected) < 4.0 * report.estimate_stderr


def test_grover_report_zero_counts():
    with pytest.raises(ValueError):
        grover_report(rate=1e-9, duration=1e-6)


# ---------------------------------------------------------------------------
# closed forms of the noise model
# ---------------------------------------------------------------------------

# every exact output has a closed form in the white-noise weight p and the
# dephasing product q = (1 - a)(1 - b); the draws include the near-ideal
# weights 1e-12..1e-9 and the edges p = 1 and q = 0
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_ANGLE = st.floats(-math.pi, math.pi)
_FRINGE_SIGN = {"D1-D2": 1.0, "D1-D4": -1.0, "D3-D2": -1.0, "D3-D4": 1.0}


def _noisy(state, model):
    return state if model.is_ideal() else apply_noise(state, model)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    a=_UNIT,
    b=_UNIT,
    p=st.one_of(_UNIT, st.floats(-12.0, -9.0).map(lambda e: 10.0**e)),
    theta=_ANGLE,
    alpha=_ANGLE,
    beta=_ANGLE,
)
def test_exact_outputs_match_the_closed_forms(a, b, p, theta, alpha, beta):
    model, q = NoiseModel(a, b, p), (1.0 - a) * (1.0 - b)

    def close(got, want):
        assert got == pytest.approx(want, rel=0.0, abs=1e-13)

    terms = witness_value(_noisy(source_state(theta), model)).terms
    for word in WITNESS_OBSERVABLES:
        close(terms[word], (1.0 - p) * q * math.cos(theta) if word in ("IZXX", "ZIXX") else 1.0 - p)
    cluster = _noisy(c4_state(), model)
    # the search walk drops a branch whose conditional weight, here ~p/4,
    # falls below the forced-outcome floor (1e-12): a known defect, pinned
    # by the xfail test below, so the weights where it exceeds 1e-13 are
    # left out here
    for marked in () if 4e-13 <= p < 5e-12 else ("00", "01", "10", "11"):
        for mark, value in grover_run(marked, True, cluster).items():
            close(value, 1.0 - 0.75 * p if mark == marked else p / 4.0)
        for value in grover_run(marked, False, cluster).values():
            close(value, 0.25)
    gates = {
        "horseshoe": (1.0 - p) * (1.0 + q) / 2.0 + p / 4.0,
        "box": (1.0 - p) * (1.0 - (1.0 - q) * math.sin(alpha) ** 2 / 2.0) + p / 4.0,
    }
    for kind, closed in gates.items():
        for value in gate_fidelity_report(kind, alpha, beta, model).values():
            close(value, closed)
    for scan in visibility_scans(model, DETECTOR_PAIRS):
        sign = _FRINGE_SIGN[scan.detector_pair]
        for phase, value in zip(scan.thetas, scan.probabilities):
            close(value, (1.0 - p) / 8.0 + p / 16.0 + sign * (1.0 - p) * q * math.cos(phase) / 8.0)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the search walk drops each branch of conditional weight below 1e-12",
)
@pytest.mark.parametrize("feedforward", [True, False])
def test_near_ideal_search_keeps_weights_below_the_floor(feedforward):
    cluster = apply_noise(c4_state(), NoiseModel(0.0, 0.0, 1e-12))
    for mark, value in grover_run("00", feedforward, cluster).items():
        want = (1.0 - 0.75e-12 if mark == "00" else 0.25e-12) if feedforward else 0.25
        assert value == pytest.approx(want, rel=0.0, abs=1e-13)
