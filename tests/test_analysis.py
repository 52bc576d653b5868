"""Tests for witness evaluation, count simulation, and the gate and
search summaries."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onewaysim import analysis, mbqc, photonics, qcore
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
from onewaysim.cluster import BOX_FRAME, c4_state
from onewaysim.mbqc import (
    MeasurementPattern,
    gate_output,
    gate_pattern,
    grover_run,
    run_pattern,
)
from onewaysim.photonics import (
    COINCIDENCE_RATE_HZ,
    DETECTOR_PAIRS,
    WITNESS_OBSERVABLES,
    WITNESS_SETTINGS,
    NoiseModel,
    apply_noise,
    source_state,
    visibility_scans,
)
from onewaysim.qcore import (
    ImpossibleOutcomeError,
    PauliString,
    StateVector,
    expectation,
    fidelity,
)

import oracles
from conftest import (
    FIT_P,
    FIT_Q,
    FITTED_MODEL,
    LAYOUTS,
    PIN_MODELS,
    SEED_RANGE,
    count_states,
    hex_floats,
    noisy,
    oracle_models,
    oracle_states,
    random_density,
    random_state,
)


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


def test_exact_terms_equal_the_pauli_word_traces(rng):
    # the exact terms are sign tables applied to the coincidence tables; the
    # trace tr(P rho) of each word is the independent oracle, on the oracle
    # states and the noisy source over a phase grid
    sources = [source_state(float(theta)) for theta in np.linspace(-math.pi, math.pi, 13)]
    sources += [apply_noise(source, NoiseModel(0.05, 0.2, 0.1)) for source in sources]
    for state in oracle_states(rng, 10) + sources:
        report = witness_value(state)
        for word in WITNESS_OBSERVABLES:
            want = expectation(state, PauliString(word))
            assert report.terms[word] == pytest.approx(want, rel=0.0, abs=1e-14), word
        total = sum(expectation(state, PauliString(word)) for word in WITNESS_OBSERVABLES)
        assert report.witness == pytest.approx((4.0 - total) / 2.0, rel=0.0, abs=1e-14)
        assert report.fidelity_bound == 0.5 - 0.5 * report.witness


def test_witness_value_needs_four_qubits():
    message = r"^state must be a state of 4 qubits, got StateVector\(num_qubits=3\)$"
    with pytest.raises(ValueError, match=message):
        witness_value(random_state(np.random.default_rng(0), 3))


# ---------------------------------------------------------------------------
# count simulation
# ---------------------------------------------------------------------------


def test_simulate_counts_reproducible():
    probs = {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}
    a = simulate_counts(probs, 1000.0, 1.0, seed=5)
    b = simulate_counts(probs, 1000.0, 1.0, seed=5)
    assert a.counts == b.counts
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
    with pytest.raises(ValueError, match="^duration must be a positive finite number, got 0.0$"):
        simulate_counts({"0": 0.5, "1": 0.5}, 100.0, 0.0, seed=0)
    with pytest.raises(ValueError, match="^empty probability table$"):
        simulate_counts({}, 100.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        simulate_counts({"0": 0.7, "1": -0.3}, 100.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        simulate_counts({"0": 0.7, "1": 0.7}, 100.0, 1.0, seed=0)
    # rounding residue down to -1e-9 is clipped to zero and never drawn
    with pytest.raises(ValueError, match="negative probability"):
        simulate_counts({"0": 1.0 + 2e-9, "1": -2e-9}, 100.0, 1.0, seed=0)
    record = simulate_counts({"0": 1.0 + 5e-10, "1": -5e-10}, 100.0, 1.0, seed=0)
    assert record.counts == {"0": record.total(), "1": 0} and record.total() > 0
    # the bound itself: -1e-9 is clipped, and one part in 2000 below it is not
    assert simulate_counts({"0": 1.0 + 1e-9, "1": -1e-9}, 100.0, 1.0, seed=0).counts["1"] == 0
    with pytest.raises(ValueError, match="negative probability"):
        simulate_counts({"0": 1.0 + 1.0005e-9, "1": -1.0005e-9}, 100.0, 1.0, seed=0)
    # entries that are not numbers in [0, 1] are named before the sum
    bad = (
        ({"a": 0.5, "b": float("nan")}, r"probability of 'b' is nan, not in \[0, 1\]"),
        ({"a": float("inf"), "b": 0.0}, r"probability of 'a' is inf, not in \[0, 1\]"),
        ({"a": 0.5, "b": -float("inf")}, r"probability of 'b' is -inf, not in \[0, 1\]"),
        ({"a": 1e308, "b": 1e308}, r"probability of 'a' is 1e\+308, not in \[0, 1\]"),
        # the first double above the bound 1 + 1e-6
        ({"a": 1.0000010000000001}, r"probability of 'a' is 1.0000010000000001, not in \[0, 1\]"),
        ({"a": 0.3, "b": 0.3}, r"probabilities sum to 0.6, not 1"),
        # sums just past the tolerance 1e-6 on either side
        ({"a": 0.5, "b": 0.5000010005}, r"probabilities sum to 1.0000010005, not 1"),
        ({"a": 0.5, "b": 0.4999989995}, r"probabilities sum to 0.9999989995, not 1"),
    )
    for table, message in bad:
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_counts(table, 100.0, 1.0, seed=0)
    # the entry bound 1 + 1e-6 is inclusive, as is the sum check's
    record = simulate_counts({"a": 1.0 + 1e-6, "b": 0.0}, 100.0, 1.0, seed=0)
    assert record.counts == {"a": record.total(), "b": 0} and record.total() > 0
    # rate and duration: each a finite positive real number, named when not
    table = {"0": 0.5, "1": 0.5}
    # 10**400 passes an exact comparison with inf, but no float holds it, and
    # repr cannot print 16**4000 (4817 digits)
    hostile = (math.nan, math.inf, -math.inf, -1.0, 0, True, False, "100", None, 1j, 10**400)
    hostile += (16**4000,)
    for value in hostile + (np.float64(math.nan), np.int64(0), np.bool_(True)):
        for name, args in (("rate", (value, 1.0)), ("duration", (100.0, value))):
            message = rf"^{name} must be a positive finite number, got "
            with pytest.raises(ValueError, match=message):
                simulate_counts(table, *args, seed=0)
    # a product past the sampler's cap 1e18 (inclusive) or the double range,
    # or one that underflows to 0
    above = math.nextafter(1e18, math.inf)
    for rate, duration in ((1e300, 1e300), (1e10, 1e10), (above, 1.0), (1e-200, 1e-200)):
        product = re.escape(repr(rate * duration))
        message = rf"^rate \* duration must lie in \(0, 1e\+18\], got {product}$"
        with pytest.raises(ValueError, match=message):
            simulate_counts(table, rate, duration, seed=0)
    assert simulate_counts(table, 1e18, 1.0, seed=0).total() > 0
    # accepted inputs draw as before: ints and numpy scalars, the Poisson mean
    drawn = simulate_counts(table, 100.0, 1.0, seed=4).counts
    assert simulate_counts(table, 100, 1, seed=4).counts == drawn
    assert simulate_counts(table, np.float64(50.0), 2.0, seed=4).counts == drawn
    assert simulate_counts(table, np.int64(100), np.float32(1.0), seed=4).counts == drawn
    assert simulate_counts(table, Fraction(100), 1, seed=4).counts == drawn
    # the seed: an int >= 0, or a list or tuple of them, named when not
    seeds = (1.5, True, np.bool_(True), -1, "3", None, (0, -1), [0, 1.5], ((0, 1),))
    for seed in seeds + (2**128, 16**4000, [0, 2**128]):
        with pytest.raises(ValueError, match=f"^seed must be {re.escape(SEED_RANGE)}, got "):
            simulate_counts(table, 100.0, 1.0, seed=seed)
    assert simulate_counts(table, 100.0, 1.0, seed=np.int64(4)).counts == drawn
    assert simulate_counts(table, 100.0, 1.0, seed=[4, 0]).counts == (
        simulate_counts(table, 100.0, 1.0, seed=(4, 0)).counts
    )


def test_simulate_witness_records_defaults():
    state = c4_state()
    assert simulate_witness_records(state) == simulate_witness_records(
        state, COINCIDENCE_RATE_HZ, 1.0, 0
    )


@pytest.mark.parametrize("seed", (1.5, True, np.bool_(True), -1, np.int64(-1), "3", None))
def test_simulate_witness_records_names_a_bad_seed(seed):
    message = f"^seed must be {re.escape(SEED_RANGE)}, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        simulate_witness_records(c4_state(), seed=seed)


def test_simulate_witness_records_reads_numpy_seeds_alike():
    expected = simulate_witness_records(c4_state(), 2000.0, 1.0, seed=5)
    for seed in (np.int64(5), np.uint8(5)):
        assert simulate_witness_records(c4_state(), 2000.0, 1.0, seed=seed) == expected


def test_simulate_witness_records_checks_state_then_seed_then_rate():
    message = r"^state must be a state of 4 qubits, got StateVector\(num_qubits=1\)$"
    with pytest.raises(ValueError, match=message):
        simulate_witness_records(StateVector([1.0, 0.0]), rate=0.0, seed=-1)
    with pytest.raises(ValueError, match="seed must be"):
        simulate_witness_records(c4_state(), rate=0.0, seed=-1)
    with pytest.raises(ValueError, match="^rate must be a positive finite number, got 0.0$"):
        simulate_witness_records(c4_state(), rate=0.0, seed=0)


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
    rec_a = CountRecord(counts={"0000": 100}, setting="XXZZ")
    # ZZXX setting: an even split between all-zero and all-one outcomes
    rec_b = CountRecord(counts={"0000": 50, "1111": 50}, setting="ZZXX")
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
    half_1 = CountRecord({"0000": 30, "1111": 20}, rec_b.setting)
    half_2 = CountRecord({"0000": 20, "1111": 30}, rec_b.setting)
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
            witness_from_counts([rec_a, CountRecord({"0000": 1}, setting)])
    with pytest.raises(ValueError):
        witness_from_counts(
            [rec_a, CountRecord({"00": 1}, rec_b.setting)]
        )
    with pytest.raises(ValueError):
        witness_from_counts(
            [rec_a, CountRecord({"0000": -1}, rec_b.setting)]
        )
    # a count that is not an integer is rejected with its outcome key,
    # neither truncated nor, for a bool, read as 0 or 1
    for key, counts in (
        ("0000", {"0000": 99.9, "0001": 0.9}),
        ("0110", {"0110": True}),
        ("0011", {"0011": math.nan}),
    ):
        with pytest.raises(ValueError, match=f"'{key}'"):
            witness_from_counts([rec_a, CountRecord(counts, rec_b.setting)])


@pytest.mark.parametrize("count", [1.5, 2.0, True, -1, math.nan, None, "3", np.float64(1.0)])
def test_count_record_names_a_count_that_is_not_one(count):
    # a count is an integer >= 0, numpy's included, and nothing is truncated
    with pytest.raises(ValueError, match=r"^counts\['0101'\] must be an integer >= 0"):
        CountRecord({"0000": 3, "0101": count})
    assert CountRecord({"0000": 3, "0101": np.int64(2)}).total() == 5


def test_count_record_keeps_the_counts_it_checked():
    # a later change to the caller's mapping reaches neither the record nor
    # an estimate from it
    counts = {"0000": 5, "0011": 3}
    record = CountRecord(counts, "XXZZ")
    counts["0000"] = -3
    counts["zzzz"] = 1.5
    assert record.counts == {"0000": 5, "0011": 3} and record.total() == 8
    other = CountRecord({"1111": 2}, "ZZXX")
    assert witness_from_counts([record, other]).setting_totals == {"XXZZ": 8, "ZZXX": 2}


def test_setting_totals_stay_exact_past_float_precision():
    rec_a, rec_b = _hand_built_records()
    big = CountRecord({"0000": 2**53, "0101": 1}, rec_a.setting)
    report = witness_from_counts([big, rec_b])
    assert report.setting_totals["XXZZ"] == 2**53 + 1
    assert type(report.setting_totals["XXZZ"]) is int


def test_closed_form_stderrs_equal_the_delta_method_sums():
    rng = np.random.default_rng(53)
    # per setting, the outcomes on which its three signs sum to -1
    keys = oracles.OUTCOME_KEYS
    minus = {
        name: [k for k in keys if sum(oracles.sign(w, k) for w in words) == -1.0]
        for name, words in oracles.SETTING_WORDS.items()
    }
    for trial in range(300):
        buckets = {}
        for name in oracles.SETTING_WORDS:
            shape = (trial + len(buckets)) % 3
            if shape == 0:  # one outcome: every term is +-1
                drawn = [keys[int(rng.integers(16))]]
            elif shape == 1:  # signs summing to -1 only: S = -1
                drawn = list(rng.choice(minus[name], size=int(rng.integers(1, 5)), replace=False))
            else:
                drawn = list(rng.choice(keys, size=int(rng.integers(1, 17)), replace=False))
            scale = int(10 ** rng.integers(0, 7))
            buckets[name] = {str(k): int(rng.integers(1, scale + 1)) for k in drawn}
        records = [CountRecord(buckets[name], name) for name in buckets]
        report = witness_from_counts(records)
        term_err, witness_err = oracles.delta_method_stderrs(buckets)
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
            resampled.append(CountRecord(dict(zip(keys, drawn)), record.setting))
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
    for kind in LAYOUTS:
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

def _gate_report_by_branches(kind, alpha, beta, state):
    mapped = LAYOUTS[kind][1].apply(state)
    pattern = gate_pattern(alpha, beta)
    report = {}
    for s2 in (0, 1):
        for s3 in (0, 1):
            _, _, residual = run_pattern(mapped, pattern, (s2, s3))
            report[(s2, s3)] = fidelity(residual, gate_output(kind, alpha, beta, s2, s3))
    return report


def _assert_reports_match(report, oracle):
    assert set(report) == set(oracle)
    for branch, value in oracle.items():
        assert report[branch] == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("kind", LAYOUTS)
def test_gate_report_matches_branch_runs(kind):
    rng = np.random.default_rng(97)
    for model in oracle_models(rng):
        state = noisy(c4_state(), model)
        for _ in range(3):
            alpha, beta = (float(v) for v in rng.uniform(-2 * math.pi, 2 * math.pi, size=2))
            report = gate_fidelity_report(kind, alpha, beta, noise=model)
            _assert_reports_match(report, _gate_report_by_branches(kind, alpha, beta, state))


@pytest.mark.parametrize("kind", LAYOUTS)
def test_gate_report_matches_branch_runs_on_any_state(kind, monkeypatch):
    # random registers break the symmetries of the cluster, so a measured
    # qubit read off the wrong source qubit shows up here
    rng = np.random.default_rng(101)
    for make in (random_state, random_density) * 3:
        state = make(rng, 4)
        monkeypatch.setattr(analysis, "_prepare_state", lambda noise, a=qcore._array(state): a)
        alpha, beta = (float(v) for v in rng.uniform(-2 * math.pi, 2 * math.pi, size=2))
        report = gate_fidelity_report(kind, alpha, beta)
        _assert_reports_match(report, _gate_report_by_branches(kind, alpha, beta, state))


def test_gate_report_rejects_an_impossible_branch(monkeypatch):
    # source qubit 1 in |+> never gives outcome 1 in B(0) on the horseshoe
    state = StateVector(np.kron(np.kron([1, 0], [1, 1]), [1, 0, 0, 0]) / math.sqrt(2))
    monkeypatch.setattr(analysis, "_prepare_state", lambda noise: qcore._array(state))
    with pytest.raises(ImpossibleOutcomeError):
        _gate_report_by_branches("horseshoe", 0.0, 0.3, state)
    with pytest.raises(ImpossibleOutcomeError, match="branch"):
        gate_fidelity_report("horseshoe", 0.0, 0.3)


def test_gate_report_keeps_a_branch_at_the_floor(monkeypatch):
    # a branch is kept at or above the forced-outcome floor, as in a walk
    pattern = gate_pattern(0.4, 1.3)
    maps = analysis._branch_maps(BOX_FRAME, pattern.steps, pattern.readout)
    a = qcore._array(c4_state())
    lightest = qcore._rotated_diagonal(maps.reshape(16, 16), a).reshape(4, 4).sum(axis=1).min()
    monkeypatch.setattr(analysis, "_FORCED_MIN_WEIGHT", lightest)
    assert len(gate_fidelity_report("box", 0.4, 1.3)) == 4
    monkeypatch.setattr(analysis, "_FORCED_MIN_WEIGHT", np.nextafter(lightest, 1.0))
    with pytest.raises(ImpossibleOutcomeError, match="branch"):
        gate_fidelity_report("box", 0.4, 1.3)


@pytest.mark.parametrize("kind", LAYOUTS)
@pytest.mark.parametrize("steps", ((2,), (1, 3, 0), (3, 0, 2)))
def test_branch_maps_match_forced_runs_for_any_step_count(kind, steps):
    # the gates measure two qubits of four; one or three steps (three or one
    # readout qubits) pin the branch and readout dimensions of the maps
    rng = np.random.default_rng(107)
    alphas = (float(a) for a in rng.uniform(-2 * math.pi, 2 * math.pi, size=len(steps)))
    readout = tuple(q for q in range(4) if q not in steps)
    pattern = MeasurementPattern(tuple(zip(steps, alphas)), readout)
    frame = LAYOUTS[kind][1]
    maps = analysis._branch_maps(frame, pattern.steps, pattern.readout)
    assert maps.shape == (2 ** len(steps), 2 ** len(readout), 16)
    for make in (random_state, random_density):
        state = make(rng, 4)
        rho = qcore._density_array(state)
        residuals = maps @ rho @ maps.conj().swapaxes(1, 2)
        for index, outcomes in enumerate(itertools.product((0, 1), repeat=len(steps))):
            _, probability, residual = run_pattern(frame.apply(state), pattern, outcomes)
            expected = probability * qcore._density_array(residual)
            np.testing.assert_allclose(residuals[index], expected, rtol=0, atol=1e-13)


def test_reports_build_no_intermediate_state(monkeypatch):
    calls = []
    count_states(monkeypatch, calls)
    # the prepared source, the branch maps, the targets and the search walk
    # are the library's own arrays: a report checks its arguments only
    for noise in (None, NoiseModel.ideal(), FITTED_MODEL):
        for kind in LAYOUTS:
            gate_fidelity_report(kind, 0.3, 1.1, noise)
        for feedforward in (True, False):
            grover_report(noise, feedforward, "10")
    assert calls == []
    # a public gate output is checked once, by its constructor
    for kind in LAYOUTS:
        gate_output(kind, 0.3, 1.1, 1, 1)
    assert calls == ["ket", "ket"]


# the reports' array paths against the public chain they replaced, bit for
# bit, on the states whose count-feeding tables test_count_floats pins


def test_witness_tables_hold_the_public_distributions_bit_for_bit():
    # the draw reads a table in key order and simulate_counts in sorted
    # order: the two agree because the outcome keys are already sorted
    assert list(photonics._OUTCOME_KEYS) == sorted(photonics._OUTCOME_KEYS)
    for model in PIN_MODELS.values():
        state = noisy(c4_state(), model)
        tables = analysis._setting_tables(qcore._array(state))
        assert list(tables) == sorted(WITNESS_SETTINGS)
        for name, table in tables.items():
            assert table.dtype == np.float64 and table.flags.c_contiguous
            # the floats the public dict held, and a list round trip keeps them
            public = photonics.joint_distribution(state, name)
            assert hex_floats(dict(zip(photonics._OUTCOME_KEYS, table.tolist()))) == hex_floats(public)
            assert np.array(list(public.values())).tobytes() == table.tobytes()


@pytest.mark.parametrize("model", PIN_MODELS.values(), ids=PIN_MODELS.keys())
def test_witness_records_equal_the_public_chain(model):
    state = noisy(c4_state(), model)
    for seed in (0, 4, 2**31 - 1):
        chain = tuple(
            simulate_counts(photonics.joint_distribution(state, name), 9000.0, 0.8, (seed, i), name)
            for i, name in enumerate(sorted(WITNESS_SETTINGS))
        )
        records = simulate_witness_records(state, 9000.0, 0.8, seed)
        assert records == chain
        assert all(type(c) is int for record in records for c in record.counts.values())
        assert list(records[0].counts) == sorted(records[0].counts)
        report = witness_from_counts(records)
        assert all(type(n) is int for n in report.setting_totals.values())


def test_arrays_passed_between_stages_are_c_ordered():
    # numpy's BLAS and SIMD paths can round differently on strided views, so
    # each array a stage hands on is laid out as a constructor's copy would be
    for model in (None, *PIN_MODELS.values()):
        source = analysis._prepare_state(model)
        assert source.flags.c_contiguous
        for _, frame in LAYOUTS.values():
            assert frame._frame(source).flags.c_contiguous
    for kind in LAYOUTS:
        assert mbqc._gate_targets(kind, 0.3, 1.1).flags.c_contiguous


@pytest.mark.parametrize("model", PIN_MODELS.values(), ids=PIN_MODELS.keys())
def test_grover_report_equals_the_public_chain_bit_for_bit(model):
    state = noisy(c4_state(), model)
    for marked in ("00", "01", "10", "11"):
        for feedforward in (True, False):
            distribution = grover_run(marked, feedforward, state)
            for noise in (model, None) if model.is_ideal() else (model,):
                report = grover_report(noise, feedforward, marked, 9000.0, 0.8, seed=3)
                assert hex_floats(report.distribution) == hex_floats(distribution)
                record = simulate_counts(distribution, 9000.0, 0.8, (3, 0x5ea))
                assert report.trials == record.total()
                assert report.estimated_success == record.counts[marked] / record.total()


def _gate_report_by_public_chain(kind, alpha, beta, model):
    """The report from the checked public objects: the gate's pattern, the
    (noisy) cluster state and the (0, 0) output state.  Each branch's weight
    sums the rotated diagonal of the state under its maps' rows, and its
    overlap is the rotated diagonal under the one row <t_s| K_s."""
    pattern = gate_pattern(alpha, beta)
    maps = analysis._branch_maps(LAYOUTS[kind][1], pattern.steps, pattern.readout)
    a = qcore._array(noisy(c4_state(), model))
    weights = qcore._rotated_diagonal(maps.reshape(16, 16), a).reshape(4, 4).sum(axis=1)
    targets = mbqc._GATES[kind][2] @ gate_output(kind, alpha, beta).amplitudes
    overlaps = qcore._rotated_diagonal((targets.conj()[:, None] @ maps)[:, 0], a)
    branches = itertools.product((0, 1), repeat=2)
    return {b: float(value / weight) for b, weight, value in zip(branches, weights, overlaps)}


@pytest.mark.parametrize("kind", LAYOUTS)
@pytest.mark.parametrize("model", PIN_MODELS.values(), ids=PIN_MODELS.keys())
def test_gate_report_equals_the_public_chain_bit_for_bit(model, kind):
    rng = np.random.default_rng(109)
    grid = (0.0, math.pi / 2, math.pi, -3 * math.pi / 4)
    angles = [(a, b) for a in grid for b in grid] + rng.uniform(-7.0, 7.0, size=(8, 2)).tolist()
    for alpha, beta in angles:
        report = gate_fidelity_report(kind, alpha, beta, model)
        assert hex_floats(report) == hex_floats(_gate_report_by_public_chain(kind, alpha, beta, model))


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
    assert grover_report(noise=FITTED_MODEL, marked="10", seed=1, duration=1.0) == report
    # the default seed is 0
    assert grover_report(noise=FITTED_MODEL, marked="10") == grover_report(
        noise=FITTED_MODEL, marked="10", seed=0
    )
    assert grover_report(noise=FITTED_MODEL, marked="10", seed=0).trials != report.trials
    expected = 1.0 - 0.75 * FIT_P
    assert report.success_probability == pytest.approx(expected, abs=1e-9)
    assert report.estimate_stderr > 0.0
    assert abs(report.estimated_success - expected) < 4.0 * report.estimate_stderr


def test_grover_report_zero_counts():
    with pytest.raises(ValueError):
        grover_report(rate=1e-9, duration=1e-6)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        *(
            ({"seed": seed}, "seed")
            for seed in (1.5, True, np.bool_(True), -1, np.int64(-1), "3", None)
        ),
        *(({"noise": noise}, "noise") for noise in ("ideal", {}, 0.0, (0.0, 0.0, 0.0))),
        *(({"feedforward": flag}, "feedforward") for flag in ("no", None, 1, np.int64(0))),
        ({"marked": ["0", "0"]}, "marked"),
    ],
)
def test_grover_report_names_a_bad_argument(kwargs, name):
    with pytest.raises(ValueError, match=name):
        grover_report(**kwargs)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        *(({"alpha": bad}, "alpha") for bad in (math.nan, math.inf, True, "0.3", None)),
        *(({"beta": bad}, "beta") for bad in (math.nan, -math.inf, np.bool_(False), [0.3])),
        *(({"noise": noise}, "noise") for noise in ("ideal", {}, 0.0, (0.0, 0.0, 0.0))),
        # an int no float holds, which math.isfinite cannot take
        ({"alpha": 10**400}, "alpha"),
        ({"beta": -(10**400)}, "beta"),
        *(
            ({"kind": kind}, "^kind must be one of 'horseshoe', 'box', got ")
            for kind in ("ring", ["box"])
        ),
        ({"alpha": 16**4000}, "^alpha must be a finite number, got an int of 16001 bits$"),
    ],
)
def test_gate_report_names_a_bad_argument(kwargs, name):
    with pytest.raises(ValueError, match=name):
        gate_fidelity_report(**{"kind": "box", "alpha": 0.3, "beta": 1.1, **kwargs})


def test_grover_report_reads_canonical_arguments_alike():
    expected = grover_report(noise=None, marked="01", feedforward=False, seed=5)
    assert expected.distribution == grover_run("01", False, c4_state())
    for noise in (None, NoiseModel.ideal(), NoiseModel(0, 0, 0)):
        for seed in (5, np.int64(5), np.uint8(5)):
            for feedforward in (False, np.bool_(False)):
                assert grover_report(noise, feedforward, "01", seed=seed) == expected


# ---------------------------------------------------------------------------
# closed forms of the noise model
# ---------------------------------------------------------------------------

# every exact output has a closed form in the white-noise weight p and the
# dephasing product q = (1 - a)(1 - b) (see oracles); the draws include
# the near-ideal weights 1e-12..1e-9 and the edges p = 1 and q = 0
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_ANGLE = st.floats(-math.pi, math.pi)


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
    model, q = NoiseModel(a, b, p), oracles.dephasing_product(a, b)

    def close(got, want):
        assert got == pytest.approx(want, rel=0.0, abs=1e-13)

    terms = witness_value(noisy(source_state(theta), model)).terms
    for word in WITNESS_OBSERVABLES:
        close(terms[word], oracles.witness_term(word, p, q, theta))
    cluster = noisy(c4_state(), model)
    # the search walk drops a branch whose conditional weight, here ~p/4,
    # falls below the forced-outcome floor (1e-12): a known defect, pinned
    # by the xfail test below, so the weights where it exceeds 1e-13 are
    # left out here
    for marked in () if 4e-13 <= p < 5e-12 else ("00", "01", "10", "11"):
        for feedforward in (True, False):
            for mark, value in grover_run(marked, feedforward, cluster).items():
                close(value, oracles.search_probability(mark, marked, feedforward, p))
    for kind in LAYOUTS:
        for value in gate_fidelity_report(kind, alpha, beta, model).values():
            close(value, oracles.gate_fidelity(kind, p, q, alpha))
    for scan in visibility_scans(model, DETECTOR_PAIRS):
        for phase, value in zip(scan.thetas, scan.probabilities):
            close(value, oracles.fringe(scan.detector_pair, p, q, phase))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the search walk drops each branch of conditional weight below 1e-12",
)
@pytest.mark.parametrize("feedforward", [True, False])
def test_near_ideal_search_keeps_weights_below_the_floor(feedforward):
    cluster = apply_noise(c4_state(), NoiseModel(0.0, 0.0, 1e-12))
    for mark, value in grover_run("00", feedforward, cluster).items():
        want = oracles.search_probability(mark, "00", feedforward, 1e-12)
        assert value == pytest.approx(want, rel=0.0, abs=1e-13)
