"""One input contract for every export of the package.

Each scalar, state, model, pattern or graph parameter of every export is
given hostile values: bools, floats with a fraction, NaN, +-inf, ints no
float holds, strings, None, numpy scalars, states of the wrong size and
the package's other objects.  A value the parameter does not take must
raise a ValueError whose message starts with "<parameter> must" (or
names an entry of it: "steps[0] angle must"); a value
it takes must give the same outcome as its canonical Python value (a
numpy scalar's ``item()``: ``np.int64(1)`` acts as 1), and must not be
refused by name.  What a parameter takes is written out below, apart
from the library's checks.

Each container parameter (a list of edges, steps, qubits, targets,
names or outcomes, and each edge and step in it) is given what is no
container of items (None, numbers, strings, bytes, a 0-d array), a
container with the wrong number of items where that number is fixed, and
one whose first item is None: each must raise a ValueError naming the
parameter.  A list, a generator or an iterator of the items it takes
must give the outcome of their tuple.  Where the items' order carries
meaning, a set, a frozenset, a dict and each dict view must be refused
by name too; where the library sorts the items, a set or frozenset of
them must give the outcome of their tuple.  The mappings of counts and
probabilities and the list of count records are given what is no
mapping or list, and a list of what is no record.  The state
constructors' arrays are given what numpy reads as no array of numbers:
mappings, iterators, strings, None, bools, ragged lists and ints beyond
int64.

Out of scope: the exports without parameters; the report records, which
hold results and check nothing.
"""

import math
import re
import sys
import types
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onewaysim import (
    BOX_GRAPH,
    HORSESHOE_GRAPH,
    ClusterGraph,
    CountRecord,
    DensityMatrix,
    MeasurementPattern,
    NoiseModel,
    PauliString,
    StateVector,
    apply_noise,
    bell_probabilities,
    branch_distribution,
    build_cluster,
    c4_state,
    entanglement_entropy,
    expectation,
    fidelity,
    fit_noise,
    frame_equivalence,
    gate_fidelity_report,
    gate_output,
    gate_pattern,
    grover_report,
    grover_run,
    joint_distribution,
    overlap,
    run_pattern,
    simulate_counts,
    simulate_witness_records,
    source_state,
    stabilizer_generators,
    visibility_scans,
    witness_from_counts,
    witness_value,
)
from onewaysim import qcore
from onewaysim.cluster import BOX_FRAME, HORSESHOE_FRAME

_C4 = c4_state()
_BELL = StateVector([2**-0.5, 0.0, 0.0, 2**-0.5])
_MIXED = DensityMatrix(np.outer(_C4.amplitudes, _C4.amplitudes.conj()))
_MODEL = NoiseModel(0.05, 0.1, 0.2)
_PATTERN = MeasurementPattern(((0, 0.3),))

# the same hostile values for every parameter; each is valid for some
_HOSTILE = (
    True, False, 1.5, -0.5, math.nan, math.inf, -math.inf, 10**400, -(10**400), 16**4000,
    "x", "", None, np.int64(1), np.int64(-1), np.float64(0.5), np.float64(math.nan),
    np.bool_(True), np.str_("00"), _C4.amplitudes, _C4, _MIXED, _BELL, StateVector([1.0, 0.0]),
    _MODEL, PauliString("XXXX"), _PATTERN, BOX_GRAPH, BOX_FRAME,
)


def _plain(value):
    """The canonical Python value of a numpy scalar; anything else as it is."""
    return value.item() if isinstance(value, np.generic) else value


def _real(low=-math.inf, high=math.inf, positive=False):
    def takes(value):
        v = _plain(value)
        finite = type(v) in (int, float) and abs(v) <= sys.float_info.max
        return finite and low <= v <= high and (v > 0 or not positive)

    return takes


def _integer(low, high=math.inf):
    return lambda value: type(_plain(value)) is int and low <= _plain(value) <= high


def _member(*options):
    def takes(value):
        v = _plain(value)
        return type(v) is type(options[0]) and v in options

    return takes


def _instance(kind, qubits=None, optional=False):
    def takes(value):
        if value is None:
            return optional
        return isinstance(value, kind) and (qubits is None or value.num_qubits == qubits)

    return takes


_STATE = (StateVector, DensityMatrix)
_FINITE, _UNIT, _FLAG, _BIT = _real(), _real(0.0, 1.0), _member(True, False), _member(0, 1)
_SEED = _integer(0, 2**128 - 1)
_SETTING = _member("XXZZ", "ZZXX")
_LAYOUT = _member("horseshoe", "box")


class Param(NamedTuple):
    label: str  # export.parameter, the test id
    name: str  # the parameter's name, which a refusal starts with
    call: Callable  # value -> the export's result with the value in that place
    takes: Callable  # value -> whether the parameter takes it


_PARAMS = [
    # qcore
    Param("PauliString.letters", "letters", PauliString,
          lambda v: isinstance(v, str) and v != "" and set(v) <= set("IXYZ")),
    Param("expectation.state", "state", lambda v: expectation(v, PauliString("XXXX")),
          _instance(_STATE, 4)),
    Param("expectation.observable", "observable", lambda v: expectation(_C4, v),
          _instance(PauliString)),
    Param("fidelity.rho", "rho", lambda v: fidelity(v, _C4), _instance(_STATE, 4)),
    Param("fidelity.target", "target", lambda v: fidelity(_MIXED, v), _instance(StateVector)),
    Param("overlap.a", "a", lambda v: overlap(v, _C4), _instance(StateVector)),
    Param("overlap.b", "b", lambda v: overlap(_C4, v), _instance(StateVector)),
    Param("entanglement_entropy.state", "state", lambda v: entanglement_entropy(v, [0]),
          _instance(StateVector)),
    Param("entanglement_entropy.partition", "partition",
          lambda v: entanglement_entropy(_BELL, [v]), _integer(0, 1)),
    # cluster
    Param("ClusterGraph.num_vertices", "num_vertices", lambda v: ClusterGraph(v, ()),
          _integer(1)),
    Param("ClusterGraph.edges", "edges", lambda v: ClusterGraph(4, ((v, 3),)),
          _integer(0, 3)),
    Param("build_cluster.graph", "graph", build_cluster, _instance(ClusterGraph)),
    Param("stabilizer_generators.graph", "graph", stabilizer_generators,
          _instance(ClusterGraph)),
    Param("FrameMap.apply.state[horseshoe]", "state", HORSESHOE_FRAME.apply,
          _instance(_STATE, 4)),
    Param("FrameMap.apply.state[box]", "state", BOX_FRAME.apply, _instance(_STATE, 4)),
    # photonics
    *(
        Param(f"NoiseModel.{field}", field, lambda v, f=field: NoiseModel(**{f: v}), _UNIT)
        for field in ("path_dephasing_a", "path_dephasing_b", "white_noise")
    ),
    Param("source_state.theta", "theta", source_state, _FINITE),
    Param("apply_noise.ideal", "ideal", lambda v: apply_noise(v, _MODEL), _instance(_STATE, 4)),
    Param("apply_noise.model", "model", lambda v: apply_noise(_C4, v), _instance(NoiseModel)),
    Param("fit_noise.targets", "targets", lambda v: fit_noise([v, 0.9, 0.9, 0.8, 0.8, 0.9]),
          _real(-1.0, 1.0)),
    Param("joint_distribution.state", "state", lambda v: joint_distribution(v, "XXZZ"),
          _instance(_STATE, 4)),
    Param("joint_distribution.setting", "setting", lambda v: joint_distribution(_C4, v),
          _SETTING),
    Param("visibility_scans.model", "model", lambda v: visibility_scans(v, ("D1-D2",), 8),
          _instance(NoiseModel)),
    Param("visibility_scans.detector_pairs", "detector_pairs",
          lambda v: visibility_scans(_MODEL, (v,), 8), _member("D1-D2", "D1-D4", "D3-D2", "D3-D4")),
    Param("visibility_scans.samples", "samples", lambda v: visibility_scans(_MODEL, ("D1-D2",), v),
          lambda v: _integer(4, 65536)(v) and _plain(v) % 2 == 0),
    # mbqc
    Param("MeasurementPattern.steps.qubit", "steps",
          lambda v: MeasurementPattern(((v, 0.3),)), _integer(0)),
    Param("MeasurementPattern.steps.angle", "steps",
          lambda v: MeasurementPattern(((0, v),)), _FINITE),
    Param("branch_distribution.state", "state", lambda v: branch_distribution(v, _PATTERN),
          _instance(_STATE)),
    Param("branch_distribution.pattern", "pattern", lambda v: branch_distribution(_BELL, v),
          _instance(MeasurementPattern)),
    # a step qubit must lie in the register the pattern runs on
    Param("branch_distribution.pattern.steps.qubit", "steps",
          lambda v: branch_distribution(_BELL, MeasurementPattern(((v, 0.3),))), _integer(0, 1)),
    Param("run_pattern.state", "state", lambda v: run_pattern(v, _PATTERN, (1,)),
          _instance(_STATE)),
    Param("run_pattern.pattern", "pattern", lambda v: run_pattern(_BELL, v, (1,)),
          _instance(MeasurementPattern)),
    Param("run_pattern.outcomes", "outcomes", lambda v: run_pattern(_BELL, _PATTERN, (v,)),
          _BIT),
    *(
        Param(f"gate_output.{field}", field,
              lambda v, f=field: gate_output(
                  **{"kind": "box", "alpha": 0.3, "beta": 1.1, "s2": 1, "s3": 0, f: v}
              ), check)
        for field, check in (
            ("kind", _LAYOUT), ("alpha", _FINITE), ("beta", _FINITE), ("s2", _BIT), ("s3", _BIT),
        )
    ),
    Param("frame_equivalence.kind", "kind", frame_equivalence, _LAYOUT),
    *(
        Param(f"gate_pattern.{field}", field,
              lambda v, f=field: gate_pattern(**{"alpha": 0.3, "beta": 1.1, f: v}), _FINITE)
        for field in ("alpha", "beta")
    ),
    Param("grover_run.marked", "marked", grover_run, _member("00", "01", "10", "11")),
    Param("grover_run.feedforward", "feedforward", lambda v: grover_run("01", v), _FLAG),
    Param("grover_run.input_state", "input_state", lambda v: grover_run("01", True, v),
          _instance(_STATE, 4, optional=True)),
    Param("bell_probabilities.state", "state", bell_probabilities, _instance(_STATE, 2)),
    # analysis
    Param("witness_value.state", "state", witness_value, _instance(_STATE, 4)),
    Param("CountRecord.counts", "counts", lambda v: CountRecord({"0000": v}),
          _integer(0)),
    Param("CountRecord.setting", "setting", lambda v: CountRecord({"0000": 1}, v),
          lambda v: v is None or _SETTING(v)),
    *(
        Param(f"simulate_counts.{field}", field,
              lambda v, f=field: simulate_counts(
                  {"0": 0.25, "1": 0.75}, **{"rate": 50.0, "duration": 2.0, "seed": 3, f: v}
              ), check)
        for field, check in (
            ("rate", _real(positive=True)), ("duration", _real(positive=True)), ("seed", _SEED),
            ("setting", lambda v: v is None or _SETTING(v)),
        )
    ),
    *(
        Param(f"simulate_witness_records.{field}", field,
              lambda v, f=field: simulate_witness_records(
                  **{"state": _MIXED, "rate": 50.0, "duration": 2.0, "seed": 3, f: v}
              ), check)
        for field, check in (
            ("state", _instance(_STATE, 4)), ("rate", _real(positive=True)),
            ("duration", _real(positive=True)), ("seed", _SEED),
        )
    ),
    *(
        Param(f"gate_fidelity_report.{field}", field,
              lambda v, f=field: gate_fidelity_report(
                  **{"kind": "box", "alpha": 0.3, "beta": 1.1, "noise": _MODEL, f: v}
              ), check)
        for field, check in (
            ("kind", _LAYOUT), ("alpha", _FINITE), ("beta", _FINITE),
            ("noise", _instance(NoiseModel)),
        )
    ),
    *(
        Param(f"grover_report.{field}", field,
              lambda v, f=field: grover_report(
                  **{"noise": _MODEL, "marked": "10", "rate": 50.0, "duration": 2.0, f: v}
              ), check)
        for field, check in (
            ("noise", _instance(NoiseModel)), ("feedforward", _FLAG),
            ("marked", _member("00", "01", "10", "11")), ("rate", _real(positive=True)),
            ("duration", _real(positive=True)), ("seed", _SEED),
        )
    ),
]


def _outcome(call, value):
    """("result", the result) or ("raised", the exception's type and text)."""
    try:
        return "result", call(value)
    except Exception as exc:  # noqa: BLE001 - the two outcomes are compared
        return "raised", (type(exc), str(exc))


def _same(a, b) -> bool:
    """Equal results, a state's array compared entry by entry."""
    if isinstance(a, (StateVector, DensityMatrix)):
        array = "amplitudes" if isinstance(a, StateVector) else "matrix"
        return type(a) is type(b) and np.array_equal(getattr(a, array), getattr(b, array))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return bool(a == b)


def _names(param, message: str) -> bool:
    """Whether ``message`` refuses the parameter, or one of its entries
    (``steps[0] angle must ...``), by name."""
    return re.match(rf"{re.escape(param.name)}(\[[^]]*\])*( \w+)? must ", message) is not None


def _check_contract(param: Param, value) -> None:
    if not param.takes(value):
        with pytest.raises(ValueError) as info:
            param.call(value)
        assert _names(param, str(info.value)), (value, str(info.value))
        return
    kind, got = _outcome(param.call, value)
    canonical_kind, expected = _outcome(param.call, _plain(value))
    assert kind == canonical_kind, (value, got, expected)
    if kind == "raised":
        # a relational check may refuse a value the parameter takes; the
        # parameter's own check may not
        assert got == expected, value
        assert not _names(param, got[1]), (value, got)
    else:
        assert _same(got, expected), value


@pytest.mark.parametrize("param", _PARAMS, ids=[p.label for p in _PARAMS])
def test_every_hostile_value_is_named_or_read_as_its_canonical_value(param):
    for value in _HOSTILE:
        _check_contract(param, value)


# numbers of every kind the library meets: ints and floats in and out of
# each range, non-finite floats, and their numpy scalars and bools
_NUMBERS = st.one_of(
    st.integers(-3, 70),
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 70).map(np.int64),
    st.floats(-3.0, 3.0).map(np.float64),
    st.booleans(),
    st.booleans().map(np.bool_),
)


@pytest.mark.parametrize("param", _PARAMS, ids=[p.label for p in _PARAMS])
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(value=_NUMBERS)
def test_every_number_is_named_or_read_as_its_canonical_value(param, value):
    _check_contract(param, value)


class Container(NamedTuple):
    label: str  # export.parameter, the test id
    name: str  # the parameter's name, which a refusal starts with
    call: Callable  # container -> the export's result with it in that place
    items: tuple  # items the parameter takes
    length: Optional[int] = None  # the number of items it needs, if fixed
    ordered: bool = True  # whether the items' order carries meaning


_TWO_STEPS = MeasurementPattern(((0, 0.3), (1, 1.1)))

_CONTAINERS = [
    Container("entanglement_entropy.partition", "partition",
              lambda v: entanglement_entropy(_C4, v), (0, 2), ordered=False),
    Container("ClusterGraph.edges", "edges", lambda v: ClusterGraph(4, v), ((0, 1), (3, 2)),
              ordered=False),
    Container("ClusterGraph.edges.edge", "edges[0]", lambda v: ClusterGraph(4, (v,)), (0, 1), 2,
              ordered=False),
    Container("fit_noise.targets", "targets", fit_noise, (0.9, 0.9, 0.95, 0.8, 0.8, 0.9), 6),
    Container("visibility_scans.detector_pairs", "detector_pairs",
              lambda v: visibility_scans(_MODEL, v, 8), ("D1-D2", "D3-D4")),
    Container("MeasurementPattern.steps", "steps", MeasurementPattern, ((0, 0.3), (2, 1.1))),
    Container("MeasurementPattern.steps.step", "steps[0]",
              lambda v: MeasurementPattern((v,)), (0, 0.3), 2),
    Container("run_pattern.outcomes", "outcomes", lambda v: run_pattern(_BELL, _TWO_STEPS, v),
              (1, 0), 2),
]

# no container of items: a string or bytes would be read item by item
_NO_CONTAINERS = (None, 3, 0.5, True, "x", "", "D1-D2", b"01", np.float64(1.0), np.array(1))


@pytest.mark.parametrize("param", _CONTAINERS, ids=[p.label for p in _CONTAINERS])
def test_every_container_is_named_or_read_as_its_tuple(param):
    refused = [*_NO_CONTAINERS, (None,) + param.items[1:]]
    if param.length is not None:
        refused += [(), param.items[:-1], param.items + param.items[-1:]]
    for value in refused:
        with pytest.raises(ValueError) as info:
            param.call(value)
        assert _names(param, str(info.value)), (value, str(info.value))
    expected = param.call(param.items)
    for value in (list(param.items), (item for item in param.items), iter(param.items)):
        assert _same(param.call(value), expected), value


@pytest.mark.parametrize("param", _CONTAINERS, ids=[p.label for p in _CONTAINERS])
def test_an_unordered_container_is_refused_where_order_matters(param):
    # a set's order is the hash order of its items, which for strings moves
    # with PYTHONHASHSEED: no order of the caller's
    unordered = (set(param.items), frozenset(param.items))
    if not param.ordered:  # the library sorts the items
        expected = param.call(param.items)
        for value in unordered:
            assert _same(param.call(value), expected), value
        return
    mapping = dict(zip(param.items, range(len(param.items))))
    for value in (*unordered, mapping, mapping.keys(), mapping.values(), mapping.items()):
        with pytest.raises(ValueError) as info:
            param.call(value)
        assert str(info.value).startswith(f"{param.name} must be an ordered sequence"), value


class Mapped(NamedTuple):
    label: str  # export.parameter, the test id
    name: str  # the parameter's name, or its first entry's, which a refusal starts with
    call: Callable  # value -> the export's result with it in that place
    refused: tuple  # values it must refuse by that name
    taken: tuple  # values that must give the outcome of the first


_RECORDS = (CountRecord({"0000": 3}, "XXZZ"), CountRecord({"1111": 2}, "ZZXX"))

_MAPPED = [
    Mapped("simulate_counts.probabilities", "probabilities",
           lambda v: simulate_counts(v, 50.0, 2.0, 3),
           # no mapping, or keys that do not sort together
           (None, [0.25, 0.75], (("0", 0.25),), "01", 3, {0: 0.25, "1": 0.75}),
           ({"1": 0.75, "0": 0.25}, {"0": 0.25, "1": 0.75},
            types.MappingProxyType({"0": 0.25, "1": 0.75}))),
    Mapped("CountRecord.counts", "counts", CountRecord,
           (None, [1, 2], ("0000",), "0000", 3),
           ({"0000": 1, "0011": 2}, types.MappingProxyType({"0000": 1, "0011": 2}))),
    Mapped("witness_from_counts.records", "records", witness_from_counts,
           (None, 3, "XXZZ", _RECORDS[0]), (_RECORDS, list(_RECORDS), iter(_RECORDS))),
    Mapped("witness_from_counts.records.record", "records[0]", witness_from_counts,
           ([None], [{}], [{"0000": 1}], ["XXZZ"], [_MODEL]), ()),
]


@pytest.mark.parametrize("param", _MAPPED, ids=[p.label for p in _MAPPED])
def test_every_mapping_and_record_list_is_named_or_read_as_its_items(param):
    for value in param.refused:
        with pytest.raises(ValueError) as info:
            param.call(value)
        assert _names(param, str(info.value)), (value, str(info.value))
    if param.taken:
        expected = param.call(param.taken[0])
        for value in param.taken[1:]:
            assert _same(param.call(value), expected), value


# what numpy reads as no array of numbers, each with an array a constructor
# takes beside it: a ket of two qubits, and the matrix of one qubit
_NO_NUMBERS = (
    {"a": 1}, iter([1, 0]), (v for v in (1, 0)), "10", b"10", None, 10**400, 16**4000,
    [True, False], np.array([True, False]), [1, [0]], [[1, 0], [0]], [10**400, 0], [_C4, 0],
    # a bool among numbers, which numpy alone reads as a number
    [True, 0.0], (0.0, np.bool_(True)), [[1.0, 0.0], [0.0, False]],
    [np.array([1.0, 0.0]), [True, 0]],
)
_ARRAYS = (
    (StateVector, "amplitudes", ([0.5] * 4, (0.5, 0.5, 0.5, 0.5), np.full(4, 0.5 + 0j),
                                 [np.float64(0.5), 0.5, np.int64(0) + 0.5, 0.5 + 0j])),
    (StateVector.normalized, "amplitudes", ([1, 1, 1, 1], np.ones(4, dtype=np.int64))),
    (DensityMatrix, "matrix", ([[1, 0], [0, 0]], ((1.0, 0.0), (0.0, 0.0)),
                               np.diag([np.float32(1.0), np.float32(0.0)]))),
)


@pytest.mark.parametrize("make, name, taken", _ARRAYS, ids=[a[0].__qualname__ for a in _ARRAYS])
def test_a_state_constructor_names_what_is_no_array_of_numbers(make, name, taken):
    for value in _NO_NUMBERS:
        message = f"{name} must be an array of numbers, got {qcore._shown(value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(value)
    # each array it takes holds the same complex entries as the first
    expected = make(taken[0])
    for value in taken:
        assert _same(make(value), expected), value
