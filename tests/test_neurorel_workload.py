"""Workload files: byte-stable writes, named errors on malformed input."""

import math

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faultlab.neurorel import SnnWorkloadGraph, load_workload, random_workload, save_workload

KEYS = ("src", "dst", "weight", "activation")


def _document(g):
    return {"format": "faultlab-workload/1", "neurons": g.neurons.tolist(),
            "synapses": [dict(zip(KEYS, s))
                         for s in zip(*(getattr(g, key).tolist() for key in KEYS))]}


def _graph(neurons, synapses):
    """The graph of ``neurons`` and ``(src, dst, weight, activation)`` tuples."""
    return SnnWorkloadGraph(neurons, *(list(zip(*synapses)) or [()] * 4))


def _assert_safe_dumper_bytes(path, g):
    save_workload(path, g)
    assert path.read_text() == yaml.dump(_document(g), Dumper=yaml.SafeDumper,
                                         sort_keys=False)
    assert _document(load_workload(path)) == _document(g)


# repr writes 1e16, 1e17, 1e-7, 5e-324 and -1e22 with no "." before the
# exponent, where PyYAML inserts ".0"; the others have one
EDGE_FLOATS = [-0.0, 0.0, 1e16, 1e17, 1e-7, -1.5e-300, 1.2345678901234567e19, 5e-324,
               2.0**63, -1e22]


def test_save_writes_the_pure_python_dumper_bytes(tmp_path):
    edges = _graph((0, 1), [(0, 1, v, abs(v)) for v in EDGE_FLOATS])
    empty = _graph((3, 7, 9), [])
    for name, g in [("random", random_workload(30, 200, seed=4)), ("edges", edges),
                    ("empty", empty)]:
        _assert_safe_dumper_bytes(tmp_path / f"{name}.yaml", g)
    assert (tmp_path / "empty.yaml").read_text().endswith("\nsynapses: []\n")


_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(EDGE_FLOATS),
                    st.integers(-2**63, 2**63).map(float),
                    st.integers(-1074, -1022).map(lambda e: 2.0**e))  # subnormals


@st.composite
def _graphs(draw):
    n = draw(st.integers(2, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=8))
    return _graph(range(n), [(src, dst, draw(_FINITE), abs(draw(_FINITE)))
                             for src, dst in pairs])


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=_graphs())
def test_save_writes_what_the_safe_dumper_writes(tmp_path, g):
    _assert_safe_dumper_bytes(tmp_path / "w.yaml", g)


@pytest.mark.parametrize("field", ["weight", "activation"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_synapse_rejects_non_finite_values(field, value):
    kwargs = {"src": 0, "dst": 1, "weight": 0.5, "activation": 3.0, field: value}
    with pytest.raises(ValueError, match=field):
        SnnWorkloadGraph(neurons=(0, 1), **{key: [v] for key, v in kwargs.items()})


@pytest.mark.parametrize("field, ids", [("neurons", [0, 1.5]), ("src", [0.7]),
                                        ("dst", [1.25])])
def test_graph_rejects_fractional_ids(field, ids):
    columns = {"neurons": [0, 1], "src": [0], "dst": [1], "weight": [0.5],
               "activation": [3.0], field: ids}
    with pytest.raises(ValueError, match=f"{field}: ids must be integers"):
        SnnWorkloadGraph(**columns)


def _write(tmp_path, text):
    path = tmp_path / "w.yaml"
    path.write_text(text)
    return path


GOOD = "format: faultlab-workload/1\nneurons: [0, 1, 2]\nsynapses:\n"


@pytest.mark.parametrize("entries, message", [
    ("- {src: 0, dst: 1, weight: 0.5, activation: 2}\n- {src: 1, dst: 2, weight: 1}\n",
     r"synapses\[1\]: missing key 'activation'"),
    ("- {src: 0, dst: 1, weight: 0.5, activation: 2}\n- [1, 2, 0.5, 2]\n",
     r"synapses\[1\]: expected a mapping"),
    ("- {src: 0, dst: 1, weight: .nan, activation: 2}\n",
     r"synapses\[0\]: weight nan is not finite"),
    ("- {src: 0, dst: 1, weight: 0.5, activation: .nan}\n",
     r"synapses\[0\]: activation count must be finite"),
    ("- {src: zero, dst: 1, weight: 0.5, activation: 2}\n", r"synapses\[0\]: "),
    ("- {src: 0, dst: 7, weight: 0.5, activation: 2}\n", r"unknown neuron"),
    ("- {src: 0, dst: 1, weight: 0.5, activation: 2}\n- {src: 1, dst: 7, weight: 0.5, "
     "activation: 2}\n", r"synapses\[1\]: synapse 1->7 references unknown neuron"),
    ("- {src: 0, dst: 7, weight: 0.5, activation: 2}\n- {src: 2, dst: 2, weight: 0.5, "
     "activation: 2}\n", r"synapses\[1\]: self-loop synapse on neuron 2"),
    ("- {src: 0, dst: 1, weight: 0.5, activation: 2}\n- {src: 2, dst: 2, weight: .nan, "
     "activation: .nan}\n- {src: 0, dst: 1, weight: .nan, activation: 2}\n",
     r"synapses\[1\]: self-loop synapse on neuron 2"),
])
def test_load_names_the_bad_entry(tmp_path, entries, message):
    with pytest.raises(ValueError, match=message):
        load_workload(_write(tmp_path, GOOD + entries))


def test_load_rejects_unparsable_yaml(tmp_path):
    with pytest.raises(ValueError, match="not valid YAML"):
        load_workload(_write(tmp_path, GOOD + "- {src: 0, dst: [1\n"))


def test_load_rejects_document_without_neuron_list(tmp_path):
    with pytest.raises(ValueError, match="neurons: need a list"):
        load_workload(_write(tmp_path, "format: faultlab-workload/1\nsynapses: []\n"))


ID = f"must be an integer in [{-2**63}, {2**63 - 1}]"
NEURON_LIST = f"neurons: need a list of at least 1, each of which {ID}"


@pytest.mark.parametrize("neurons, synapse, message", [
    ("[0, 1, 2]", "{src: 0.7, dst: 1, weight: 0.5, activation: 2}",
     f"synapses[0]: src: {ID}"),
    ("[0, 1, 2]", "{src: 1, dst: 2.9, weight: 0.5, activation: 2}",
     f"synapses[0]: dst: {ID}"),
    ("[0, 1, 2]", "{src: true, dst: 2, weight: 0.5, activation: 2}",
     f"synapses[0]: src: {ID}"),
    ("[0, 1, 2]", "{src: 0, dst: 1, weight: '0.5', activation: 2}",
     "synapses[0]: weight: must be a number"),
    ("[0, 1, 0.5]", "{src: 0, dst: 1, weight: 0.5, activation: 2}", NEURON_LIST),
    ("[0, 1, a]", "{src: 0, dst: 1, weight: 0.5, activation: 2}", NEURON_LIST),
    ("[]", "{src: 0, dst: 1, weight: 0.5, activation: 2}", NEURON_LIST),
    (f"[0, 1, {2**70}]", "{src: 0, dst: 1, weight: 0.5, activation: 2}", NEURON_LIST),
    ("[0, 1, 2, 1, 0]", "{src: 0, dst: 1, weight: 0.5, activation: 2}",
     "neurons[3]: duplicate neuron ids"),
    ("[0, 1, 2]", f"{{src: 0, dst: {-2**63 - 1}, weight: 0.5, activation: 2}}",
     f"synapses[0]: dst: {ID}"),
], ids=["src-fraction", "dst-fraction", "src-bool", "weight-string", "neuron-fraction",
        "neuron-string", "no-neurons", "neuron-past-int64", "duplicate-neuron",
        "dst-past-int64"])
def test_load_checks_each_value_by_its_rule(tmp_path, neurons, synapse, message):
    # no value is cast: a fraction is not cut to an integer id
    path = _write(tmp_path, f"format: faultlab-workload/1\nneurons: {neurons}\n"
                            f"synapses:\n- {synapse}\n")
    with pytest.raises(ValueError) as err:
        load_workload(path)
    assert str(err.value) == f"{path}: {message}"


_JUNK = st.one_of(st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True),
                  st.booleans(), st.none(), st.text(max_size=3),
                  st.lists(st.integers(-1, 2), max_size=2), st.just({"src": 0}))


@st.composite
def _mutated_workload(draw):
    """The bytes of a valid workload file with one value, key or run of bytes changed."""
    doc = _document(random_workload(5, 6, seed=draw(st.integers(0, 3))))
    how = draw(st.sampled_from(["value", "drop", "neuron", "entry", "bytes"]))
    if how == "value":
        entry = draw(st.sampled_from(doc["synapses"]))
        entry[draw(st.sampled_from(sorted(entry)))] = draw(_JUNK)
    elif how == "drop":
        del doc[draw(st.sampled_from(["format", "neurons", "synapses"]))]
    elif how == "neuron":
        doc["neurons"][draw(st.integers(0, 4))] = draw(_JUNK)
    elif how == "entry":
        doc["synapses"][draw(st.integers(0, 5))] = draw(_JUNK)
    data = yaml.safe_dump(doc, sort_keys=False).encode()
    if how == "bytes":
        at, cut = draw(st.integers(0, len(data) - 1)), draw(st.integers(0, 3))
        data = data[:at] + draw(st.binary(max_size=3)) + data[at + cut:]
    return data


@settings(max_examples=150, deadline=1000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_mutated_workload())
def test_mutated_workload_loads_valid_or_names_its_path(tmp_path, data):
    path = tmp_path / "w.yaml"
    path.write_bytes(data)
    try:
        g = load_workload(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}: ")
        return
    ids = set(g.neurons.tolist())
    assert g.neurons.dtype == np.int64 and len(ids) == len(g.neurons)
    for src, dst, weight, activation in zip(*(getattr(g, key).tolist() for key in KEYS)):
        assert type(src) is int and type(dst) is int and {src, dst} <= ids
        assert math.isfinite(weight) and math.isfinite(activation)
        assert activation >= 0
