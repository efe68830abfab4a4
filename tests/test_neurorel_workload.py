"""Workload files: byte-stable writes, named errors on malformed input."""

import math

import pytest
import yaml

from faultlab.neurorel import Synapse, load_workload, random_workload, save_workload


def test_save_writes_the_pure_python_dumper_bytes(tmp_path):
    g = random_workload(30, 200, seed=4)
    path = tmp_path / "w.yaml"
    save_workload(path, g)
    doc = {
        "format": "faultlab-workload/1",
        "neurons": list(g.neurons),
        "synapses": [{"src": s.src, "dst": s.dst, "weight": s.weight,
                      "activation": s.activation} for s in g.synapses],
    }
    assert path.read_text() == yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False)
    assert load_workload(path) == g


@pytest.mark.parametrize("field", ["weight", "activation"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_synapse_rejects_non_finite_values(field, value):
    kwargs = {"src": 0, "dst": 1, "weight": 0.5, "activation": 3.0, field: value}
    with pytest.raises(ValueError, match=field):
        Synapse(**kwargs)


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
])
def test_load_names_the_bad_entry(tmp_path, entries, message):
    with pytest.raises(ValueError, match=message):
        load_workload(_write(tmp_path, GOOD + entries))


def test_load_rejects_unparsable_yaml(tmp_path):
    with pytest.raises(ValueError, match="not valid YAML"):
        load_workload(_write(tmp_path, GOOD + "- {src: 0, dst: [1\n"))


def test_load_rejects_document_without_neuron_list(tmp_path):
    with pytest.raises(ValueError, match="neurons: expected a list"):
        load_workload(_write(tmp_path, "format: faultlab-workload/1\nsynapses: []\n"))
