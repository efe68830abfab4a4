"""SNN workload graphs: neurons plus synapses carrying activation counts.

Activation counts (writes or spikes per workload window) arrive with the
workload; spiking dynamics are not simulated here. File format
(faultlab-workload/1): a YAML document with ``neurons`` (list of ids) and
``synapses`` (list of {src, dst, weight, activation}). The writer emits
SafeDumper's bytes for this fixed schema itself; the reader uses libyaml.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..yamlio import REAL, integer, list_of, naming, read_document, require

FORMAT_TAG = "faultlab-workload/1"
# types only: Synapse checks that weight and activation are finite
_SYNAPSE_RULES = {"src": integer(), "dst": integer(), "weight": REAL, "activation": REAL}


@dataclass(frozen=True)
class Synapse:
    src: int
    dst: int
    weight: float
    activation: float

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"self-loop synapse on neuron {self.src}")
        if not math.isfinite(self.weight):
            raise ValueError(f"weight {self.weight} is not finite")
        if not (math.isfinite(self.activation) and self.activation >= 0):
            raise ValueError("activation count must be finite and non-negative")


@dataclass(frozen=True)
class SnnWorkloadGraph:
    neurons: tuple
    synapses: tuple

    def __post_init__(self):
        ids = set(self.neurons)
        if len(ids) != len(self.neurons):
            raise ValueError("duplicate neuron ids")
        for s in self.synapses:
            if s.src not in ids or s.dst not in ids:
                raise ValueError(f"synapse {s.src}->{s.dst} references unknown neuron")

    @property
    def total_activation(self) -> float:
        return float(sum(s.activation for s in self.synapses))


def _scalar(v) -> str:
    """PyYAML's text of an int or a finite float (its ``represent_float``)."""
    text = repr(v)
    return text.replace("e", ".0e", 1) if "e" in text and "." not in text else text


def save_workload(path, graph: SnnWorkloadGraph):
    lines = [f"format: {FORMAT_TAG}", "neurons:" + ("" if graph.neurons else " []")]
    lines += [f"- {n}" for n in graph.neurons]
    lines.append("synapses:" + ("" if graph.synapses else " []"))
    lines += [f"- src: {s.src}\n  dst: {s.dst}\n  weight: {_scalar(s.weight)}\n"
              f"  activation: {_scalar(s.activation)}" for s in graph.synapses]
    Path(path).write_text("\n".join(lines) + "\n")


def load_workload(path) -> SnnWorkloadGraph:
    """Read a workload file; a malformed entry raises ValueError naming it."""
    doc = read_document(path, FORMAT_TAG)
    neurons = require(doc.get("neurons"), list_of(integer(), min_len=1),
                      f"{path}: neurons")
    entries = doc.get("synapses", [])
    if not isinstance(entries, list):
        raise ValueError(f"{path}: synapses: expected a list")
    synapses = []
    for i, s in enumerate(entries):
        where = f"{path}: synapses[{i}]"
        if not isinstance(s, dict):
            raise ValueError(f"{where}: expected a mapping of {', '.join(_SYNAPSE_RULES)}")
        with naming(where):  # a missing key too
            src, dst, weight, activation = (require(s[key], rule, key)
                                            for key, rule in _SYNAPSE_RULES.items())
            synapses.append(Synapse(src, dst, float(weight), float(activation)))
    with naming(path):
        return SnnWorkloadGraph(neurons=tuple(neurons), synapses=tuple(synapses))


def random_workload(n_neurons: int, n_synapses: int, seed: int = 0,
                    max_activation: float = 1000.0) -> SnnWorkloadGraph:
    """Seeded random workload over distinct directed neuron pairs."""
    if n_neurons < 2:
        raise ValueError("need at least two neurons")
    limit = n_neurons * (n_neurons - 1)
    if n_synapses > limit:
        raise ValueError(f"at most {limit} distinct synapses for {n_neurons} neurons")
    rng = np.random.default_rng(seed)
    picks = rng.choice(limit, size=n_synapses, replace=False)
    synapses = []
    for p in picks:
        src, rest = divmod(int(p), n_neurons - 1)
        dst = rest if rest < src else rest + 1
        synapses.append(
            Synapse(src=src, dst=dst, weight=float(rng.uniform(-1, 1)),
                    activation=float(rng.integers(0, max_activation + 1)))
        )
    return SnnWorkloadGraph(neurons=tuple(range(n_neurons)), synapses=tuple(synapses))
