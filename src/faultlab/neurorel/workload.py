"""SNN workload graphs: neurons plus synapses carrying activation counts.

Activation counts (writes or spikes per workload window) arrive with the
workload; spiking dynamics are not simulated here. File format
(faultlab-workload/1): a YAML document with ``neurons`` (list of ids) and
``synapses`` (list of {src, dst, weight, activation}).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

FORMAT_TAG = "faultlab-workload/1"


@dataclass(frozen=True)
class Synapse:
    src: int
    dst: int
    weight: float
    activation: float

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"self-loop synapse on neuron {self.src}")
        if self.activation < 0:
            raise ValueError("activation count must be non-negative")


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


def save_workload(path, graph: SnnWorkloadGraph):
    doc = {
        "format": FORMAT_TAG,
        "neurons": list(graph.neurons),
        "synapses": [
            {"src": s.src, "dst": s.dst, "weight": s.weight, "activation": s.activation}
            for s in graph.synapses
        ],
    }
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))


def load_workload(path) -> SnnWorkloadGraph:
    doc = yaml.safe_load(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise ValueError(f"{path}: not a {FORMAT_TAG} document")
    synapses = tuple(
        Synapse(src=int(s["src"]), dst=int(s["dst"]), weight=float(s["weight"]),
                activation=float(s["activation"]))
        for s in doc.get("synapses", [])
    )
    return SnnWorkloadGraph(neurons=tuple(doc["neurons"]), synapses=synapses)


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
