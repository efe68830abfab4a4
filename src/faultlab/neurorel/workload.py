"""SNN workload graphs: neurons plus synapses carrying activation counts.

A graph is five read-only 1-D arrays: the neuron ids, and per synapse its
``src`` and ``dst`` ids, ``weight`` and ``activation``. Activation counts
(writes or spikes per workload window) arrive with the workload; spiking
dynamics are not simulated here. File format (faultlab-workload/1): a YAML
document with ``neurons`` (list of ids) and ``synapses`` (list of {src, dst,
weight, activation}). The writer emits SafeDumper's bytes for this fixed
schema itself; the reader uses libyaml.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..yamlio import REAL, integer, list_of, naming, read_document, require, scalar_text

FORMAT_TAG = "faultlab-workload/1"
_ID = integer(-2**63, 2**63 - 1)  # an id an int64 holds
# types only: the graph checks that weight and activation are finite
_SYNAPSE_RULES = {"src": _ID, "dst": _ID, "weight": REAL, "activation": REAL}


def running_sum(values) -> float:
    """``values`` added in order from 0.0, as a Python loop adds them; np.sum's
    pairwise summation would round non-integer values differently."""
    return float(np.cumsum(np.append(0.0, values))[-1])


@dataclass(frozen=True, eq=False)
class SnnWorkloadGraph:
    """Neuron ids, and per synapse its src and dst ids, weight and activation."""

    neurons: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    activation: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            is_id, value = f.name not in ("weight", "activation"), getattr(self, f.name)
            array = np.array(value, dtype=np.int64 if is_id else np.float64)
            if is_id and not np.array_equal(array, value):  # a cast would cut 0.7 to 0
                raise ValueError(f"{f.name}: ids must be integers")
            array.flags.writeable = False
            object.__setattr__(self, f.name, array)
        src, dst, weight, act = self.src, self.dst, self.weight, self.activation
        if not len(src) == len(dst) == len(weight) == len(act):
            raise ValueError("src, dst, weight and activation differ in length")
        # each synapse's own checks in turn, then the ids': the first failure is named
        bad = np.stack([src == dst, ~np.isfinite(weight), ~np.isfinite(act) | (act < 0)])
        if bad.any():
            i = int(np.argmax(bad.any(axis=0)))
            raise ValueError(f"synapses[{i}]: " + (
                f"self-loop synapse on neuron {src[i]}",
                f"weight {float(weight[i])} is not finite",
                "activation count must be finite and non-negative")[np.argmax(bad[:, i])])
        ids, first = np.unique(self.neurons, return_index=True)
        if len(ids) < len(self.neurons):
            i = int(np.argmax(np.bincount(first, minlength=len(self.neurons)) == 0))
            raise ValueError(f"neurons[{i}]: duplicate neuron ids")
        unknown = ~np.isin(np.stack([src, dst]), ids).all(axis=0)
        if unknown.any():
            i = int(np.argmax(unknown))
            raise ValueError(f"synapses[{i}]: synapse {src[i]}->{dst[i]} "
                             "references unknown neuron")


def save_workload(path, graph: SnnWorkloadGraph):
    neurons = graph.neurons.tolist()
    lines = [f"format: {FORMAT_TAG}", "neurons:" + ("" if neurons else " []")]
    lines += [f"- {n}" for n in neurons]
    lines.append("synapses:" + ("" if len(graph.src) else " []"))
    lines += [f"- src: {s}\n  dst: {d}\n  weight: {scalar_text(w)}\n"
              f"  activation: {scalar_text(a)}"
              for s, d, w, a in zip(*(getattr(graph, k).tolist() for k in _SYNAPSE_RULES))]
    Path(path).write_text("\n".join(lines) + "\n")


def load_workload(path) -> SnnWorkloadGraph:
    """Read a workload file; a malformed entry raises ValueError naming it."""
    doc = read_document(path, FORMAT_TAG)
    neurons = require(doc.get("neurons"), list_of(_ID, min_len=1), f"{path}: neurons")
    entries = doc.get("synapses", [])
    if not isinstance(entries, list):
        raise ValueError(f"{path}: synapses: expected a list")
    columns = {key: [] for key in _SYNAPSE_RULES}
    for i, s in enumerate(entries):
        where = f"{path}: synapses[{i}]"
        if not isinstance(s, dict):
            raise ValueError(f"{where}: expected a mapping of {', '.join(_SYNAPSE_RULES)}")
        with naming(where):  # a missing key, or an int too large for a float
            for key, rule in _SYNAPSE_RULES.items():
                value = require(s[key], rule, key)
                columns[key].append(float(value) if rule is REAL else value)
    with naming(path):
        return SnnWorkloadGraph(neurons=neurons, **columns)


def random_workload(n_neurons: int, n_synapses: int, seed: int = 0,
                    max_activation: float = 1000.0) -> SnnWorkloadGraph:
    """Seeded random workload over distinct directed neuron pairs."""
    if n_neurons < 2:
        raise ValueError("need at least two neurons")
    limit = n_neurons * (n_neurons - 1)
    if n_synapses > limit:
        raise ValueError(f"at most {limit} distinct synapses for {n_neurons} neurons")
    rng = np.random.default_rng(seed)
    src, rest = np.divmod(rng.choice(limit, size=n_synapses, replace=False), n_neurons - 1)
    weight, activation = [], []
    for _ in range(n_synapses):  # one uniform, then one integer draw per synapse
        weight.append(rng.uniform(-1, 1))
        activation.append(rng.integers(0, max_activation + 1))
    return SnnWorkloadGraph(neurons=np.arange(n_neurons), src=src,
                            dst=rest + (rest >= src), weight=weight, activation=activation)
