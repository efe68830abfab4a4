"""The array fitness and Kernighan-Lin pass against their frozen references."""

from dataclasses import replace

import numpy as np
import pytest

import frozen_neuro
from faultlab.neurorel import (
    BtiParams,
    PsoConfig,
    SnnWorkloadGraph,
    TddbParams,
    TileSpec,
    kl_partition,
    pso_assign,
    random_workload,
)
from faultlab.neurorel import partition
from faultlab.neurorel.mapping import cluster_loads, mapping_fitness, owned_synapses

ACTIVATIONS = ("integer", "fractional", "zero", "equal")
TILES = [TileSpec(3.0), TileSpec(1.8), TileSpec(2.4, 340.0)]


def _graph(n_neurons, n_synapses, seed, activations):
    """A random workload whose activations are replaced by the named kind."""
    g = random_workload(n_neurons, n_synapses, seed=seed)
    if activations == "integer":
        return g
    rng = np.random.default_rng(seed)
    values = {
        "fractional": rng.uniform(0, 1000, n_synapses),
        "zero": np.zeros(n_synapses),
        "equal": np.full(n_synapses, 7.0),
    }[activations]
    synapses = tuple(replace(s, activation=float(a)) for s, a in zip(g.synapses, values))
    return SnnWorkloadGraph(neurons=g.neurons, synapses=synapses)


def _fitness_pair(g, clusters, comm_weight):
    owned = owned_synapses(g, clusters)
    loads = cluster_loads(g, owned)
    return (mapping_fitness(g, clusters, loads, TILES, comm_weight),
            frozen_neuro.mapping_fitness(g, clusters, owned, loads, TILES, TddbParams(),
                                         BtiParams(), comm_weight))


@pytest.mark.parametrize("comm_weight", [0.0, 0.5])
@pytest.mark.parametrize("activations", ACTIVATIONS)
def test_fitness_equals_frozen_reference(activations, comm_weight):
    g = _graph(40, 300, seed=5, activations=activations)
    clusters = kl_partition(g, capacity=6, seed=0)
    new, old = _fitness_pair(g, clusters, comm_weight)
    rng = np.random.default_rng(9)
    k = len(clusters)
    assignments = (
        [rng.integers(0, len(TILES), size=k) for _ in range(40)]
        # tile 2 gets no duty
        + [rng.integers(0, 2, size=k) for _ in range(10)]
        + [np.zeros(k, dtype=int), np.full(k, 2)]
    )
    for a in assignments:
        assert new(a) == old(a)
        assert new(list(a)) == old(a)

    config = PsoConfig(particles=6, iterations=8)
    best_new, trace_new = pso_assign(k, len(TILES), new, config, seed=3)
    best_old, trace_old = pso_assign(k, len(TILES), old, config, seed=3)
    assert np.array_equal(best_new, best_old)
    assert trace_new == trace_old


def test_crossing_term_alone_equals_frozen_reference():
    # zero loads leave no aging term, so the crossing sum's last bit shows
    g = _graph(40, 300, seed=6, activations="fractional")
    clusters = kl_partition(g, capacity=6, seed=0)
    owned = owned_synapses(g, clusters)
    loads = np.zeros(len(clusters))
    new = mapping_fitness(g, clusters, loads, TILES, 0.5)
    old = frozen_neuro.mapping_fitness(g, clusters, owned, loads, TILES, TddbParams(),
                                       BtiParams(), 0.5)
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.integers(0, len(TILES), size=len(clusters))
        assert new(a) == old(a) > 0


def test_fitness_without_inter_cluster_synapses_equals_frozen_reference():
    g = _graph(12, 40, seed=2, activations="fractional")
    clusters = kl_partition(g, capacity=12, seed=0)
    assert len(clusters) == 1
    new, old = _fitness_pair(g, clusters, comm_weight=0.5)
    for tile in range(len(TILES)):
        assert new([tile]) == old([tile])


def _passes_equal(w, in_a):
    """Run KL passes from ``in_a`` until no gain, checking each against the oracle."""
    for _ in range(12):
        out, improved = partition._kl_pass(w, in_a)
        ref_out, ref_improved = frozen_neuro.kl_pass(w, in_a)
        assert improved == ref_improved
        assert np.array_equal(out, ref_out)
        if not improved:
            return
        in_a = out


@pytest.mark.parametrize("n_neurons", [17, 40])
@pytest.mark.parametrize("activations", ACTIVATIONS)
def test_kl_pass_equals_frozen_reference(activations, n_neurons):
    g = _graph(n_neurons, 6 * n_neurons, seed=n_neurons, activations=activations)
    _, w = partition._weight_matrix(g)
    rng = np.random.default_rng(n_neurons)
    for split in ((n_neurons + 1) // 2, n_neurons // 3):  # balanced, then lopsided
        in_a = np.zeros(n_neurons)
        in_a[rng.permutation(n_neurons)[:split]] = 1.0
        _passes_equal(w, in_a)


@pytest.mark.parametrize("activations", ACTIVATIONS)
def test_kl_partition_equals_frozen_reference(monkeypatch, activations):
    g = _graph(60, 400, seed=8, activations=activations)
    clusters = kl_partition(g, capacity=7, seed=4)
    monkeypatch.setattr(partition, "_kl_pass", frozen_neuro.kl_pass)
    assert clusters == kl_partition(g, capacity=7, seed=4)
