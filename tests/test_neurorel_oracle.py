"""The mapper's array paths against their frozen per-synapse references."""

from dataclasses import replace

import numpy as np
import pytest

import frozen_neuro
from faultlab.neurorel import (
    BtiParams,
    CrossbarConfig,
    PsoConfig,
    SnnWorkloadGraph,
    TddbParams,
    TileSpec,
    build_endurance_map,
    cut_cost,
    effective_lifetime,
    kl_partition,
    map_workload,
    place_synapses,
    pso_assign,
    random_workload,
)
from faultlab.neurorel import partition
from faultlab.neurorel.mapping import cluster_loads, mapping_fitness

ACTIVATIONS = ("integer", "fractional", "zero", "equal")
TILES = [TileSpec(3.0), TileSpec(1.8), TileSpec(2.4, 340.0)]


def _graph(n_neurons, n_synapses, seed, activations):
    """A random workload whose activations are replaced by the named kind."""
    return _with_activations(random_workload(n_neurons, n_synapses, seed=seed), seed,
                             activations)


def _with_activations(g, seed, activations):
    """``g`` with its activations replaced by the named kind; "integer" keeps them."""
    if activations == "integer":
        return g
    rng = np.random.default_rng(seed)
    n_synapses = len(g.src)
    values = {
        "fractional": rng.uniform(0, 1000, n_synapses),
        "zero": np.zeros(n_synapses),
        "equal": np.full(n_synapses, 7.0),
    }[activations]
    return replace(g, activation=values)


def _fitness_pair(g, clusters, comm_weight):
    loads = cluster_loads(g, clusters)
    return (mapping_fitness(g, clusters, loads, TILES, comm_weight),
            frozen_neuro.mapping_fitness(frozen_neuro.synapses(g), clusters, loads, TILES,
                                         TddbParams(), BtiParams(), comm_weight))


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
    loads = np.zeros(len(clusters))
    new = mapping_fitness(g, clusters, loads, TILES, 0.5)
    old = frozen_neuro.mapping_fitness(frozen_neuro.synapses(g), clusters, loads, TILES,
                                       TddbParams(), BtiParams(), 0.5)
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


@pytest.mark.parametrize("swarm", [(1, 1), (5, 7), (20, 50)])  # particles, iterations
@pytest.mark.parametrize("n_tiles", [1, 2, 3])
@pytest.mark.parametrize("comm_weight", [0.0, 0.5])
def test_pso_equals_frozen_reference(swarm, n_tiles, comm_weight):
    g = _graph(40, 300, seed=n_tiles, activations="integer")
    clusters = kl_partition(g, capacity=6, seed=0)
    fitness = mapping_fitness(g, clusters, cluster_loads(g, clusters), TILES[:n_tiles],
                              comm_weight)
    config = PsoConfig(*swarm)
    for seed in range(3):
        best, trace = pso_assign(len(clusters), n_tiles, fitness, config, seed=seed)
        ref_best, ref_trace = frozen_neuro.pso_assign(len(clusters), n_tiles, fitness,
                                                      config, seed=seed)
        assert best.dtype == ref_best.dtype and np.array_equal(best, ref_best)
        assert trace == ref_trace


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


# 17 and 40 neurons scan whole blocks; at 100 and 300, a side A of at least
# _FULL_SCAN_ROWS neurons is bounded, and its swapped rows stay in place at -inf
@pytest.mark.parametrize("n_neurons", [17, 40, 100, 300])
@pytest.mark.parametrize("activations", ACTIVATIONS)
def test_kl_pass_equals_frozen_reference(activations, n_neurons):
    g = _graph(n_neurons, 6 * n_neurons, seed=n_neurons, activations=activations)
    _, w = partition._weight_matrix(g)
    rng = np.random.default_rng(n_neurons)
    # balanced, then lopsided with the smaller and with the larger side A
    for split in ((n_neurons + 1) // 2, n_neurons // 3, 2 * n_neurons // 3):
        in_a = np.zeros(n_neurons)
        in_a[rng.permutation(n_neurons)[:split]] = 1.0
        _passes_equal(w, in_a)


@pytest.mark.parametrize("activations", ACTIVATIONS)
def test_kl_pass_on_a_complete_bipartite_split_equals_frozen_reference(activations):
    # every synapse crosses a 100-by-200 split: k swaps leave a cut of
    # (100 - k)(200 - k) + k^2 synapses, least at k = 75, after most of side A
    # has swapped; with equal activations, each of those swaps breaks a tie
    n = 300
    in_a = np.zeros(n)
    in_a[np.random.default_rng(3).permutation(n)[:n // 3]] = 1.0
    side_a, side_b = np.flatnonzero(in_a), np.flatnonzero(in_a == 0)
    src, dst = np.repeat(side_a, len(side_b)), np.tile(side_b, len(side_a))
    activation = np.random.default_rng(3).integers(0, 1001, len(src))
    g = _with_activations(SnnWorkloadGraph(neurons=np.arange(n), src=src, dst=dst,
                                           weight=np.ones(len(src)), activation=activation),
                          3, activations)
    _passes_equal(partition._weight_matrix(g)[1], in_a)


@pytest.mark.parametrize("activations", ACTIVATIONS)
def test_kl_partition_equals_frozen_reference(monkeypatch, activations):
    g = _graph(60, 400, seed=8, activations=activations)
    clusters = kl_partition(g, capacity=7, seed=4)
    monkeypatch.setattr(partition, "_kl_pass", frozen_neuro.kl_pass)
    assert clusters == kl_partition(g, capacity=7, seed=4)


def test_kl_partition_of_a_bench_sized_workload_equals_frozen_reference(monkeypatch):
    g = random_workload(512, 8000, seed=13)  # the bench's neuro-map size
    clusters = kl_partition(g, capacity=10, seed=0)
    monkeypatch.setattr(partition, "_kl_pass", frozen_neuro.kl_pass)
    assert clusters == kl_partition(g, capacity=10, seed=0)


def _odd_graph(seed, activations, shape):
    """A workload whose ids are scattered and unsorted, with reversed and repeated
    synapses in shuffled order; "empty" keeps the neurons and drops every synapse."""
    rng = np.random.default_rng(seed)
    g = _graph(30, 150, seed, activations)
    ids = rng.choice(np.arange(-500, 10**6), 30, replace=False)
    src, dst = ids[g.src], ids[g.dst]
    twin = rng.choice(150, 60)  # 40 reversed, then 20 repeated
    src, dst = (np.concatenate([src, dst[twin[:40]], src[twin[40:]]]),
                np.concatenate([dst, src[twin[:40]], dst[twin[40:]]]))
    activation = np.concatenate([g.activation, g.activation[rng.choice(150, 60)]])
    keep = rng.permutation(len(src))[:0 if shape == "empty" else None]
    return SnnWorkloadGraph(neurons=ids, src=src[keep], dst=dst[keep],
                            weight=np.ones(len(keep)), activation=activation[keep])


@pytest.mark.parametrize("shape", ["full", "empty"])
@pytest.mark.parametrize("activations", ACTIVATIONS)
def test_array_paths_equal_loop_reference(activations, shape):
    g = _odd_graph(11, activations, shape)
    syns = frozen_neuro.synapses(g)
    ids, w = partition._weight_matrix(g)
    ref_ids, ref_w = frozen_neuro.weight_matrix(g.neurons.tolist(), syns)
    assert ids == ref_ids and np.array_equal(w, ref_w)

    for capacity in (3, 7, 10):
        clusters = kl_partition(g, capacity=capacity, seed=1)
        assert cut_cost(g, clusters) == frozen_neuro.cut_cost(syns, clusters)
        assert np.array_equal(cluster_loads(g, clusters),
                              frozen_neuro.cluster_loads(syns, clusters))

    # the 16x16 map's mirror cells tie in endurance
    emap = build_endurance_map(CrossbarConfig(n=16))
    cells = place_synapses(g.activation, emap)
    ref = frozen_neuro.place_synapses(g.activation.tolist(), emap)
    assert dict(enumerate(map(tuple, cells.tolist()))) == ref
    if not syns:
        with pytest.raises(ValueError):
            effective_lifetime(cells, g.activation, emap)
        return
    assert (effective_lifetime(cells, g.activation, emap)
            == frozen_neuro.effective_lifetime(ref, g.activation.tolist(), emap))

    # each cluster's synapses placed on its own crossbar, as map_workload places them
    mapping = map_workload(g, TILES, capacity=7, endurance_map=emap,
                           pso_config=PsoConfig(particles=2, iterations=1), seed=1)
    owner = frozen_neuro.cluster_owner(mapping.clusters)
    lifetime = np.inf
    for k in range(len(mapping.clusters)):
        owned = [i for i, s in enumerate(syns) if owner[s[1]] == k]
        local = frozen_neuro.place_synapses([syns[i][3] for i in owned], emap)
        for j, cell in local.items():
            assert mapping.owner[owned[j]] == k and tuple(mapping.cells[owned[j]]) == cell
        if local:
            lifetime = min(lifetime, frozen_neuro.effective_lifetime(
                local, [syns[i][3] for i in owned], emap))
    assert mapping.lifetime == lifetime
