"""Kernighan-Lin partitioning tests with exhaustive and random oracles."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from faultlab.neurorel import (
    SnnWorkloadGraph,
    cut_cost,
    kl_partition,
    random_workload,
)
from faultlab.neurorel import partition


def _synapses(g):
    """(src, dst, activation) of each synapse."""
    return list(zip(g.src.tolist(), g.dst.tolist(), g.activation.tolist()))


def _two_cliques_graph(bridge_activation=7.0):
    synapses = []
    for base in (0, 8):
        for i in range(8):
            for j in range(i + 1, 8):
                synapses.append((base + i, base + j, 1.0, 100.0))
    synapses.append((3, 11, 1.0, bridge_activation))
    return SnnWorkloadGraph(range(16), *zip(*synapses))


def test_graph_fitting_one_crossbar_is_single_cluster():
    g = random_workload(10, 30, seed=1)
    clusters = kl_partition(g, capacity=10, seed=0)
    assert clusters == [sorted(g.neurons.tolist())]
    assert cut_cost(g, clusters) == 0.0


def test_capacity_below_one_neuron_rejected():
    g = random_workload(4, 6, seed=1)
    with pytest.raises(ValueError):
        kl_partition(g, capacity=0)


def test_empty_graph_rejected():
    g = SnnWorkloadGraph(neurons=(), src=(), dst=(), weight=(), activation=())
    with pytest.raises(ValueError):
        kl_partition(g, capacity=4)


def test_two_cliques_cut_is_exhaustively_optimal():
    g = _two_cliques_graph()
    clusters = kl_partition(g, capacity=8, seed=0)
    got = cut_cost(g, clusters)

    # oracle: enumerate all balanced bipartitions of the 16 neurons
    best = np.inf
    nodes = list(range(16))
    for side in itertools.combinations(nodes, 8):
        side_set = set(side)
        cut = sum(
            activation
            for src, dst, activation in _synapses(g)
            if (src in side_set) != (dst in side_set)
        )
        best = min(best, cut)
    assert got == best == 7.0


def test_partition_is_exact_and_capacity_bounded():
    g = random_workload(50, 300, seed=3)
    clusters = kl_partition(g, capacity=12, seed=1)
    assert all(len(c) <= 12 for c in clusters)
    flat = sorted(n for c in clusters for n in c)
    assert flat == sorted(g.neurons.tolist())


def test_partition_deterministic():
    g = random_workload(30, 150, seed=4)
    assert kl_partition(g, 8, seed=5) == kl_partition(g, 8, seed=5)


def test_kl_beats_mean_random_bipartition_on_random_graphs(rng):
    wins = []
    for trial in range(50):
        n = int(rng.integers(12, 25))
        m = int(rng.integers(n, min(3 * n, n * (n - 1))))
        g = random_workload(n, m, seed=1000 + trial)
        clusters = kl_partition(g, capacity=(n + 1) // 2, seed=trial)
        kl_cut = cut_cost(g, clusters)

        # random balanced bipartition baseline, averaged in-run
        cuts = []
        nodes = sorted(g.neurons.tolist())
        for k in range(20):
            perm = rng.permutation(n)
            half = {nodes[v] for v in perm[: (n + 1) // 2]}
            cuts.append(
                sum(activation for src, dst, activation in _synapses(g)
                    if (src in half) != (dst in half))
            )
        wins.append(kl_cut <= np.mean(cuts))
    assert all(wins)


def _overflow_graph(activation):
    """40 neurons and 200 synapses, each carrying ``activation``."""
    rng = np.random.default_rng(0)
    src, rest = np.divmod(rng.choice(40 * 39, 200, replace=False), 39)
    return SnnWorkloadGraph(neurons=range(40), src=src, dst=rest + (rest >= src),
                            weight=np.ones(200), activation=np.full(200, activation))


def test_activations_summing_past_the_gain_bound_rejected():
    with pytest.raises(ValueError, match=r"the activations sum to inf, above .*: "
                                         r"the partition's gains would overflow float64"):
        kl_partition(_overflow_graph(1e308), capacity=10)
    # finite, but a gain could still reach four times it
    limit = partition._MAX_TOTAL_ACTIVATION
    with pytest.raises(ValueError, match="the activations sum to"):
        kl_partition(_overflow_graph(limit / 100), capacity=10)


def test_activations_summing_to_the_gain_bound_partition_as_scaled_down():
    # scaling by a power of two is exact, so any overflow would change the clusters
    g = random_workload(60, 400, seed=3)
    scale = 2.0 ** np.floor(np.log2(partition._MAX_TOTAL_ACTIVATION / g.activation.sum()))
    big = replace(g, activation=g.activation * scale)
    assert big.activation.sum() <= partition._MAX_TOTAL_ACTIVATION
    assert big.activation.sum() * 2 > partition._MAX_TOTAL_ACTIVATION
    clusters = kl_partition(g, capacity=7, seed=2)
    assert kl_partition(big, capacity=7, seed=2) == clusters
    assert cut_cost(big, clusters) == cut_cost(g, clusters) * scale
