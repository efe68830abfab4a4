"""Binary PSO and end-to-end mapping tests."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from faultlab.neurorel import (
    CrossbarConfig,
    PsoConfig,
    TileSpec,
    build_endurance_map,
    map_workload,
    pso_assign,
    random_baseline_fitness,
    random_workload,
)
from faultlab.neurorel import aging
from faultlab.neurorel.mapping import (
    cluster_loads,
    mapping_fitness,
    tile_duties,
)
from faultlab.neurorel.partition import kl_partition


def _fitness_for(graph, clusters, tiles, comm_weight=0.0):
    loads = cluster_loads(graph, clusters)
    return mapping_fitness(graph, clusters, loads, tiles, comm_weight)


def test_single_cluster_single_tile():
    best, trace = pso_assign(1, 1, lambda a: 1.0, PsoConfig(particles=2, iterations=1),
                             seed=0)
    assert list(best) == [0]
    assert trace == [1.0]


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(particles=0)
    with pytest.raises(ValueError):
        PsoConfig(iterations=0)


def test_gbest_trace_non_increasing():
    g = random_workload(24, 100, seed=2)
    clusters = kl_partition(g, capacity=6, seed=0)
    tiles = [TileSpec(3.0), TileSpec(1.8), TileSpec(3.0, 340.0), TileSpec(1.8, 340.0)]
    fitness = _fitness_for(g, clusters, tiles, comm_weight=0.5)
    for seed in range(5):
        _, trace = pso_assign(len(clusters), len(tiles), fitness,
                              PsoConfig(particles=12, iterations=30), seed=seed)
        assert all(a >= b for a, b in zip(trace, trace[1:]))


def test_pso_finds_exhaustive_optimum_three_clusters_two_tiles():
    g = random_workload(24, 120, seed=7)
    clusters = [list(range(0, 8)), list(range(8, 16)), list(range(16, 24))]
    tiles = [TileSpec(3.0), TileSpec(1.8)]
    fitness = _fitness_for(g, clusters, tiles)
    optimum = min(
        fitness(np.array(a)) for a in itertools.product(range(2), repeat=3)
    )
    hits = 0
    for seed in range(10):
        best, _ = pso_assign(3, 2, fitness, PsoConfig(particles=20, iterations=50),
                             seed=seed)
        if fitness(best) <= optimum + 1e-12:
            hits += 1
    assert hits >= 9


def test_pso_finds_optimum_with_communication_term():
    # heterogeneous tiles plus a cut penalty make the optimum non-trivial
    g = random_workload(30, 200, seed=9)
    clusters = kl_partition(g, capacity=6, seed=1)
    tiles = [TileSpec(3.0), TileSpec(1.8), TileSpec(2.4, 320.0)]
    fitness = _fitness_for(g, clusters, tiles, comm_weight=2.0)
    n = len(clusters)
    optimum = min(
        fitness(np.array(a)) for a in itertools.product(range(3), repeat=n)
    )
    hits = 0
    for seed in range(10):
        best, _ = pso_assign(n, 3, fitness, PsoConfig(particles=30, iterations=60),
                             seed=seed)
        if fitness(best) <= optimum + 1e-12:
            hits += 1
    assert hits >= 7


def test_pso_not_worse_than_random_baseline():
    g = random_workload(24, 100, seed=3)
    clusters = kl_partition(g, capacity=6, seed=0)
    tiles = [TileSpec(3.0), TileSpec(1.8), TileSpec(3.0, 340.0)]
    fitness = _fitness_for(g, clusters, tiles, comm_weight=1.0)
    for seed in range(10):
        best, _ = pso_assign(len(clusters), len(tiles), fitness,
                             PsoConfig(particles=15, iterations=30), seed=seed)
        baseline = random_baseline_fitness(len(clusters), len(tiles), fitness,
                                           seeds=range(100, 120))
        assert fitness(best) <= baseline


def test_tile_duties_sum_to_one():
    g = random_workload(20, 80, seed=5)
    clusters = kl_partition(g, capacity=5, seed=0)
    loads = cluster_loads(g, clusters)
    duties = tile_duties(loads, np.zeros(len(clusters), dtype=int), 3)
    assert duties.sum() == pytest.approx(1.0)
    assert duties[0] == pytest.approx(1.0)


def test_fitness_takes_a_tile_duty_one_ulp_above_one():
    # bincount adds the 14 fractional cluster loads in order, the total is a
    # pairwise sum, so the tile holding every cluster gets a duty of 1 + 2**-52
    g = random_workload(30, 120, seed=1)
    g = replace(g, activation=np.random.default_rng(1).random(120) * 100)
    clusters = kl_partition(g, capacity=3, seed=0)
    loads = cluster_loads(g, clusters)
    everything_on_one = np.zeros(len(clusters), dtype=int)
    fitness = mapping_fitness(g, clusters, loads, [TileSpec(3.0)])
    duty = tile_duties(loads, everything_on_one, 1)[0]
    assert duty == 1 + 2**-52
    assert fitness(everything_on_one) == duty / TileSpec(3.0).lifetime()


def test_fitness_computes_each_tile_lifetime_once_per_build(monkeypatch):
    calls, mttf_bti = [], aging.mttf_bti

    def counted_mttf_bti(v, t, params):
        calls.append((v, t))
        return mttf_bti(v, t, params)

    monkeypatch.setattr(aging, "mttf_bti", counted_mttf_bti)
    g = random_workload(24, 100, seed=2)
    clusters = kl_partition(g, capacity=6, seed=0)
    tiles = [TileSpec(3.0), TileSpec(1.8), TileSpec(3.0, 340.0), TileSpec(1.8, 340.0)]
    for comm_weight in (0.0, 0.5):
        calls.clear()
        fitness = _fitness_for(g, clusters, tiles, comm_weight)
        rng = np.random.default_rng(0)
        for _ in range(50):
            fitness(rng.integers(0, len(tiles), size=len(clusters)))
        assert calls == [(3.0, 298.0), (1.8, 298.0), (3.0, 340.0), (1.8, 340.0)]


def test_map_workload_end_to_end():
    g = random_workload(40, 250, seed=11)
    tiles = [TileSpec(3.0), TileSpec(1.8)]
    emap = build_endurance_map(CrossbarConfig(n=16))
    mapping = map_workload(
        g, tiles, capacity=10, endurance_map=emap,
        pso_config=PsoConfig(particles=10, iterations=20), seed=4,
    )
    # every synapse is mapped once, to its own cell of its cluster's crossbar
    cells = list(zip(mapping.owner.tolist(), *mapping.cells.T.tolist()))
    assert len(set(cells)) == len(cells) == len(g.src)
    assert all(0 <= row < 16 and 0 <= col < 16 for _, row, col in cells)
    assert mapping.lifetime > 0
    assert all(a >= b for a, b in zip(mapping.trace, mapping.trace[1:]))
    assert mapping.fitness == mapping.fitness_fn(mapping.assignment) == mapping.trace[-1]
    assert len(mapping.assignment) == len(mapping.clusters)
