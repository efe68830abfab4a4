"""Cluster-to-tile mapping: partition, place, and optimize for aging.

A synapse is owned by its post-neuron's cluster (weights live at the
post side of a crossbar). Tile duty is the fraction of total workload
activation its clusters handle; the PSO minimizes the series aging
fitness of the tile duties over the tile lifetimes, optionally plus a
weighted communication term (activation crossing between different tiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .aging import aging_fitness
from .crossbar import EnduranceMap
from .placement import CrossbarOverflow, effective_lifetime, place_synapses
from .partition import cut_cost, endpoint_clusters, kl_partition
from .pso import PsoConfig, pso_assign
from .workload import SnnWorkloadGraph, running_sum


@dataclass
class TileMapping:
    clusters: list
    assignment: np.ndarray  # cluster index -> tile index
    owner: np.ndarray  # synapse index -> index of the cluster holding its dst
    cells: np.ndarray  # synapse index -> (row, col) in its cluster's crossbar
    lifetime: float
    fitness: float
    cut: float
    trace: list
    fitness_fn: Callable  # the fitness the PSO minimized, over assignments


def cluster_loads(graph: SnnWorkloadGraph, clusters) -> np.ndarray:
    """Activation of the synapses each cluster owns, summed in synapse order."""
    return np.bincount(endpoint_clusters(graph, clusters)[1], weights=graph.activation,
                       minlength=len(clusters))


def tile_duties(loads: np.ndarray, assignment, n_tiles: int) -> np.ndarray:
    total = loads.sum()
    if total <= 0:
        return np.zeros(n_tiles)
    # bincount adds the loads in cluster order, as a loop over clusters would
    return np.bincount(assignment, weights=loads, minlength=n_tiles) / total


def mapping_fitness(graph: SnnWorkloadGraph, clusters, loads, tiles,
                    comm_weight: float = 0.0):
    """Fitness callable over cluster->tile assignments (lower is better).

    Each tile's lifetime, and the endpoint clusters and activations of the
    inter-cluster synapses, are computed once. Each call turns the assignment
    into tile duties and adds up each tile's duty over its lifetime, in tile
    order; with a ``comm_weight``, it adds that weight times the share of the
    activation, summed in synapse order, whose clusters sit on different tiles.
    """
    lifetimes, act = [t.lifetime() for t in tiles], None
    if comm_weight > 0:
        src, dst = endpoint_clusters(graph, clusters)
        inter = src != dst
        src, dst, act = src[inter], dst[inter], graph.activation[inter]
        total = running_sum(graph.activation) or 1.0

    def fitness(assignment):
        value = aging_fitness(tile_duties(loads, assignment, len(tiles)).tolist(), lifetimes)
        if act is not None:
            assignment = np.asarray(assignment)
            crossing = act[assignment[src] != assignment[dst]]
            value += comm_weight * running_sum(crossing) / total
        return value

    return fitness


def map_workload(
    graph: SnnWorkloadGraph,
    tiles,
    capacity: int,
    endurance_map: EnduranceMap,
    pso_config: PsoConfig | None = None,
    seed: int = 0,
    comm_weight: float = 0.0,
) -> TileMapping:
    """Full mapping flow: KL partition, placement, PSO tile assignment.
    ``fitness`` is the PSO's best, ``trace[-1]``, and is not evaluated again."""
    if not tiles:
        raise ValueError("need at least one tile")
    clusters = kl_partition(graph, capacity, seed=seed)
    owner = endpoint_clusters(graph, clusters)[1]
    cells = np.zeros((len(owner), 2), dtype=np.int64)
    for k in range(len(clusters)):  # placement needs no tiles: fail before the PSO
        mine = owner == k
        try:
            cells[mine] = place_synapses(graph.activation[mine], endurance_map)
        except CrossbarOverflow as err:
            raise CrossbarOverflow(f"cluster {k}: {err}") from None
    fitness = mapping_fitness(graph, clusters, cluster_loads(graph, clusters), tiles,
                              comm_weight)
    assignment, trace = pso_assign(len(clusters), len(tiles), fitness,
                                   pso_config or PsoConfig(), seed=seed)
    return TileMapping(
        clusters=clusters,
        assignment=assignment,
        owner=owner,
        cells=cells,
        lifetime=effective_lifetime(cells, graph.activation, endurance_map)
        if len(cells) else np.inf,
        fitness=trace[-1],
        cut=cut_cost(graph, clusters),
        trace=trace,
        fitness_fn=fitness,
    )


def random_baseline_fitness(n_clusters: int, n_tiles: int, fitness, seeds) -> float:
    """Mean fitness of seeded uniform-random assignments (the naive mapper)."""
    values = []
    for s in seeds:
        rng = np.random.default_rng(s)
        values.append(fitness(rng.integers(0, n_tiles, size=n_clusters)))
    return float(np.mean(values))
