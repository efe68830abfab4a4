"""Cluster-to-tile mapping: partition, place, and optimize for aging.

A synapse is owned by its post-neuron's cluster (weights live at the
post side of a crossbar). Tile duty is the fraction of total workload
activation its clusters handle; the PSO minimizes the series aging
fitness of the per-tile stress profiles under the default TDDB and BTI
laws, optionally plus a weighted communication term (activation crossing
between different tiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .aging import BtiParams, StressProfile, TddbParams, aging_fitness
from .crossbar import EnduranceMap
from .placement import effective_lifetime, place_synapses
from .partition import cluster_owner, cut_cost, kl_partition
from .pso import PsoConfig, pso_assign
from .workload import SnnWorkloadGraph


@dataclass(frozen=True)
class TileSpec:
    """One tile's peripheral stress point (active CP voltage, temperature)."""

    voltage: float
    temperature: float = 298.0


@dataclass
class TileMapping:
    clusters: list
    assignment: np.ndarray  # cluster index -> tile index
    placements: list  # per cluster: {owned-synapse index -> (row, col)}
    lifetime: float
    fitness: float
    cut: float
    trace: list
    fitness_fn: Callable  # the fitness the PSO minimized, over assignments


def owned_synapses(graph: SnnWorkloadGraph, clusters) -> list:
    owner = cluster_owner(clusters)
    out = [[] for _ in clusters]
    for idx, s in enumerate(graph.synapses):
        out[owner[s.dst]].append(idx)
    return out


def cluster_loads(graph: SnnWorkloadGraph, owned) -> np.ndarray:
    return np.array(
        [sum(graph.synapses[i].activation for i in idxs) for idxs in owned]
    )


def tile_duties(loads: np.ndarray, assignment, n_tiles: int) -> np.ndarray:
    total = loads.sum()
    if total <= 0:
        return np.zeros(n_tiles)
    # bincount adds the loads in cluster order, as a loop over clusters would
    return np.bincount(assignment, weights=loads, minlength=n_tiles) / total


def mapping_fitness(graph: SnnWorkloadGraph, clusters, loads, tiles,
                    comm_weight: float = 0.0):
    """Fitness callable over cluster->tile assignments (lower is better).

    The endpoint clusters and activations of the inter-cluster synapses are
    gathered once; each call sums, in synapse order, the activations of
    those whose clusters sit on different tiles.
    """
    tddb, bti, act = TddbParams(), BtiParams(), None
    if comm_weight > 0:
        owner = cluster_owner(clusters)
        ends = np.array([(owner[s.src], owner[s.dst]) for s in graph.synapses],
                        dtype=np.intp).reshape(-1, 2)
        inter = ends[:, 0] != ends[:, 1]
        src, dst = ends[inter, 0], ends[inter, 1]
        act = np.array([s.activation for s in graph.synapses], dtype=np.float64)[inter]
        total = graph.total_activation or 1.0

    def fitness(assignment):
        duties = tile_duties(loads, assignment, len(tiles))
        stresses = [
            StressProfile(v=t.voltage, t=t.temperature, duty=float(d))
            for t, d in zip(tiles, duties)
        ]
        value = aging_fitness(stresses, tddb, bti)
        if act is not None:
            assignment = np.asarray(assignment)
            crossing = act[assignment[src] != assignment[dst]]
            if len(crossing):
                # a running sum, not np.sum: pairwise summation would round
                # non-integer activations differently
                value += comm_weight * float(np.cumsum(crossing)[-1]) / total
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
    """Full mapping flow: KL partition, PSO tile assignment, placement.
    ``fitness`` is the PSO's best, ``trace[-1]``, and is not evaluated again."""
    if not tiles:
        raise ValueError("need at least one tile")
    clusters = kl_partition(graph, capacity, seed=seed)
    owned = owned_synapses(graph, clusters)
    loads = cluster_loads(graph, owned)
    fitness = mapping_fitness(graph, clusters, loads, tiles, comm_weight)
    pso_config = pso_config or PsoConfig()
    assignment, trace = pso_assign(len(clusters), len(tiles), fitness,
                                   pso_config, seed=seed)
    placements, lifetime = [], np.inf
    for idxs in owned:
        synapses = [graph.synapses[i] for i in idxs]
        local = place_synapses(synapses, endurance_map)
        placements.append({idxs[k]: cell for k, cell in local.items()})
        if local:
            lifetime = min(lifetime,
                           effective_lifetime(local, synapses, endurance_map))
    return TileMapping(
        clusters=clusters,
        assignment=assignment,
        placements=placements,
        lifetime=float(lifetime),
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
