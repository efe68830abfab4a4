"""Neuromorphic reliability suite.

MTTF aging models and tile stress points for the crossbar periphery, PCM
self-heating and endurance maps, workload-graph partitioning,
endurance-aware synapse placement, and binary-PSO cluster-to-tile mapping.
"""

from .aging import (
    K_BOLTZMANN_EV,
    BtiParams,
    TddbParams,
    TileSpec,
    aging_fitness,
    mttf_bti,
    mttf_tddb,
)
from .crossbar import (
    CrossbarConfig,
    EnduranceMap,
    EnduranceModelParams,
    build_endurance_map,
    default_endurance_params,
)
from .workload import SnnWorkloadGraph, load_workload, random_workload, save_workload
from .partition import cut_cost, kl_partition
from .placement import CrossbarOverflow, effective_lifetime, place_synapses
from .pso import PsoConfig, pso_assign
from .mapping import TileMapping, map_workload, random_baseline_fitness

__all__ = [
    "BtiParams",
    "CrossbarConfig",
    "CrossbarOverflow",
    "EnduranceMap",
    "EnduranceModelParams",
    "K_BOLTZMANN_EV",
    "PsoConfig",
    "SnnWorkloadGraph",
    "TddbParams",
    "TileMapping",
    "TileSpec",
    "aging_fitness",
    "build_endurance_map",
    "cut_cost",
    "default_endurance_params",
    "effective_lifetime",
    "kl_partition",
    "load_workload",
    "map_workload",
    "mttf_bti",
    "mttf_tddb",
    "place_synapses",
    "pso_assign",
    "random_baseline_fitness",
    "random_workload",
    "save_workload",
]
