"""Endurance-aware synapse placement inside one crossbar.

Synapses sorted by activation (descending) go onto cells sorted by
endurance (descending): the busiest synapse always lands on the most
durable cell. Ties break by synapse index, then cell (row, col).
"""

from __future__ import annotations

import numpy as np

from .crossbar import EnduranceMap


class CrossbarOverflow(ValueError):
    """More synapses than the crossbar has cells."""


def place_synapses(activation, endurance_map: EnduranceMap) -> np.ndarray:
    """Injective assignment of each synapse (by its activation) to a cell:
    (synapses, 2) array of (row, col)."""
    n = endurance_map.n
    if len(activation) > n * n:
        raise CrossbarOverflow(
            f"{len(activation)} synapses exceed the {n}x{n} crossbar's {n * n} cells"
        )
    # stable sorts: ties keep synapse order, and cells their row-major order
    order = np.argsort(-np.asarray(activation, dtype=np.float64), kind="stable")
    by_endurance = np.argsort(-endurance_map.endurance.ravel(), kind="stable")
    cells = np.empty((len(order), 2), dtype=np.int64)
    cells[order] = np.column_stack(np.divmod(by_endurance[:len(order)], n))
    return cells


def effective_lifetime(cells, activation, endurance_map: EnduranceMap) -> float:
    """Workload windows until the busiest-per-endurance cell wears out.

    min over mapped cells of endurance / activation; cells whose synapse
    never writes (activation 0) cannot wear out and are excluded. All-idle
    mappings have unbounded lifetime (inf).
    """
    if not len(cells):
        raise ValueError("no mapped synapses")
    cells, activation = np.asarray(cells), np.asarray(activation, dtype=np.float64)
    busy = activation > 0
    endurance = endurance_map.endurance[cells[busy, 0], cells[busy, 1]]
    return float(np.min(endurance / activation[busy], initial=np.inf))
