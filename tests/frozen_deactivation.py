"""Frozen tuple-graph deactivation: the cover graph over (row, col) PEs.

This is the original implementation of ``deactivate`` and its adjacency
cover, kept verbatim as the reference the cover over map indices must
reproduce: the same mask for every map, or the same
``DeactivationInfeasible``. The one change is that criticality is read
from ``fsr.critical`` in the fault map's order, since the FSR no longer
lists the PEs itself.
"""

from __future__ import annotations

import numpy as np

from faultlab.macfault.array import _EXACT_COVER_LIMIT, DeactivationInfeasible


def _neighbors(pe, shape):
    r, c = pe
    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        rr, cc = r + dr, c + dc
        if 0 <= rr < shape[0] and 0 <= cc < shape[1]:
            yield (rr, cc)


def _components(vertices, adj):
    remaining = set(vertices)
    while remaining:
        start = min(remaining)
        comp, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u in remaining and u not in comp:
                    comp.add(u)
                    stack.append(u)
        remaining -= comp
        yield sorted(comp)


def _greedy_cover(adj):
    adj = {v: set(ns) for v, ns in adj.items()}
    cover = set()
    while True:
        live = [v for v in adj if adj[v]]
        if not live:
            return cover
        v = min(live, key=lambda v: (-len(adj[v]), v))
        cover.add(v)
        for u in adj[v]:
            adj[u].discard(v)
        adj[v] = set()


def _exact_cover(adj):
    """Minimum vertex cover by branch and bound (small components only)."""
    best = [set(adj)]

    def search(adj, cover):
        if len(cover) >= len(best[0]):
            return
        live = [v for v in adj if adj[v]]
        if not live:
            best[0] = set(cover)
            return
        v = min(live, key=lambda v: (-len(adj[v]), v))
        neighbors = set(adj[v])
        # branch 1: v joins the cover
        sub = {u: ns - {v} for u, ns in adj.items() if u != v}
        search(sub, cover | {v})
        # branch 2: all of v's neighbors join the cover
        if len(cover) + len(neighbors) < len(best[0]):
            drop = neighbors | {v}
            sub = {u: ns - drop for u, ns in adj.items() if u not in drop}
            search(sub, cover | neighbors)

    search({v: set(ns) for v, ns in adj.items()}, set())
    return best[0]


def min_adjacency_cover(vertices, shape) -> set:
    """Fewest vertices whose removal leaves no two 4-adjacent vertices."""
    vertex_set = set(vertices)
    adj = {v: {u for u in _neighbors(v, shape) if u in vertex_set} for v in vertex_set}
    cover = set()
    for comp in _components(vertex_set, adj):
        comp_adj = {v: adj[v] for v in comp}
        if not any(comp_adj.values()):
            continue
        if len(comp) <= _EXACT_COVER_LIMIT:
            cover |= _exact_cover(comp_adj)
        else:
            cover |= _greedy_cover(comp_adj)
    return cover


def deactivate(state, fsr):
    """Updated active mask meeting the deactivation protocol's constraints.

    Returns a new mask; the input state is not modified. Raises
    DeactivationInfeasible when the constraints would disable every PE.
    """
    faults = state.faults

    active = state.active.copy()
    active[faults.rows[fsr.critical], faults.cols[fsr.critical]] = False

    shape = (state.config.n_row, state.config.n_col)
    live = active[faults.rows, faults.cols]
    live_faulty = zip(faults.rows[live].tolist(), faults.cols[live].tolist())
    for pe in min_adjacency_cover(live_faulty, shape):
        active[pe] = False

    live = np.flatnonzero(active[faults.rows, faults.cols])
    n_active = int(active.sum())
    n_faulty = len(live)
    idx = 0
    while n_active > 0 and n_faulty / n_active > fsr.fr_max_non_crit:
        active[faults.rows[live[idx]], faults.cols[live[idx]]] = False
        idx += 1
        n_active -= 1
        n_faulty -= 1
    if int(active.sum()) == 0:
        raise DeactivationInfeasible(
            "constraints disable every PE "
            f"(fr_max_non_crit={fsr.fr_max_non_crit}, all PEs faulty)"
        )
    return active
