"""The SNN mapper's per-item fitness and Kernighan-Lin pass, kept as a reference.

``mapping_fitness`` used to rebuild the crossing term in a Python
generator over inter-cluster synapses on every call, and ``_kl_pass``
gathered the live gain matrix with ``np.ix_`` after popping the swapped
pair from Python lists. The array versions must reproduce these bit for
bit.
"""

import numpy as np

from faultlab.neurorel.aging import StressProfile, aging_fitness
from faultlab.neurorel.partition import cluster_owner


def tile_duties(loads, assignment, n_tiles):
    total = loads.sum()
    duties = np.zeros(n_tiles)
    if total <= 0:
        return duties
    for k, tile in enumerate(assignment):
        duties[tile] += loads[k]
    return duties / total


def mapping_fitness(graph, clusters, owned, loads, tiles, tddb, bti,
                    comm_weight=0.0):
    inter = None
    if comm_weight > 0:
        owner = cluster_owner(clusters)
        inter = [
            (owner[s.src], owner[s.dst], s.activation)
            for s in graph.synapses
            if owner[s.src] != owner[s.dst]
        ]
        total = graph.total_activation or 1.0

    def fitness(assignment):
        duties = tile_duties(loads, assignment, len(tiles))
        stresses = [
            StressProfile(v=t.voltage, t=t.temperature, duty=float(d))
            for t, d in zip(tiles, duties)
        ]
        value = aging_fitness(stresses, tddb, bti)
        if inter:
            crossing = sum(a for ka, kb, a in inter if assignment[ka] != assignment[kb])
            value += comm_weight * crossing / total
        return value

    return fitness


def kl_pass(w, in_a):
    n = len(in_a)
    to_a = w @ in_a
    to_b = w @ (1.0 - in_a)
    d = np.where(in_a > 0, to_b - to_a, to_a - to_b)
    a_live = [v for v in range(n) if in_a[v]]
    b_live = [v for v in range(n) if not in_a[v]]
    swaps, gains = [], []
    d = d.copy()
    while a_live and b_live:
        gain_matrix = (
            d[a_live][:, None] + d[b_live][None, :] - 2.0 * w[np.ix_(a_live, b_live)]
        )
        flat = int(np.argmax(gain_matrix))
        ai, bi = divmod(flat, len(b_live))
        a, b = a_live[ai], b_live[bi]
        swaps.append((a, b))
        gains.append(float(gain_matrix[ai, bi]))
        a_live.pop(ai)
        b_live.pop(bi)
        d[a_live] += 2.0 * w[a_live, a] - 2.0 * w[a_live, b]
        d[b_live] += 2.0 * w[b_live, b] - 2.0 * w[b_live, a]
    prefix = np.cumsum(gains)
    best = int(np.argmax(prefix))
    if prefix[best] <= 1e-12:
        return in_a, False
    out = in_a.copy()
    for a, b in swaps[: best + 1]:
        out[a], out[b] = 0.0, 1.0
    return out, True
