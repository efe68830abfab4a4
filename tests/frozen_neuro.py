"""The SNN mapper's per-synapse loops, kept as a reference.

``mapping_fitness`` used to rebuild the crossing term in a Python
generator over inter-cluster synapses on every call, and ``_kl_pass``
gathered the live gain matrix with ``np.ix_`` after popping the swapped
pair from Python lists. The weight matrix, cut cost, cluster loads,
placement and lifetime looped over one synapse object at a time; here they
loop over ``(src, dst, weight, activation)`` tuples. Their sums run left
to right from 0, as ``sum`` does on Python 3.11. The array versions must
reproduce all of these bit for bit.
"""

import math

import numpy as np

from faultlab.neurorel.aging import StressProfile, aging_fitness


def synapses(graph) -> list:
    """The graph's synapses as ``(src, dst, weight, activation)`` tuples."""
    return list(zip(graph.src.tolist(), graph.dst.tolist(), graph.weight.tolist(),
                    graph.activation.tolist()))


def cluster_owner(clusters) -> dict:
    """Neuron id -> index of the cluster holding it."""
    return {nid: k for k, cluster in enumerate(clusters) for nid in cluster}


def weight_matrix(neurons, syns):
    ids = sorted(neurons)
    index = {nid: k for k, nid in enumerate(ids)}
    w = np.zeros((len(ids), len(ids)))
    for src, dst, _, activation in syns:
        a, b = index[src], index[dst]
        w[a, b] += activation
        w[b, a] += activation
    return ids, w


def cut_cost(syns, clusters) -> float:
    owner = cluster_owner(clusters)
    total = 0
    for src, dst, _, activation in syns:
        if owner[src] != owner[dst]:
            total += activation
    return float(total)


def cluster_loads(syns, clusters) -> np.ndarray:
    """The activation each cluster owns (a synapse is its dst's cluster's)."""
    owner = cluster_owner(clusters)
    owned = [[] for _ in clusters]
    for idx, (_, dst, _, _) in enumerate(syns):
        owned[owner[dst]].append(idx)
    loads = []
    for idxs in owned:
        total = 0
        for i in idxs:
            total += syns[i][3]
        loads.append(total)
    return np.array(loads)


def place_synapses(activations, endurance_map) -> dict:
    """Synapse index -> (row, col)."""
    n = endurance_map.n
    if len(activations) > n * n:
        raise ValueError("more synapses than cells")
    order = sorted(range(len(activations)), key=lambda k: (-activations[k], k))
    flat = endurance_map.endurance.ravel()
    cell_order = np.lexsort(
        (np.arange(flat.size) % n, np.arange(flat.size) // n, -flat)
    )
    return {
        k: (int(cell_order[slot] // n), int(cell_order[slot] % n))
        for slot, k in enumerate(order)
    }


def effective_lifetime(assignment: dict, activations, endurance_map) -> float:
    if not assignment:
        raise ValueError("no mapped synapses")
    best = math.inf
    for k, (row, col) in assignment.items():
        activation = activations[k]
        if activation > 0:
            best = min(best, float(endurance_map.endurance[row, col]) / activation)
    return best


def tile_duties(loads, assignment, n_tiles):
    total = loads.sum()
    duties = np.zeros(n_tiles)
    if total <= 0:
        return duties
    for k, tile in enumerate(assignment):
        duties[tile] += loads[k]
    return duties / total


def mapping_fitness(syns, clusters, loads, tiles, tddb, bti, comm_weight=0.0):
    inter = None
    if comm_weight > 0:
        owner = cluster_owner(clusters)
        inter = [
            (owner[src], owner[dst], activation)
            for src, dst, _, activation in syns
            if owner[src] != owner[dst]
        ]
        total = float(sum(activation for *_, activation in syns)) or 1.0

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
