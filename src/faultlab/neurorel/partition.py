"""Kernighan-Lin workload partitioning with activation-weighted cuts.

Recursive balanced bisection until every cluster fits the crossbar
capacity (neurons per cluster). Edge weights are the summed activation
counts of the synapses between a neuron pair, so the reported cut cost
is the total activation crossing cluster boundaries.
"""

from __future__ import annotations

import numpy as np

from .workload import SnnWorkloadGraph, running_sum

# Kernighan-Lin improvement passes per bisection, at most
MAX_PASSES = 12


def _weight_matrix(graph: SnnWorkloadGraph):
    ids = np.sort(graph.neurons)
    a, b = np.searchsorted(ids, graph.src), np.searchsorted(ids, graph.dst)
    w = np.zeros((len(ids), len(ids)))
    # (a, b) then (b, a) of each synapse in turn: add.at adds in index order, so
    # every entry sums its activations in synapse order, duplicates too
    np.add.at(w, (np.column_stack((a, b)).ravel(), np.column_stack((b, a)).ravel()),
              np.repeat(graph.activation, 2))
    return ids.tolist(), w


def endpoint_clusters(graph: SnnWorkloadGraph, clusters) -> np.ndarray:
    """(2, synapses) array: the index of the cluster holding each synapse's src,
    and that of the one holding its dst."""
    ids = np.sort(graph.neurons)
    owner = np.full(len(ids), -1)
    for k, cluster in enumerate(clusters):
        owner[np.searchsorted(ids, cluster)] = k
    if (owner < 0).any():
        raise ValueError(f"neuron {ids[np.argmax(owner < 0)]} is in no cluster")
    return owner[np.searchsorted(ids, np.stack([graph.src, graph.dst]))]


def cut_cost(graph: SnnWorkloadGraph, clusters) -> float:
    """Total activation on synapses whose endpoints sit in different clusters."""
    src, dst = endpoint_clusters(graph, clusters)
    return running_sum(graph.activation[src != dst])


def _kl_pass(w, in_a):
    """One Kernighan-Lin improvement pass; mutates nothing, returns new in_a.

    Both sides keep fixed index arrays and a swapped vertex's gain turns
    -inf, so the first maximum of the whole gain matrix in row-major order
    is the first maximum over the live pairs: ties break as they would in
    a gather of the live pairs.
    """
    to_a = w @ in_a
    to_b = w @ (1.0 - in_a)
    d = np.where(in_a > 0, to_b - to_a, to_a - to_b)
    side_a, side_b = np.flatnonzero(in_a), np.flatnonzero(in_a == 0)
    d_a, d_b = d[side_a], d[side_b]
    w2_ab = 2.0 * w[np.ix_(side_a, side_b)]
    gain = np.empty_like(w2_ab)
    swaps, gains = [], []
    for _ in range(min(len(side_a), len(side_b))):
        np.add(d_a[:, None], d_b[None, :], out=gain)
        gain -= w2_ab
        ai, bi = divmod(int(np.argmax(gain)), len(side_b))
        a, b = side_a[ai], side_b[bi]
        swaps.append((a, b))
        gains.append(float(gain[ai, bi]))
        d_a[ai] = d_b[bi] = -np.inf
        d_a += 2.0 * w[side_a, a] - 2.0 * w[side_a, b]
        d_b += 2.0 * w[side_b, b] - 2.0 * w[side_b, a]
    prefix = np.cumsum(gains)
    best = int(np.argmax(prefix))
    if prefix[best] <= 1e-12:
        return in_a, False
    out = in_a.copy()
    for a, b in swaps[: best + 1]:
        out[a], out[b] = 0.0, 1.0
    return out, True


def _bisect(w, rng):
    n = w.shape[0]
    half = (n + 1) // 2
    perm = rng.permutation(n)
    in_a = np.zeros(n)
    in_a[perm[:half]] = 1.0
    for _ in range(MAX_PASSES):
        in_a, improved = _kl_pass(w, in_a)
        if not improved:
            break
    return np.flatnonzero(in_a).tolist(), np.flatnonzero(in_a == 0).tolist()


def kl_partition(graph: SnnWorkloadGraph, capacity: int, seed: int = 0) -> list:
    """Partition neurons into clusters of at most ``capacity`` neurons."""
    if not len(graph.neurons):
        raise ValueError("graph has no neurons")
    if capacity < 1:
        raise ValueError(
            f"capacity {capacity} cannot hold a single neuron"
        )
    ids, w = _weight_matrix(graph)
    rng = np.random.default_rng(seed)
    done, work = [], [list(range(len(ids)))]
    while work:
        cluster = work.pop(0)
        if len(cluster) <= capacity:
            done.append(cluster)
            continue
        sub_w = w[np.ix_(cluster, cluster)]
        side_a, side_b = _bisect(sub_w, rng)
        work.append([cluster[v] for v in side_a])
        work.append([cluster[v] for v in side_b])
    return [sorted(ids[v] for v in cluster) for cluster in done]
