"""Kernighan-Lin workload partitioning with activation-weighted cuts.

Recursive balanced bisection until every cluster fits the crossbar
capacity (neurons per cluster). Edge weights are the summed activation
counts of the synapses between a neuron pair, so the reported cut cost
is the total activation crossing cluster boundaries.
"""

from __future__ import annotations

import numpy as np

from .workload import SnnWorkloadGraph

# Kernighan-Lin improvement passes per bisection, at most
MAX_PASSES = 12


def _weight_matrix(graph: SnnWorkloadGraph):
    ids = sorted(graph.neurons)
    index = {nid: k for k, nid in enumerate(ids)}
    w = np.zeros((len(ids), len(ids)))
    for s in graph.synapses:
        a, b = index[s.src], index[s.dst]
        w[a, b] += s.activation
        w[b, a] += s.activation
    return ids, w


def cluster_owner(clusters) -> dict:
    """Neuron id -> index of the cluster holding it."""
    return {nid: k for k, cluster in enumerate(clusters) for nid in cluster}


def cut_cost(graph: SnnWorkloadGraph, clusters) -> float:
    """Total activation on synapses whose endpoints sit in different clusters."""
    owner = cluster_owner(clusters)
    return float(
        sum(s.activation for s in graph.synapses if owner[s.src] != owner[s.dst])
    )


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
    side_a = [v for v in range(n) if in_a[v]]
    side_b = [v for v in range(n) if not in_a[v]]
    return side_a, side_b


def kl_partition(graph: SnnWorkloadGraph, capacity: int, seed: int = 0) -> list:
    """Partition neurons into clusters of at most ``capacity`` neurons."""
    if not graph.neurons:
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
