"""Kernighan-Lin workload partitioning with activation-weighted cuts.

Recursive balanced bisection until every cluster fits the crossbar
capacity (neurons per cluster). Edge weights are the summed activation
counts of the synapses between a neuron pair, so the reported cut cost
is the total activation crossing cluster boundaries.

A pass swaps, one pair at a time, the pair of largest gain, taking the
first in row-major order on a tie. Activations are non-negative, so no
gain exceeds ``d_a[i] + d_b[j]``, and each swap scans only the rows that
this bound cannot rule out. Swapped rows and columns stay in place at
``-inf``, so ties break as in a scan of the whole block and the clusters
are those of a full scan.
"""

from __future__ import annotations

import numpy as np

from .workload import SnnWorkloadGraph, running_sum

# Kernighan-Lin improvement passes per bisection, at most
MAX_PASSES = 12
# a gain block with fewer rows is scanned whole: below this, bounding the
# scan costs more than it saves
_FULL_SCAN_ROWS = 64
# the largest total activation whose gains stay finite (see kl_partition)
_MAX_TOTAL_ACTIVATION = np.finfo(np.float64).max / 8


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

    Each swap takes the first maximum, in row-major order, of the gains
    ``d_a[i] + d_b[j] - 2 w[a_i, b_j]`` over the live pairs. A swapped
    vertex's ``d`` turns -inf, so its row and column never win again.

    - **Bound.** Activations are non-negative, so ``w`` is too, and no gain
      in row ``i`` exceeds ``d_a[i] + max(d_b)`` (Kernighan & Lin, 1970).
      Rounding is monotone, so this holds for the computed sums as well.
      The gain ``g0`` at the pair of the largest ``d_a`` and ``d_b`` is at
      most the maximum gain, so a row whose bound is below ``g0`` holds no
      maximum, and only the other rows are scanned. About two rows are left
      on random workloads, so a bound on the columns would cost more than
      it saves. The bound's choice of rows keeps them ascending, so the
      first maximum of the scanned rows in their row-major order is the
      first maximum of the whole block.

    Blocks of fewer than ``_FULL_SCAN_ROWS`` rows are scanned whole. ``m``
    holds ``2 w`` over side A's vertices, then side B's, with B's columns
    negated. Doubling and negating are exact, and ``x - y == x + (-y)`` and
    ``y - x == -x + y`` hold bit for bit, so its A-by-B block gives every
    gain and one row difference updates both sides' ``d`` with the values
    the plain formulas give. This needs ``w`` symmetric bit for bit, as
    ``_weight_matrix`` builds it, so that a vertex's row holds its column.
    """
    to_a = w @ in_a
    to_b = w @ (1.0 - in_a)
    d = np.where(in_a > 0, to_b - to_a, to_a - to_b)
    side_a, side_b = np.flatnonzero(in_a), np.flatnonzero(in_a == 0)
    side, n_a = np.append(side_a, side_b), len(side_a)
    d, m = d[side], 2.0 * w[side][:, side]
    m[:, n_a:] *= -1.0
    swaps, gains = [], []
    for _ in range(min(len(side_a), len(side_b))):
        d_a, d_b = d[:n_a], d[n_a:]
        if n_a < _FULL_SCAN_ROWS:
            gain = (d_a[:, None] + d_b) + m[:n_a, n_a:]
            ai, bi = divmod(int(gain.argmax()), len(d_b))
            gains.append(float(gain[ai, bi]))
        else:
            i0, j0 = int(d_a.argmax()), int(d_b.argmax())
            g0 = (d_a[i0] + d_b[j0]) + m[i0, n_a + j0]
            rows = (d_a + d_b[j0] >= g0).nonzero()[0]
            gain = (d_a[rows, None] + d_b) + m[rows, n_a:]
            r, bi = divmod(int(gain.argmax()), len(d_b))
            ai = rows[r]
            gains.append(float(gain[r, bi]))
        bj = n_a + bi
        swaps.append((side[ai], side[bj]))
        d += m[ai] - m[bj]
        d[ai] = d[bj] = -np.inf
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
    """Partition neurons into clusters of at most ``capacity`` neurons.

    Raises ValueError when the activations sum to more than
    ``_MAX_TOTAL_ACTIVATION``, an eighth of the largest float64. No weight,
    ``d`` or gain of a pass can exceed four times that sum in magnitude: a
    neuron's weights sum to at most the total, so ``|d|`` does too, and a
    gain adds two ``d`` and subtracts a doubled weight. The spare factor of
    two absorbs rounding, so every gain stays finite.
    """
    if not len(graph.neurons):
        raise ValueError("graph has no neurons")
    if capacity < 1:
        raise ValueError(
            f"capacity {capacity} cannot hold a single neuron"
        )
    with np.errstate(over="ignore"):  # an overflow to inf is the failure named here
        total = running_sum(graph.activation)
    if total > _MAX_TOTAL_ACTIVATION:
        raise ValueError(f"the activations sum to {total:g}, above "
                         f"{_MAX_TOTAL_ACTIVATION:g}: the partition's gains would "
                         "overflow float64")
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
