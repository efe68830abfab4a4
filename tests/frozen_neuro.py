"""The SNN mapper's per-synapse loops, kept as a reference.

``mapping_fitness`` used to rebuild the crossing term in a Python
generator over inter-cluster synapses on every call, and ``_kl_pass``
gathered the live gain matrix with ``np.ix_`` after popping the swapped
pair from Python lists. The weight matrix, cut cost, cluster loads,
placement and lifetime looped over one synapse object at a time; here they
loop over ``(src, dst, weight, activation)`` tuples. Their sums run left
to right from 0, as ``sum`` does on Python 3.11. ``pso_assign`` held each
position twice, as a bit pattern and as a slot assignment. The fitness
built a validated ``StressProfile`` per tile and computed each tile's
lifetimes again on every call. The array versions must reproduce all of
these bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from faultlab.neurorel.aging import BtiParams, TddbParams, mttf_bti, mttf_tddb
from faultlab.neurorel.pso import PsoConfig


@dataclass(frozen=True)
class StressProfile:
    """Overdrive voltage (V_GS - V_th), temperature, and stressed-time share."""

    v: float
    t: float = 298.0
    duty: float = 1.0

    def __post_init__(self):
        if self.v < 0:
            raise ValueError("overdrive voltage must be non-negative")
        if self.t <= 0:
            raise ValueError("temperature must be positive")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError("duty must be in [0, 1]")


def aging_fitness(stresses, tddb: TddbParams, bti: BtiParams) -> float:
    """Series-system failure-rate aggregate over tile stress profiles.

    Each tile contributes duty / min(MTTF_tddb, MTTF_bti); lower is
    better. Unstressed tiles (duty 0) contribute nothing.
    """
    total = 0.0
    for s in stresses:
        if s.duty == 0.0:
            continue
        life = min(mttf_tddb(s.v, tddb), mttf_bti(s.v, s.t, bti))
        total += s.duty / life
    return total


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


# velocity update: inertia, pulls toward the personal and global bests, clip
INERTIA, COGNITIVE, SOCIAL, V_MAX = 0.72, 1.5, 1.5, 6.0


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _repair(bits, velocity):
    """Collapse each item's bit row to exactly one set slot."""
    p, n_items, n_slots = bits.shape
    score = np.where(bits > 0, velocity, -np.inf)
    none_set = ~bits.any(axis=2)
    score[none_set] = velocity[none_set]
    # argmax picks the lowest slot index on exact ties
    return score.argmax(axis=2)


def _one_hot(assign, n_slots):
    p, n_items = assign.shape
    bits = np.zeros((p, n_items, n_slots), dtype=bool)
    grid = np.indices(assign.shape)
    bits[grid[0], grid[1], assign] = True
    return bits


def pso_assign(n_items: int, n_slots: int, fitness, config: PsoConfig, seed: int = 0):
    """Minimize ``fitness(assignment)``; returns (best assignment, trace).

    ``assignment`` is an int array of length ``n_items`` with values in
    [0, n_slots); ``trace`` holds the global-best fitness after each
    iteration.
    """
    if n_items < 1 or n_slots < 1:
        raise ValueError("need at least one item and one slot")
    rng = np.random.default_rng(seed)
    shape = (config.particles, n_items, n_slots)
    velocity = rng.uniform(-1, 1, size=shape)
    bits = rng.random(shape) < 0.5
    assign = _repair(bits, velocity)
    bits = _one_hot(assign, n_slots)

    fits = np.array([fitness(a) for a in assign])
    pbest_bits = bits.copy()
    pbest_fit = fits.copy()
    g = int(np.argmin(fits))
    gbest_bits = bits[g].copy()
    gbest_fit = float(fits[g])
    gbest_assign = assign[g].copy()

    trace = []
    for _ in range(config.iterations):
        r1 = rng.random(shape)
        r2 = rng.random(shape)
        velocity = (
            INERTIA * velocity
            + COGNITIVE * r1 * (pbest_bits.astype(float) - bits.astype(float))
            + SOCIAL * r2 * (gbest_bits.astype(float)[None] - bits.astype(float))
        )
        np.clip(velocity, -V_MAX, V_MAX, out=velocity)
        bits = rng.random(shape) < _sigmoid(velocity)
        assign = _repair(bits, velocity)
        bits = _one_hot(assign, n_slots)
        fits = np.array([fitness(a) for a in assign])
        better = fits < pbest_fit
        pbest_fit = np.where(better, fits, pbest_fit)
        pbest_bits[better] = bits[better]
        g = int(np.argmin(fits))
        if float(fits[g]) < gbest_fit:
            gbest_fit = float(fits[g])
            gbest_bits = bits[g].copy()
            gbest_assign = assign[g].copy()
        trace.append(gbest_fit)
    return gbest_assign, trace
