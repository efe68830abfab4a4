"""Binary particle swarm optimization over one-hot assignment encodings.

Each particle carries one bit per (item, slot) pair; the sigmoid of the
velocity gives the probability of a bit being set, and sampled bit
patterns are repaired to valid one-hot rows (highest-velocity set bit
wins, lowest slot on ties). The global best is tracked with elitism, so
its fitness trace is non-increasing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# velocity update: inertia, pulls toward the personal and global bests, clip
INERTIA, COGNITIVE, SOCIAL, V_MAX = 0.72, 1.5, 1.5, 6.0


@dataclass(frozen=True)
class PsoConfig:
    particles: int = 20
    iterations: int = 50

    def __post_init__(self):
        if self.particles < 1:
            raise ValueError("need at least one particle")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")


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
