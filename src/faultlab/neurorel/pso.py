"""Binary particle swarm optimization over one-hot assignment encodings.

A position is a slot per item, and the velocity update reads it as one bit
per (item, slot) pair. The sigmoid of the velocity gives the probability of
a bit being set, and sampled bit patterns are repaired to slot assignments
(highest-velocity set bit wins, lowest slot on ties). The global best is
tracked with elitism, so its fitness trace is non-increasing by
construction.
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
    score = np.where(bits > 0, velocity, -np.inf)
    none_set = ~bits.any(axis=2)
    score[none_set] = velocity[none_set]
    # argmax picks the lowest slot index on exact ties
    return score.argmax(axis=2)


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
    bits_of = np.eye(n_slots)  # a slot's row of 0/1 bits
    velocity = rng.uniform(-1, 1, size=shape)
    assign = _repair(rng.random(shape) < 0.5, velocity)
    fits = np.array([fitness(a) for a in assign])
    pbest = assign.copy()
    pbest_fit = fits.copy()
    g = int(np.argmin(fits))
    gbest = assign[g].copy()
    gbest_fit = float(fits[g])

    trace = []
    for _ in range(config.iterations):
        r1 = rng.random(shape)
        r2 = rng.random(shape)
        bits = bits_of[assign]
        velocity = (
            INERTIA * velocity
            + COGNITIVE * r1 * (bits_of[pbest] - bits)
            + SOCIAL * r2 * (bits_of[gbest][None] - bits)
        )
        np.clip(velocity, -V_MAX, V_MAX, out=velocity)
        assign = _repair(rng.random(shape) < _sigmoid(velocity), velocity)
        fits = np.array([fitness(a) for a in assign])
        better = fits < pbest_fit
        pbest_fit = np.where(better, fits, pbest_fit)
        pbest[better] = assign[better]
        g = int(np.argmin(fits))
        if float(fits[g]) < gbest_fit:
            gbest_fit = float(fits[g])
            gbest = assign[g].copy()
        trace.append(gbest_fit)
    return gbest, trace
