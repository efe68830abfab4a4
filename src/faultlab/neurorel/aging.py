"""CMOS aging lifetime models for the crossbar periphery.

Two mean-time-to-failure laws cover the periphery: gate-oxide breakdown
MTTF = A * exp(-gamma * sqrt(V)), and threshold-drift MTTF
= (A / V^gamma) * exp(Ea / (kB * T)). The two laws use separate
parameter types on purpose: their A and gamma constants share symbols
but not meanings. A tile's stress point is a ``TileSpec``; its lifetime
is the shorter of the two under the default parameters, and the series
aging fitness sums each tile's duty over that lifetime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

K_BOLTZMANN_EV = 8.617e-5  # eV/K


@dataclass(frozen=True)
class TddbParams:
    a: float = 1.0
    gamma: float = 6.0  # per sqrt(volt)

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("A must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")


@dataclass(frozen=True)
class BtiParams:
    a: float = 1.0
    gamma: float = 3.0
    ea: float = 0.1  # activation energy, eV

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("A must be positive")


def mttf_tddb(v: float, params: TddbParams) -> float:
    """Gate-oxide breakdown lifetime: A * exp(-gamma * sqrt(V))."""
    if v < 0:
        raise ValueError("overdrive voltage must be non-negative")
    return params.a * math.exp(-params.gamma * math.sqrt(v))


def mttf_bti(v: float, t: float, params: BtiParams) -> float:
    """Threshold-drift lifetime: (A / V^gamma) * exp(Ea / (kB * T))."""
    if t <= 0:
        raise ValueError("temperature must be positive")
    if v < 0:
        raise ValueError("overdrive voltage must be non-negative")
    if v == 0 and params.gamma > 0:
        raise ValueError("V=0 is singular for gamma > 0")
    return params.a / (v**params.gamma) * math.exp(params.ea / (K_BOLTZMANN_EV * t))


@dataclass(frozen=True)
class TileSpec:
    """One tile's peripheral stress point (active CP voltage, temperature)."""

    voltage: float
    temperature: float = 298.0

    def lifetime(self) -> float:
        """The shorter of the default TDDB and BTI lifetimes at this point."""
        return min(mttf_tddb(self.voltage, TddbParams()),
                   mttf_bti(self.voltage, self.temperature, BtiParams()))


def aging_fitness(duties, lifetimes) -> float:
    """Series-system failure-rate aggregate over tiles, lower is better.

    Each tile contributes its duty (the share of the workload's activation
    it handles) over its lifetime, added in tile order; tiles with duty 0
    contribute nothing.
    """
    total = 0.0
    for duty, life in zip(duties, lifetimes):
        if duty != 0.0:
            total += duty / life
    return total
