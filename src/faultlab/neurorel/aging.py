"""CMOS aging lifetime models and spike-train utilities.

Two mean-time-to-failure laws cover the crossbar periphery: gate-oxide
breakdown MTTF = A * exp(-gamma * sqrt(V)), and threshold-drift MTTF
= (A / V^gamma) * exp(Ea / (kB * T)). The two laws use separate
parameter types on purpose: their A and gamma constants share symbols
but not meanings.
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
