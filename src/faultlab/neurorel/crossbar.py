"""PCM crossbar parasitics, self-heating temperature, and endurance maps.

Cell (i, j) sits i + j wire segments from the driver corner, which is
indexed (0, 0) — physically the bottom-left, hottest corner; (n-1, n-1)
is the far, coolest corner. Programming current through a cell is
V_active / (R_device + segments * r_seg); Joule self-heating raises the
cell temperature by R_thermal * I^2 * R_device above ambient, and
endurance falls exponentially with that temperature rise.

The temperature and endurance constants are calibrated so the default
128x128 geometry at 298 K spans roughly 1e6 write cycles at the driver
corner to 1e10 at the far corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CP_ACTIVE_VOLTAGES = {"diode": 3.0, "transistor": 1.8}  # charge-pump volts

# calibration targets: corner endurances (cycles), driver-corner temperature (K)
E_HOT, E_COLD, T_HOT = 1e6, 1e10, 400.0
R_DEVICE = 10_000.0  # ohms


@dataclass(frozen=True)
class CrossbarConfig:
    n: int = 128
    r_seg: float = 25.0  # ohms per wire segment
    access_device: str = "diode"
    t_amb: float = 298.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("crossbar dimension must be >= 1")
        if self.r_seg < 0:
            raise ValueError("segment resistance must be non-negative")
        if self.access_device not in CP_ACTIVE_VOLTAGES:
            raise ValueError(f"unknown access device {self.access_device!r}")
        if self.t_amb <= 0:
            raise ValueError("ambient temperature must be positive")

    @property
    def cp_active(self) -> float:
        return CP_ACTIVE_VOLTAGES[self.access_device]


@dataclass(frozen=True)
class EnduranceModelParams:
    r_device: float = R_DEVICE
    r_thermal: float = 115_000.0  # K/W
    beta: float = 0.15  # 1/K, endurance decay per kelvin
    e_ref: float = 1e12  # cycles at t_ref
    t_ref: float = 298.0

    def __post_init__(self):
        if self.r_device <= 0 or self.r_thermal <= 0:
            raise ValueError("resistances must be positive")
        if self.beta <= 0 or self.e_ref <= 0:
            raise ValueError("endurance constants must be positive")


@dataclass(frozen=True)
class EnduranceMap:
    temperature: np.ndarray  # kelvin, (n, n)
    endurance: np.ndarray  # write cycles, (n, n)

    def __post_init__(self):
        if self.temperature.shape != self.endurance.shape:
            raise ValueError("temperature and endurance shapes differ")
        if not np.all(self.endurance > 0):
            raise ValueError("endurance must be positive everywhere")

    @property
    def n(self) -> int:
        return self.temperature.shape[0]


def default_endurance_params(config: CrossbarConfig) -> EnduranceModelParams:
    """Calibrate thermal and endurance constants to the corner targets.

    Solves R_thermal so the driver corner reaches ``T_HOT``, then beta and
    E_ref so corner endurances hit ``E_HOT`` and ``E_COLD`` exactly for
    this geometry. Needs r_seg > 0 (otherwise the map is uniform and the
    corner ratio cannot be met).
    """
    if config.r_seg <= 0:
        raise ValueError("corner calibration needs r_seg > 0")
    if T_HOT <= config.t_amb:
        raise ValueError("t_hot must exceed ambient")
    v = config.cp_active
    i_hot = v / R_DEVICE
    i_cold = v / (R_DEVICE + 2 * (config.n - 1) * config.r_seg)
    r_thermal = (T_HOT - config.t_amb) / (i_hot**2 * R_DEVICE)
    t_cold = config.t_amb + r_thermal * i_cold**2 * R_DEVICE
    beta = math.log(E_COLD / E_HOT) / (T_HOT - t_cold)
    e_ref = E_HOT * math.exp(beta * (T_HOT - config.t_amb))
    return EnduranceModelParams(r_thermal=r_thermal, beta=beta, e_ref=e_ref,
                                t_ref=config.t_amb)


def build_endurance_map(config: CrossbarConfig,
                        params: EnduranceModelParams | None = None) -> EnduranceMap:
    """Per-cell self-heating temperature and write endurance."""
    if params is None:
        params = default_endurance_params(config)
    idx = np.arange(config.n)
    segments = idx[:, None] + idx[None, :]
    current = config.cp_active / (params.r_device + segments * config.r_seg)
    temperature = config.t_amb + params.r_thermal * current**2 * params.r_device
    endurance = params.e_ref * np.exp(-params.beta * (temperature - params.t_ref))
    return EnduranceMap(temperature=temperature, endurance=endurance)
