"""Crossbar parasitics, temperature, and endurance map tests."""

import numpy as np
import pytest

from faultlab.neurorel import (
    CrossbarConfig,
    EnduranceModelParams,
    build_endurance_map,
    default_endurance_params,
)


def test_cp_voltage_defaults():
    assert CrossbarConfig(access_device="diode").cp_active == 3.0
    assert CrossbarConfig(access_device="transistor").cp_active == 1.8
    with pytest.raises(ValueError):
        CrossbarConfig(access_device="memristor")


def test_default_calibration_hits_corners():
    cfg = CrossbarConfig()
    emap = build_endurance_map(cfg)
    assert emap.endurance[0, 0] == pytest.approx(1e6, rel=1e-9)
    assert emap.endurance[-1, -1] == pytest.approx(1e10, rel=1e-9)
    ratio = emap.endurance[0, 0] / emap.endurance[-1, -1]
    assert 1e-5 <= ratio <= 1e-3
    assert emap.temperature[0, 0] == pytest.approx(400.0)
    assert emap.temperature[0, 0] > emap.temperature[-1, -1] > cfg.t_amb


def test_endurance_monotone_in_path_length():
    emap = build_endurance_map(CrossbarConfig(n=64))
    t, e = emap.temperature, emap.endurance
    # one step away from the driver corner never heats up or gains wear
    assert np.all(t[1:, :] <= t[:-1, :] + 1e-12)
    assert np.all(t[:, 1:] <= t[:, :-1] + 1e-12)
    assert np.all(e[1:, :] >= e[:-1, :] - 1e-12)
    assert np.all(e[:, 1:] >= e[:, :-1] - 1e-12)
    diag = np.diagonal(e)
    assert all(a < b for a, b in zip(diag, diag[1:]))


def test_endurance_non_increasing_in_temperature():
    emap = build_endurance_map(CrossbarConfig(n=32))
    order = np.argsort(emap.temperature.ravel())
    sorted_endurance = emap.endurance.ravel()[order]
    assert all(a >= b - 1e-9 for a, b in zip(sorted_endurance, sorted_endurance[1:]))


def test_zero_segment_resistance_gives_uniform_map():
    params = default_endurance_params(CrossbarConfig())
    emap = build_endurance_map(CrossbarConfig(r_seg=0.0), params)
    assert np.unique(emap.temperature).size == 1
    assert np.unique(emap.endurance).size == 1


def test_non_physical_params_rejected():
    with pytest.raises(ValueError):
        EnduranceModelParams(r_device=-1.0)
    with pytest.raises(ValueError):
        CrossbarConfig(r_seg=-0.5)
    with pytest.raises(ValueError):
        default_endurance_params(CrossbarConfig(r_seg=0.0))


def test_calibration_independent_recomputation():
    # the endurance law evaluated by hand at one interior cell
    cfg = CrossbarConfig(n=128)
    params = default_endurance_params(cfg)
    emap = build_endurance_map(cfg, params)
    i, j = 40, 77
    current = cfg.cp_active / (params.r_device + (i + j) * cfg.r_seg)
    temp = cfg.t_amb + params.r_thermal * current**2 * params.r_device
    endurance = params.e_ref * np.exp(-params.beta * (temp - params.t_ref))
    assert emap.temperature[i, j] == pytest.approx(temp, rel=1e-12)
    assert emap.endurance[i, j] == pytest.approx(endurance, rel=1e-12)
