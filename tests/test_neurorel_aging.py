"""Aging-model tests: closed forms, monotonicity, fitness aggregation."""

import math

import numpy as np
import pytest

from faultlab.neurorel import (
    K_BOLTZMANN_EV,
    BtiParams,
    TddbParams,
    TileSpec,
    aging_fitness,
    mttf_bti,
    mttf_tddb,
)


def test_tddb_examples():
    p = TddbParams(a=2.5, gamma=1.0)
    assert mttf_tddb(0.0, p) == 2.5  # exponent vanishes
    assert mttf_tddb(4.0, TddbParams(a=1.0, gamma=1.0)) == pytest.approx(
        0.135335, abs=1e-6
    )
    flat = TddbParams(a=3.0, gamma=0.0)
    for v in (0.0, 0.5, 2.0, 10.0):
        assert mttf_tddb(v, flat) == 3.0


def test_bti_examples():
    p = BtiParams(a=2.0, gamma=1.7, ea=0.15)
    expect = 2.0 * math.exp(0.15 / (K_BOLTZMANN_EV * 310.0))
    assert mttf_bti(1.0, 310.0, p) == pytest.approx(expect, rel=1e-12)
    assert mttf_bti(2.0, 300.0, BtiParams(a=1.0, gamma=2.0, ea=0.0)) == 0.25


def test_mttf_matches_independent_recomputation(rng):
    tddb = TddbParams(a=3.7, gamma=5.2)
    bti = BtiParams(a=0.8, gamma=2.3, ea=0.12)
    for _ in range(200):
        v = float(rng.uniform(0.01, 5.0))
        t = float(rng.uniform(250.0, 420.0))
        ref_tddb = 3.7 * math.exp(-5.2 * v**0.5)
        ref_bti = (0.8 / v**2.3) * math.exp(0.12 / (8.617e-5 * t))
        assert abs(mttf_tddb(v, tddb) - ref_tddb) <= 1e-12 * ref_tddb
        assert abs(mttf_bti(v, t, bti) - ref_bti) <= 1e-12 * ref_bti


def test_mttf_monotonicity_on_grids():
    tddb = TddbParams(a=1.0, gamma=4.0)
    bti = BtiParams(a=1.0, gamma=2.0, ea=0.1)
    volts = np.linspace(0.05, 3.0, 100)
    tddb_vals = [mttf_tddb(v, tddb) for v in volts]
    bti_vals = [mttf_bti(v, 300.0, bti) for v in volts]
    assert all(a > b for a, b in zip(tddb_vals, tddb_vals[1:]))
    assert all(a > b for a, b in zip(bti_vals, bti_vals[1:]))
    temps = np.linspace(250.0, 400.0, 100)
    by_temp = [mttf_bti(1.5, t, bti) for t in temps]
    assert all(a > b for a, b in zip(by_temp, by_temp[1:]))


def test_mttf_input_validation():
    with pytest.raises(ValueError):
        mttf_tddb(-0.1, TddbParams())
    with pytest.raises(ValueError):
        mttf_bti(0.0, 300.0, BtiParams(gamma=2.0))
    with pytest.raises(ValueError):
        mttf_bti(1.0, -5.0, BtiParams())
    with pytest.raises(ValueError):
        TddbParams(a=-1.0)


def test_aging_fitness_zero_without_stress():
    # a tile without duty is skipped, so even a zero lifetime adds nothing
    life = TileSpec(3.0).lifetime()
    assert aging_fitness([0.0] * 4, [life, life, life, 0.0]) == 0.0


def test_aging_fitness_linear_in_duty():
    lifetimes = [TileSpec(2.5, 320.0).lifetime()]
    assert aging_fitness([0.6], lifetimes) == pytest.approx(
        2 * aging_fitness([0.3], lifetimes)
    )


def test_aging_fitness_spread_not_worse_than_concentrated():
    # hand evaluation: identical tiles, duty 1 on one vs 0.5 on each gives
    # the same sum, so spreading can never exceed concentrating
    life = min(mttf_tddb(3.0, TddbParams()), mttf_bti(3.0, 298.0, BtiParams()))
    lifetimes = [TileSpec(3.0).lifetime()] * 2
    concentrated = aging_fitness([1.0, 0.0], lifetimes)
    spread = aging_fitness([0.5, 0.5], lifetimes)
    assert concentrated == pytest.approx(1.0 / life)
    assert spread <= concentrated + 1e-15
