"""The FSR campaigns against the frozen loops they replace.

``deactivation_campaign`` and ``retrain_campaign`` must return the rows,
fault maps and FSRs of ``frozen_mac_campaigns``, the runner's former loops,
over both formats, both array sizes, with and without critical and carry
faults, on two run seeds each.
"""

import itertools

import numpy as np
import pytest

import frozen_mac_campaigns as frozen
from faultlab.macfault import deactivation_campaign, retrain_campaign

SEEDS = [1234567, 89]
GRID = list(itertools.product(["int8", "bfloat16"], [0.0, 0.5], [8, 16]))


def _section(fmt, carry_fraction, n, **fields):
    return {"fr": 10.0, "lsb_bits": 2, "carry_fraction": carry_fraction, "fmt": fmt,
            "n_row": n, "n_col": n, "eval_samples": 150, **fields}


def _assert_rows_equal(rows, expected):
    # a NaN matches a NaN
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        np.testing.assert_equal(row, want)


@pytest.mark.parametrize("critical_fraction", [0.0, 0.1])
@pytest.mark.parametrize("fmt, carry_fraction, n", GRID)
def test_deactivation_campaign_matches_frozen_loop(small_mlp, blob_test, fmt,
                                                   carry_fraction, n, critical_fraction):
    camp = _section(fmt, carry_fraction, n, fr_max_non_crit=0.05,
                    critical_fraction=critical_fraction)
    manifest, rows, maps = frozen.deactivate(small_mlp, blob_test, camp, SEEDS)
    baseline, got_rows, got_maps = deactivation_campaign(small_mlp, blob_test, SEEDS,
                                                         **camp)
    assert baseline == manifest["baseline_accuracy"]
    _assert_rows_equal(got_rows, rows)
    assert len(got_maps) == len(maps) == len(SEEDS)
    for (faults, fsr), (want_faults, want_fsr) in zip(got_maps, maps):
        assert len(faults) and list(faults.entries()) == list(want_faults.entries())
        assert fsr.critical.tolist() == want_fsr.critical.tolist()
        assert fsr.fr_max_non_crit == want_fsr.fr_max_non_crit


@pytest.mark.parametrize("fmt, carry_fraction, n", GRID)
def test_retrain_campaign_matches_frozen_loop(small_mlp, blob_train, blob_test, fmt,
                                              carry_fraction, n):
    camp = _section(fmt, carry_fraction, n, fr_max_non_crit=0.02, retrain_epochs=1,
                    retrain_lr=0.15)
    train = blob_train.subset(300)
    manifest, rows = frozen.fault_train(small_mlp, blob_test, train, camp, SEEDS)
    baseline, got_rows = retrain_campaign(small_mlp, blob_test, train, SEEDS, **camp)
    assert baseline == manifest["baseline_accuracy"]
    _assert_rows_equal(got_rows, rows)
