"""Fault-aware training and LSB-sensitivity sweep behavior."""


import numpy as np
import pytest

from faultlab.cli.report import cells
from faultlab.macfault import (
    ArrayConfig,
    ArrayState,
    FaultMap,
    SignatureMix,
    build_fsr,
    deactivate,
    fault_aware_train,
    lsb_sensitivity_sweep,
    seed_fault_map,
)
from faultlab.netcore import evaluate, init_mlp, train_sgd
from faultlab.netcore import train as train_module
from faultlab.netcore.network import (
    ConvStage,
    DenseStage,
    FlattenStage,
    PoolStage,
    he_uniform,
)
from faultlab.macfault.array import run_array


def _deactivated_state(seed, fr=7.5, fr_max=0.02, fmt="int8"):
    cfg = ArrayConfig(fmt=fmt)
    mix = SignatureMix(critical_fraction=0.0, lsb_bits=2, carry_fraction=0.5)
    faults = seed_fault_map(cfg, fr, mix, seed=seed)
    state = ArrayState(config=cfg, faults=faults)
    state.active = deactivate(state, build_fsr(faults, fmt, fr_max))
    return state


def test_training_scores_only_a_given_test_set(monkeypatch, blob_train, blob_test):
    calls = []

    def counting_evaluate(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(train_module, "evaluate", counting_evaluate)
    model, sub = init_mlp((784, 12, 10), seed=1), blob_train.subset(128)
    _, hist = train_sgd(model, sub, epochs=2, lr=0.1, seed=0)
    assert hist == [] and calls == []
    fault_aware_train(model, _deactivated_state(0), sub, epochs=2, lr=0.1, seed=0)
    assert calls == []
    _, hist = train_sgd(model, sub, epochs=3, lr=0.1, seed=0,
                        test=blob_test.subset(50))
    assert len(hist) == len(calls) == 3


def test_empty_fault_map_is_plain_sgd(blob_train):
    model = init_mlp((784, 24, 10), seed=2)
    state = ArrayState(config=ArrayConfig(), faults=FaultMap.from_entries([]))
    sub = blob_train.subset(500)
    a = fault_aware_train(model, state, sub, epochs=2, lr=0.2, seed=5)
    b, _ = train_sgd(model, sub, epochs=2, lr=0.2, seed=5)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


@pytest.mark.parametrize("fmt", ["int8", "bfloat16"])
def test_fault_aware_train_matches_frozen_per_signature_path(blob_train, fmt):
    # same weights as the per-signature path, whose sim-mode carry draws
    # (rng call order and shapes) the error-only path must reproduce
    from frozen_matmul import fault_aware_train as frozen_fault_aware_train

    model = init_mlp((784, 20, 12), seed=3)
    cfg = ArrayConfig(n_row=16, n_col=16, fmt=fmt)
    mix = SignatureMix(critical_fraction=0.0, lsb_bits=3, carry_fraction=0.5)
    faults = seed_fault_map(cfg, 25, mix, seed=4)
    state = ArrayState(config=cfg, faults=faults)
    state.active = deactivate(state, build_fsr(faults, fmt, 0.1))
    assert state.active[faults.rows, faults.cols].any() and not state.active.all()
    sub = blob_train.subset(200)
    kw = dict(epochs=1, lr=0.2, seed=6)
    got = fault_aware_train(model, state, sub, **kw)
    want, _ = frozen_fault_aware_train(model, state, sub, **kw)
    for wa, wb in zip(got.weights, want.weights):
        assert np.array_equal(wa, wb)


def test_fault_aware_train_rejects_non_finite_weights(blob_train):
    model = init_mlp((784, 12, 10), seed=1)
    model.weights[1][3, 4] = np.nan
    state = _deactivated_state(0)
    with pytest.raises(ValueError, match="cannot quantize non-finite values"):
        fault_aware_train(model, state, blob_train.subset(64), epochs=1, lr=0.1,
                          seed=0)


def test_fault_aware_training_recovers_mlp(blob_train, blob_test):
    model, _ = train_sgd(init_mlp((784, 48, 10), seed=11), blob_train,
                         epochs=10, lr=0.2, seed=12)
    acc0 = evaluate(model, blob_test, "int8")
    reductions = []
    for seed in range(3):
        state = _deactivated_state(seed)
        before = run_array(model, state, blob_test, mode="sim", seed=seed)
        retrained = fault_aware_train(model, state, blob_train,
                                      epochs=6, lr=0.15, seed=100 + seed)
        after = run_array(retrained, state, blob_test, mode="sim", seed=seed)
        loss_before = (acc0 - before) / acc0
        loss_after = (acc0 - after) / acc0
        assert loss_after < loss_before
        reductions.append((loss_before - loss_after) / loss_before)
    assert np.mean(reductions) >= 0.30


def test_fault_aware_training_recovers_lenet_class_cnn(blob_train, blob_test):
    cnn = he_uniform(28, [ConvStage(0, 5, 1, 6), PoolStage(2), ConvStage(1, 5, 6, 16),
                          PoolStage(2), FlattenStage(), DenseStage(2, 256, 64, final=False),
                          DenseStage(3, 64, 10, final=True)], seed=7)
    cnn, _ = train_sgd(cnn, blob_train.subset(2000), epochs=6, lr=0.25, seed=8)
    acc0 = evaluate(cnn, blob_test, "int8")
    assert acc0 > 0.85
    state = _deactivated_state(1)
    before = run_array(cnn, state, blob_test, mode="sim", seed=1)
    retrained = fault_aware_train(cnn, state, blob_train.subset(2000),
                                  epochs=3, lr=0.2, seed=9)
    after = run_array(retrained, state, blob_test, mode="sim", seed=1)
    assert (acc0 - after) / acc0 < (acc0 - before) / acc0


def test_sweep_zero_rate_zero_drop(small_mlp, blob_test):
    rows = lsb_sensitivity_sweep(small_mlp, blob_test, k_values=[2], fr_grid=[0.0],
                                 runs=2, eval_samples=300)
    assert cells(rows, (1, 2), 5) == {(2, 0.0): (0.0, 0.0)}


def test_sweep_monotone_in_k_and_fr(small_mlp, blob_test):
    # K values chosen where desk-scale models respond; low-K drops sit at
    # the noise floor, so the rate trend is asserted on the responsive Ks
    rows = lsb_sensitivity_sweep(
        small_mlp, blob_test, k_values=[2, 11, 13], fr_grid=[0.0, 5.0, 10.0],
        runs=8, mode="worst", carry_fraction=0.5, stuck_one_bias=1.0,
        eval_samples=1000,
    )
    table = {key: mean for key, (mean, _) in cells(rows, (1, 2), 5).items()}
    for fr in (5.0, 10.0):
        assert table[(2, fr)] <= table[(11, fr)] <= table[(13, fr)]
    for k in (11, 13):
        assert table[(k, 0.0)] <= table[(k, 5.0)] <= table[(k, 10.0)]


def test_sweep_rows_deterministic(small_mlp, blob_test):
    kw = dict(k_values=[2], fr_grid=[5.0], runs=2, eval_samples=200, seed=9)
    rows_a = lsb_sensitivity_sweep(small_mlp, blob_test, **kw)
    rows_b = lsb_sensitivity_sweep(small_mlp, blob_test, **kw)
    assert rows_a == rows_b


def test_sweep_bf16_runs(small_mlp, blob_test):
    rows = lsb_sensitivity_sweep(
        small_mlp, blob_test, k_values=[3, 5], fr_grid=[10.0], runs=2,
        fmt="bfloat16", eval_samples=200,
    )
    assert set(cells(rows, (1, 2), 5)) == {(3, 10.0), (5, 10.0)}
