"""Bit-flip injection into stored int8 weights, and the DRAM campaigns."""

from collections import Counter

import numpy as np
import pytest

import frozen_dram
from faultlab import dramfault as df
from faultlab.cli.report import cells
from faultlab.netcore import evaluate, init_lenet5, init_mlp
from faultlab.netcore import inference
from faultlab.netcore.inference import model_input
from faultlab.quantnum import Int8Tensor, int8_to_byte, quantize_int8


def _toy_tensor(rng, rows=6, cols=4):
    return quantize_int8(rng.normal(0, 1, size=(rows, cols)))


def _bytes(wq):
    return int8_to_byte(wq.raw)


def test_output_layer_grid_shape_of_reference_mlp():
    model = init_mlp(seed=0)  # 784-256-256-256-10
    grids = df.model_grids(model)
    assert grids[-1].raw.shape == (256, 10)


def test_inject_count_zero_is_noop(rng):
    wq = _toy_tensor(rng)
    mutated, sites = df.inject(wq, bit_pos=7, count=0, seed=1)
    assert sites == []
    assert np.array_equal(mutated.raw, wq.raw)
    assert mutated.scale == wq.scale


def test_inject_all_cells_sign_bit(rng):
    wq = _toy_tensor(rng)
    n = wq.raw.size
    mutated, sites = df.inject(wq, bit_pos=7, count=n, seed=1)
    assert len(sites) == n
    assert np.array_equal(_bytes(mutated), _bytes(wq) ^ 0x80)


def test_inject_deterministic_and_distinct(rng):
    wq = _toy_tensor(rng, rows=10, cols=8)
    plan = dict(bit_pos=6, count=30, seed=99)
    _, sites_a = df.inject(wq, **plan)
    _, sites_b = df.inject(wq, **plan)
    assert sites_a == sites_b
    assert len(set(sites_a)) == 30  # sampling without replacement


def test_inject_touches_exactly_count_cells(rng):
    wq = _toy_tensor(rng, rows=12, cols=9)
    mutated, sites = df.inject(wq, bit_pos=5, count=17, seed=4)
    changed = np.argwhere(mutated.raw != wq.raw)
    assert len(changed) == 17
    assert {tuple(rc) for rc in changed} == set(sites)
    # each flipped exactly once, at the planned bit
    at = tuple(np.array(sites).T)
    assert np.all(_bytes(mutated)[at] ^ _bytes(wq)[at] == 1 << 5)


def test_inject_never_mutates_its_input(rng):
    wq = _toy_tensor(rng, rows=8, cols=5)
    before = wq.raw.copy()
    df.inject(wq, bit_pos=7, count=40, seed=2)
    df.inject(wq, bit_pos=3, count=8, seed=2, target=4)
    assert np.array_equal(wq.raw, before)


def test_inject_column_target_stays_in_column(rng):
    wq = _toy_tensor(rng, rows=20, cols=6)
    _, sites = df.inject(wq, bit_pos=7, count=10, seed=3, target=5)
    assert all(c == 5 for _, c in sites)
    # the column draw is over the rows alone
    assert [r for r, _ in sites] == np.random.default_rng(3).choice(
        20, size=10, replace=False).tolist()


def test_inject_padding_column_draws_sites_and_changes_no_weight(rng):
    wq = _toy_tensor(rng, rows=20, cols=6)
    mutated, sites = df.inject(wq, bit_pos=7, count=10, seed=3, target=7)
    assert len(sites) == 10
    assert all(c == 7 for _, c in sites)
    assert np.array_equal(mutated.raw, wq.raw)
    assert mutated.scale == wq.scale


def test_inject_rejects_negative_target(rng):
    with pytest.raises(ValueError, match="target"):
        df.inject(_toy_tensor(rng), bit_pos=7, count=1, seed=3, target=-1)


def test_inject_count_exceeding_cells_rejected(rng):
    wq = _toy_tensor(rng, rows=4, cols=4)
    with pytest.raises(ValueError):
        df.inject(wq, bit_pos=7, count=17, seed=0)
    with pytest.raises(ValueError):
        df.inject(wq, bit_pos=7, count=5, seed=0, target=9)


@pytest.mark.parametrize("bit_pos, count", [(8, 1), (-1, 1), (7, -1)])
def test_inject_rejects_bad_bit_or_count(rng, bit_pos, count):
    wq = _toy_tensor(rng, rows=4, cols=4)
    with pytest.raises(ValueError, match="bit_pos|count"):
        df.inject(wq, bit_pos=bit_pos, count=count, seed=0)


def test_restoring_flips_recovers_baseline(small_mlp, blob_test):
    base = evaluate(small_mlp, blob_test, "int8")
    grids = df.model_grids(small_mlp)
    mutated, sites = df.inject(grids[0], bit_pos=7, count=200, seed=8)
    cells = _bytes(mutated).copy()
    for r, c in sites:
        cells[r, c] ^= 0x80
    assert np.array_equal(cells, _bytes(grids[0]))
    restored = [Int8Tensor(raw=cells.view(np.int8), scale=grids[0].scale)] + grids[1:]
    pred = df._int8_predictions(small_mlp, model_input(blob_test.images), restored)
    assert float(np.mean(pred == blob_test.labels)) == base


def test_bitpos_campaign_zero_count_zero_drop(small_mlp, blob_test):
    rows = df.bitpos_campaign(
        small_mlp, blob_test, counts=[0], bit_positions=(7,), runs=3, seed=1,
        eval_samples=400,
    )
    assert cells(rows, (1, 3), 6) == {(7, 0): (0.0, 0.0)}
    assert all(r[6] == 0.0 for r in rows)


def test_bitpos_campaign_row_counts(small_mlp, blob_test):
    rows = df.bitpos_campaign(
        small_mlp, blob_test, counts=[10, 50], bit_positions=(7, 6), runs=4, seed=1,
        eval_samples=400,
    )
    assert len(rows) == 2 * 2 * 4
    assert set(cells(rows, (1, 3), 6)) == {(7, 10), (7, 50), (6, 10), (6, 50)}


def test_column_campaign_requires_ten_class_output(blob_test):
    model = init_mlp((784, 16, 4), seed=0)
    with pytest.raises(ValueError):
        df.column_campaign(model, blob_test)


def test_column_campaign_rejects_grid_narrower_than_output(small_mlp, blob_test):
    with pytest.raises(ValueError, match="grid width 9"):
        df.column_campaign(small_mlp, blob_test, runs=1, grid_width=9)


def test_column_campaign_padding_columns_exact_zero(small_mlp, blob_test):
    rows, recall_drops = df.column_campaign(
        small_mlp, blob_test, runs=2, seed=3, grid_width=12, eval_samples=300,
    )
    padding = [r for r in rows if r[2] >= 10]
    assert len(padding) == 2 * 2
    assert all(r[6] == 0.0 for r in padding)
    for col in range(10, 12):
        assert np.array_equal(recall_drops[col], np.zeros(10))


@pytest.mark.parametrize("campaign, kwargs", [
    (df.bitpos_campaign, {"counts": [10]}),
    (df.column_campaign, {}),
])
def test_campaign_rejects_no_runs(small_mlp, blob_test, campaign, kwargs):
    with pytest.raises(ValueError, match="runs must be >= 1"):
        campaign(small_mlp, blob_test, runs=0, **kwargs)


@pytest.mark.parametrize("campaign, kwargs", [
    (df.bitpos_campaign, {"counts": [10], "bit_positions": (7, 6), "runs": 2}),
    (df.column_campaign, {"runs": 1, "grid_width": 10}),
])
def test_campaign_converts_input_and_quantizes_weights_once(
        monkeypatch, small_mlp, blob_test, campaign, kwargs):
    calls = {"model_input": 0, "quantize_weights": 0, "quantize_input": 0}

    def counted(name, fn, when=lambda *args: True):
        def wrapper(*args, **kw):
            calls[name] += when(*args)
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(df, "model_input", counted("model_input", df.model_input))
    monkeypatch.setattr(df, "quantize_weights",
                        counted("quantize_weights", df.quantize_weights))
    # the quantizer, counting the calls on the flat input
    monkeypatch.setattr(inference, "quantize_int8", counted(
        "quantize_input", inference.quantize_int8,
        lambda values, *rest: np.shape(values) == (100, 784)))
    campaign(small_mlp, blob_test, seed=1, eval_samples=100, **kwargs)
    assert calls == {"model_input": 1, "quantize_weights": 1, "quantize_input": 1}


def test_column_trials_reuse_the_baseline_pass_before_the_output_layer(monkeypatch,
                                                                       blob_test):
    # the weights are quantized once, and every stage's input is quantized
    # in the baseline pass alone; each of the 10 neuron columns' trials runs
    # the output layer's matmul on its recorded input, and the 2 padding
    # columns run none
    calls = {"quantize": Counter(), "matmul": Counter()}

    def counted(name, fn, shape_of):
        def wrapper(*args, **kw):
            calls[name][shape_of(*args)] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(inference, "quantize_int8", counted(
        "quantize", inference.quantize_int8, lambda values, *rest: np.shape(values)))
    monkeypatch.setattr(inference, "exact_int_matmul",
                        counted("matmul", inference.exact_int_matmul,
                                lambda aq, wq: wq.shape))
    model = init_mlp((784, 48, 32, 10), seed=2)
    df.column_campaign(model, blob_test, runs=1, seed=1, grid_width=12, eval_samples=100)
    assert calls == {"quantize": {(784, 48): 1, (48, 32): 1, (32, 10): 1,
                                  (100, 784): 1, (100, 48): 1, (100, 32): 1},
                     "matmul": {(784, 48): 1, (48, 32): 1, (32, 10): 11}}


@pytest.mark.parametrize("model, campaign, kwargs", [
    ("mlp", "bitpos_campaign", {"counts": [10, 60], "bit_positions": (7, 5), "runs": 2}),
    ("mlp", "column_campaign", {"faults_per_column": 30, "runs": 2, "grid_width": 12}),
    # a convolution first: every trial reruns from the images
    ("lenet5", "bitpos_campaign", {"counts": [5, 40], "bit_positions": (7, 6), "runs": 2}),
    # the column trials reuse the recorded conv stages
    ("lenet5", "column_campaign", {"faults_per_column": 30, "runs": 2, "grid_width": 12}),
])
def test_campaign_equals_frozen_per_trial_forward(small_mlp, blob_test, model, campaign,
                                                  kwargs):
    net = small_mlp if model == "mlp" else init_lenet5(28, seed=5)
    args = dict(seed=4, eval_samples=300, **kwargs)
    got = getattr(df, campaign)(net, blob_test, **args)
    want = getattr(frozen_dram, campaign)(net, blob_test, **args)
    if campaign == "column_campaign":
        (got, got_recall), (want, want_recall) = got, want
        assert got_recall.keys() == want_recall.keys()
        assert all(np.array_equal(got_recall[c], want_recall[c]) for c in want_recall)
    assert got == want
    assert any(row[6] != 0.0 for row in got)  # the flips reach the predictions
