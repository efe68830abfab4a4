"""DRAM bit-flip injection campaigns on the stored int8 weights.

A layer's int8 weights are stored as a rows x columns array of bytes
(``int8_to_byte`` of its ``raw``), one neuron per column: the output
layer's 10 neurons occupy columns 0-9. A column campaign also attacks
padding columns past the last neuron, which hold no weight. Campaigns flip
chosen bit positions at seeded random cells and measure the int8 inference
accuracy drop against the fault-free baseline, in percentage points.

Every trial, the baseline included, makes its own int8 ``quant_forward``
call over the whole evaluation set. Each campaign records its fault-free
pass, and each trial reuses it up to the first layer it changes. A
bit-position trial flips every layer: an MLP's trial starts at its first
dense layer from the recorded quantized input, and a network that opens
with a convolution reruns from the images. A column trial changes only the
output layer, so it runs one output-layer matmul on the recorded input of
that layer, and none for a padding column, which changes no weight.
"""

from __future__ import annotations

import numpy as np

from .netcore.data import LabeledDataset
from .netcore.inference import model_input, quant_forward, quantize_weights
from .quantnum import SIGN_BIT, Int8Tensor, int8_to_byte
from .seeds import derived_seed


def inject(weights: Int8Tensor, bit_pos: int, count: int, seed: int,
           target: int | None = None):
    """Flip bit ``bit_pos`` of ``count`` stored bytes drawn from ``seed``
    without replacement, in column ``target`` or (None) the whole matrix;
    returns (new weights, flip sites), the sites as (row, col) tuples in draw
    order. A ``target`` at or past the neuron count is a padding column: its
    sites are drawn, and its flips change no weight."""
    if not 0 <= bit_pos <= 7:
        raise ValueError(f"bit_pos {bit_pos} out of range")
    if count < 0:
        raise ValueError("count must be non-negative")
    if target is not None and target < 0:
        raise ValueError(f"target column {target} is negative")
    rows, neurons = weights.raw.shape
    n_eligible = rows if target is not None else rows * neurons
    if count > n_eligible:
        raise ValueError(f"count {count} exceeds {n_eligible} eligible cells")
    picks = np.random.default_rng(seed).choice(n_eligible, size=count, replace=False)
    if target is None:
        r, c = np.divmod(picks, neurons)
    else:
        r, c = picks, np.full(count, target)
    sites = list(zip(r.tolist(), c.tolist()))
    if target is not None and target >= neurons:
        return weights, sites
    raw = weights.raw.copy()
    int8_to_byte(raw)[r, c] ^= np.uint8(1 << bit_pos)
    return Int8Tensor(raw=raw, scale=weights.scale), sites


def model_grids(model) -> list[Int8Tensor]:
    """The stored weights of every layer, from per-tensor int8 quantization."""
    return quantize_weights(model)


def _int8_predictions(model, x: np.ndarray, weights_q, baseline=None) -> np.ndarray:
    logits = quant_forward(model, x, fmt="int8", weights_q=weights_q, baseline=baseline)
    return np.argmax(logits, axis=1)


def bitpos_campaign(
    model,
    dataset: LabeledDataset,
    counts,
    bit_positions=(7, 6, 5),
    runs: int = 10,
    seed: int = 0,
    eval_samples: int | None = None,
):
    """Whole-matrix flips at each (bit position, fault count) pair.

    Injects ``count`` faults into every layer's weights (independent draws per
    layer) and evaluates int8 accuracy, in ``runs`` seeded runs per pair.
    Returns the rows, one per run, each a tuple in the column order of
    ``cli.report.SCHEMAS["dram"]`` (its ``column`` None); ``cli.report.cells``
    gives each pair's mean drop.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    data = dataset.subset(eval_samples)
    x = model_input(data.images)
    baseline_wq = model_grids(model)
    record = []
    baseline = float(np.mean(_int8_predictions(model, x, baseline_wq, record)
                             == data.labels))

    rows = []
    for bit_pos in bit_positions:
        for count in counts:
            for run in range(runs):
                run_seed = derived_seed(seed, bit_pos, count, run)
                faulty = [inject(wq, bit_pos, count, seed=derived_seed(run_seed, l))[0]
                          for l, wq in enumerate(baseline_wq)]
                acc = float(np.mean(_int8_predictions(model, x, faulty, record)
                                    == data.labels))
                rows.append(("bitpos", bit_pos, None, count, run_seed, acc,
                             (baseline - acc) * 100.0))
    return rows


def column_campaign(
    model,
    dataset: LabeledDataset,
    faults_per_column: int = 20,
    bit_pos: int = SIGN_BIT,
    runs: int = 10,
    seed: int = 0,
    grid_width: int = 16,
    eval_samples: int | None = None,
):
    """Column-targeted sign-bit attack on the output layer's stored weights.

    For each of ``grid_width`` columns, flips ``faults_per_column`` cells in
    that column only and measures the accuracy drop, in ``runs`` seeded runs;
    padding columns (index >= class count) leave the model untouched. Returns
    (rows, recall_drops): one row per run, a tuple in the column order of
    ``cli.report.SCHEMAS["dram"]``, and per column the mean per-class recall
    drop array over runs, which no row holds.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    n_classes = model.weights[-1].shape[1]
    if n_classes != 10:
        raise ValueError(f"column campaign expects a 10-class output, got {n_classes}")
    if grid_width < n_classes:
        raise ValueError(f"grid width {grid_width} below neuron count {n_classes}")
    data = dataset.subset(eval_samples)
    x = model_input(data.images)
    baseline_wq = model_grids(model)
    record = []
    base_pred = _int8_predictions(model, x, baseline_wq, record)
    baseline = float(np.mean(base_pred == data.labels))
    baseline_recall = _recall_from(base_pred, data.labels, n_classes)

    rows, recall_drops = [], {}
    for column in range(grid_width):
        per_run_recall = []
        for run in range(runs):
            run_seed = derived_seed(seed, column, run)
            mutated, _ = inject(baseline_wq[-1], bit_pos, faults_per_column, run_seed,
                                target=column)
            faulty = baseline_wq[:-1] + [mutated]
            pred = _int8_predictions(model, x, faulty, record)
            acc = float(np.mean(pred == data.labels))
            rows.append(("column", bit_pos, column, faults_per_column, run_seed, acc,
                         (baseline - acc) * 100.0))
            per_run_recall.append(baseline_recall
                                  - _recall_from(pred, data.labels, n_classes))
        recall_drops[column] = np.mean(per_run_recall, axis=0)
    return rows, recall_drops


def _recall_from(pred: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    recall = np.zeros(n_classes)
    for c in range(n_classes):
        mask = labels == c
        recall[c] = np.mean(pred[mask] == c) if mask.any() else 0.0
    return recall
