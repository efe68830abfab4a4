"""The DRAM campaigns with one self-contained int8 forward pass per trial.

Each trial, the baseline included, calls ``quant_forward`` on the float
input with no record, so every pass runs every stage and quantizes every
stage's input itself. The campaigns reuse a recorded fault-free pass
instead; they must return these rows and recall drops exactly.
"""

import numpy as np

from faultlab.dramfault import inject
from faultlab.netcore.inference import model_input, quant_forward, quantize_weights
from faultlab.quantnum import SIGN_BIT
from faultlab.seeds import derived_seed


def _predictions(model, x, weights_q):
    return np.argmax(quant_forward(model, x, fmt="int8", weights_q=weights_q), axis=1)


def _recall(pred, labels, n_classes):
    recall = np.zeros(n_classes)
    for c in range(n_classes):
        mask = labels == c
        recall[c] = np.mean(pred[mask] == c) if mask.any() else 0.0
    return recall


def bitpos_campaign(model, dataset, counts, bit_positions=(7, 6, 5), runs=10, seed=0,
                    eval_samples=None):
    data = dataset.subset(eval_samples)
    x = model_input(data.images)
    baseline_wq = quantize_weights(model)
    baseline = float(np.mean(_predictions(model, x, baseline_wq) == data.labels))
    rows = []
    for bit_pos in bit_positions:
        for count in counts:
            for run in range(runs):
                run_seed = derived_seed(seed, bit_pos, count, run)
                faulty = [inject(wq, bit_pos, count, seed=derived_seed(run_seed, l))[0]
                          for l, wq in enumerate(baseline_wq)]
                acc = float(np.mean(_predictions(model, x, faulty) == data.labels))
                rows.append(("bitpos", bit_pos, None, count, run_seed, acc,
                             (baseline - acc) * 100.0))
    return rows


def column_campaign(model, dataset, faults_per_column=20, bit_pos=SIGN_BIT, runs=10,
                    seed=0, grid_width=16, eval_samples=None):
    n_classes = model.weights[-1].shape[1]
    data = dataset.subset(eval_samples)
    x = model_input(data.images)
    baseline_wq = quantize_weights(model)
    base_pred = _predictions(model, x, baseline_wq)
    baseline = float(np.mean(base_pred == data.labels))
    baseline_recall = _recall(base_pred, data.labels, n_classes)
    rows, recall_drops = [], {}
    for column in range(grid_width):
        per_run_recall = []
        for run in range(runs):
            run_seed = derived_seed(seed, column, run)
            mutated, _ = inject(baseline_wq[-1], bit_pos, faults_per_column, run_seed,
                                target=column)
            pred = _predictions(model, x, baseline_wq[:-1] + [mutated])
            acc = float(np.mean(pred == data.labels))
            rows.append(("column", bit_pos, column, faults_per_column, run_seed, acc,
                         (baseline - acc) * 100.0))
            per_run_recall.append(baseline_recall - _recall(pred, data.labels, n_classes))
        recall_drops[column] = np.mean(per_run_recall, axis=0)
    return rows, recall_drops
