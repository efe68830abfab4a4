"""2D DRAM weight layout and bit-flip injection campaigns.

Each layer's int8 weight matrix is laid out as a rows x columns grid of
stored bytes, one neuron per column (the output layer's 10 neurons occupy
columns 0-9). Campaigns flip chosen bit positions at seeded random cells
and measure the int8 inference accuracy drop against the fault-free
baseline, in percentage points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .netcore.data import LabeledDataset
from .netcore.inference import model_input, quant_forward, quantize_weights
from .quantnum import SIGN_BIT, Int8Tensor, byte_to_int8, int8_to_byte
from .seeds import derived_seed


@dataclass(frozen=True)
class WeightGrid:
    """Stored bytes of one layer: (fan_in rows) x (width columns).

    Column c holds neuron c; columns from ``n_neurons`` on are padding
    cells that never map back to a weight.
    """

    cells: np.ndarray  # uint8, shape (rows, width)
    scale: float
    n_neurons: int

    def __post_init__(self):
        if self.cells.dtype != np.uint8 or self.cells.ndim != 2:
            raise ValueError("cells must be a 2D uint8 array")
        if not 0 < self.n_neurons <= self.cells.shape[1]:
            raise ValueError(
                f"{self.n_neurons} neurons do not fit grid width {self.cells.shape[1]}"
            )

    @property
    def shape(self):
        return self.cells.shape


def layout(weights: Int8Tensor, width: int | None = None) -> WeightGrid:
    """Place a layer's int8 weights neuron-per-column into a grid."""
    raw = weights.raw
    if raw.ndim != 2:
        raise ValueError("expected a 2D weight matrix")
    rows, neurons = raw.shape
    width = neurons if width is None else int(width)
    if width < neurons:
        raise ValueError(f"width {width} below neuron count {neurons}")
    cells = np.zeros((rows, width), dtype=np.uint8)
    cells[:, :neurons] = int8_to_byte(raw)
    return WeightGrid(cells=cells, scale=weights.scale, n_neurons=neurons)


def extract(grid: WeightGrid) -> Int8Tensor:
    """Inverse of layout: the weight columns viewed back as int8."""
    return Int8Tensor(
        raw=byte_to_int8(grid.cells[:, : grid.n_neurons]).copy(), scale=grid.scale
    )


def inject(grid: WeightGrid, bit_pos: int, count: int, seed: int,
           target: int | None = None):
    """Flip bit ``bit_pos`` of ``count`` cells drawn from ``seed`` without
    replacement, in column ``target`` or (None) the whole grid; returns (new
    grid, flip sites), the sites as (row, col) tuples in draw order."""
    if not 0 <= bit_pos <= 7:
        raise ValueError(f"bit_pos {bit_pos} out of range")
    if count < 0:
        raise ValueError("count must be non-negative")
    rows, width = grid.shape
    if target is not None and not 0 <= target < width:
        raise ValueError(f"target column {target} beyond grid width {width}")
    n_eligible = rows if target is not None else rows * width
    if count > n_eligible:
        raise ValueError(f"count {count} exceeds {n_eligible} eligible cells")
    picks = np.random.default_rng(seed).choice(n_eligible, size=count, replace=False)
    if target is None:
        r, c = np.divmod(picks, width)
    else:
        r, c = picks, np.full(count, target)
    cells = grid.cells.copy()
    cells[r, c] ^= np.uint8(1 << bit_pos)
    return replace(grid, cells=cells), list(zip(r.tolist(), c.tolist()))


def model_grids(model, width: int | None = None) -> list[WeightGrid]:
    """One grid per layer from per-tensor int8 quantization."""
    return [layout(wq, width=width) for wq in quantize_weights(model)]


def _int8_predictions(model, x: np.ndarray, weights_q) -> np.ndarray:
    logits = quant_forward(model, x, fmt="int8", weights_q=weights_q)
    return np.argmax(logits, axis=1)


def _int8_accuracy(model, x: np.ndarray, labels, weights_q) -> float:
    return float(np.mean(_int8_predictions(model, x, weights_q) == labels))


@dataclass(frozen=True)
class CampaignRow:
    campaign: str
    bit_pos: int
    column: int | None
    fault_count: int
    run_seed: int
    accuracy: float
    drop_pp: float


def bitpos_campaign(
    model,
    dataset: LabeledDataset,
    counts,
    bit_positions=(7, 6, 5),
    runs: int = 10,
    seed: int = 0,
    eval_samples: int | None = None,
):
    """Whole-grid flips at each (bit position, fault count) pair.

    Injects ``count`` faults into every layer's grid (independent draws per
    layer), evaluates int8 accuracy, and averages the drop over ``runs``
    seeded runs. Returns (rows, mean_table) where mean_table maps
    (bit_pos, count) -> mean drop in percentage points.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    data = dataset.subset(eval_samples)
    x = model_input(data)
    grids = model_grids(model)
    baseline_wq = [extract(g) for g in grids]
    baseline = _int8_accuracy(model, x, data.labels, baseline_wq)

    rows = []
    for bit_pos in bit_positions:
        for count in counts:
            for run in range(runs):
                run_seed = derived_seed(seed, bit_pos, count, run)
                faulty = []
                for l, grid in enumerate(grids):
                    mutated, _ = inject(grid, bit_pos, count,
                                        seed=derived_seed(run_seed, l))
                    faulty.append(extract(mutated))
                acc = _int8_accuracy(model, x, data.labels, faulty)
                rows.append(CampaignRow("bitpos", bit_pos, None, count, run_seed,
                                        acc, (baseline - acc) * 100.0))
    mean_table = {}
    for bit_pos in bit_positions:
        for count in counts:
            drops = [r.drop_pp for r in rows
                     if r.bit_pos == bit_pos and r.fault_count == count]
            mean_table[(bit_pos, count)] = float(np.mean(drops))
    return rows, mean_table


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
    """Column-targeted sign-bit attack on the output layer's grid.

    For each grid column, flips ``faults_per_column`` cells in that column
    only and measures the accuracy drop; columns holding no neuron (index
    >= class count) leave the model untouched. Returns (rows, mean_drops,
    recall_drops) where mean_drops is indexed by column and recall_drops
    maps column -> mean per-class recall drop array over runs.
    """
    n_classes = model.weights[-1].shape[1]
    if n_classes != 10:
        raise ValueError(f"column campaign expects a 10-class output, got {n_classes}")
    data = dataset.subset(eval_samples)
    x = model_input(data)
    baseline_wq = quantize_weights(model)
    out_grid = layout(baseline_wq[-1], width=grid_width)
    base_pred = _int8_predictions(model, x, baseline_wq)
    baseline = float(np.mean(base_pred == data.labels))
    baseline_recall = _recall_from(base_pred, data.labels, n_classes)

    rows, recall_drops = [], {}
    for column in range(grid_width):
        per_run_recall = []
        for run in range(runs):
            run_seed = derived_seed(seed, column, run)
            mutated, _ = inject(out_grid, bit_pos, faults_per_column, run_seed,
                                target=column)
            faulty = baseline_wq[:-1] + [extract(mutated)]
            pred = _int8_predictions(model, x, faulty)
            acc = float(np.mean(pred == data.labels))
            rows.append(CampaignRow("column", bit_pos, column, faults_per_column,
                                    run_seed, acc, (baseline - acc) * 100.0))
            per_run_recall.append(baseline_recall
                                  - _recall_from(pred, data.labels, n_classes))
        recall_drops[column] = np.mean(per_run_recall, axis=0)
    mean_drops = {
        column: float(np.mean([r.drop_pp for r in rows if r.column == column]))
        for column in range(grid_width)
    }
    return rows, mean_drops, recall_drops


def _recall_from(pred: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    recall = np.zeros(n_classes)
    for c in range(n_classes):
        mask = labels == c
        recall[c] = np.mean(pred[mask] == c) if mask.any() else 0.0
    return recall
