"""LSB-count sensitivity sweep: accuracy vs fault rate for varying K."""

from __future__ import annotations

from dataclasses import dataclass

from ..netcore.data import LabeledDataset
from ..netcore.inference import evaluate
from ..seeds import derived_seed
from .array import ArrayConfig, ArrayState, SignatureMix, run_array, seed_fault_map


@dataclass(frozen=True)
class SweepRow:
    fmt: str
    k: int
    fr: float
    seed: int
    accuracy: float
    drop_pp: float


def lsb_sensitivity_sweep(
    model,
    dataset: LabeledDataset,
    k_values,
    fr_grid,
    runs: int = 10,
    config: ArrayConfig | None = None,
    seed: int = 0,
    mode: str = "sim",
    carry_fraction: float = 0.0,
    stuck_one_bias: float = 0.5,
    eval_samples: int | None = None,
):
    """Seed faults confined to cone bits < K and run the array on each map.

    Returns one ``SweepRow`` per (k, fr, run), in that nesting order; its
    ``drop_pp`` is the accuracy drop against the fault-free baseline in
    percentage points.
    """
    config = config or ArrayConfig()
    data = dataset.subset(eval_samples)
    baseline = evaluate(model, data, config.fmt)
    rows = []
    for k in k_values:
        mix = SignatureMix(critical_fraction=0.0, lsb_bits=k,
                           carry_fraction=carry_fraction,
                           stuck_one_bias=stuck_one_bias)
        for fr in fr_grid:
            for run in range(runs):
                run_seed = derived_seed(seed, k, round(fr * 100), run)
                faults = seed_fault_map(config, fr, mix, seed=run_seed)
                state = ArrayState(config=config, faults=faults)
                acc = run_array(model, state, data, mode=mode, seed=run_seed)
                rows.append(SweepRow(config.fmt, k, fr, run_seed, acc,
                                     (baseline - acc) * 100.0))
    return rows
