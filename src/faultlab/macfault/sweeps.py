"""The MAC-fault campaigns: the LSB-count sensitivity sweep, FSR deactivation
and fault-aware retraining.

Each seeds fault maps on a ``fmt`` array of ``n_row`` x ``n_col`` PEs and
runs it on the first ``eval_samples`` test samples, against the fault-free
accuracy of the same subset. The sweep derives a seed per (K, FR, run) from
its master seed; the two FSR campaigns take their run seeds as a list. Each
FSR trial seeds its map, builds the map's FSR, then runs, deactivates and
retrains in the protocol's order. Every library call goes through a
module-level name, looked up at call time, so a tracer that rebinds the name
sees the call.
"""

from __future__ import annotations

from ..netcore.data import LabeledDataset
from ..netcore.inference import evaluate
from ..seeds import derived_seed
from .array import (ArrayConfig, ArrayState, SignatureMix, build_fsr, deactivate,
                    run_array, seed_fault_map)
from .training import fault_aware_train


def lsb_sensitivity_sweep(model, dataset: LabeledDataset, k_values, fr_grid, runs: int = 10,
                          fmt: str = "int8", n_row: int = 128, n_col: int = 128,
                          seed: int = 0, mode: str = "sim", carry_fraction: float = 0.0,
                          stuck_one_bias: float = 0.5, eval_samples: int | None = None):
    """Seed faults confined to cone bits < K and run the array on each map.

    Returns one row per (k, fr, run), in that nesting order: a tuple in the
    column order of ``cli.report.SCHEMAS["sweep"]``, (format, k, fr, run
    seed, accuracy, drop), the drop against the fault-free baseline in
    percentage points.
    """
    config = ArrayConfig(n_row=n_row, n_col=n_col, fmt=fmt)
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
                rows.append((config.fmt, k, fr, run_seed, acc, (baseline - acc) * 100.0))
    return rows


def _fsr_trials(model, dataset, seeds, config, mix, fr, fr_max_non_crit, eval_samples):
    """(evaluation subset, fault-free accuracy, trials): each trial, made when
    drawn, is a run seed, an array state seeded from it, and the state's FSR."""
    data = dataset.subset(eval_samples)

    def trials():
        for seed in seeds:
            faults = seed_fault_map(config, fr, mix, seed=seed)
            fsr = build_fsr(faults, config.fmt, fr_max_non_crit)
            yield seed, ArrayState(config, faults), fsr

    return data, evaluate(model, data, config.fmt), trials()


def deactivation_campaign(model, dataset: LabeledDataset, seeds, fr: float,
                          fr_max_non_crit: float, critical_fraction: float, lsb_bits: int,
                          carry_fraction: float, fmt: str, n_row: int, n_col: int,
                          eval_samples: int | None):
    """Run each seed's faulty array before and after FSR deactivation.

    Returns (fault-free accuracy, rows, maps). Each seed gives two rows,
    (seed, "faulty" or "deactivated", accuracy, drop in percentage points,
    active PEs, active faulty PEs), and one (fault map, FSR) pair in ``maps``.
    Raises ``DeactivationInfeasible`` when a seed's map leaves no PE active.
    """
    data, baseline, trials = _fsr_trials(
        model, dataset, seeds, ArrayConfig(n_row, n_col, fmt),
        SignatureMix(critical_fraction, lsb_bits, carry_fraction), fr, fr_max_non_crit,
        eval_samples)
    rows, maps = [], []
    for seed, state, fsr in trials:
        acc_faulty = run_array(model, state, data, mode="sim", seed=seed)
        state.active = deactivate(state, fsr)
        acc_after = run_array(model, state, data, mode="sim", seed=seed)
        maps.append((state.faults, fsr))
        rows.append((seed, "faulty", acc_faulty, (baseline - acc_faulty) * 100,
                     state.active.size, len(state.faults)))
        live = state.active[state.faults.rows, state.faults.cols]
        rows.append((seed, "deactivated", acc_after, (baseline - acc_after) * 100,
                     int(state.active.sum()), int(live.sum())))
    return baseline, rows, maps


def retrain_campaign(model, dataset: LabeledDataset, train: LabeledDataset, seeds,
                     fr: float, fr_max_non_crit: float, lsb_bits: int,
                     carry_fraction: float, retrain_epochs: int, retrain_lr: float,
                     fmt: str, n_row: int, n_col: int, eval_samples: int | None):
    """Retrain against each seed's deactivated array, which has no critical faults.

    Returns (fault-free accuracy, rows), one row per seed: (seed, fault-free
    accuracy, accuracy before and after retraining, the share of the
    fault-free accuracy lost before and after, and the share of that loss
    retraining recovers). A share with a zero denominator is NaN. Raises
    ``DeactivationInfeasible`` when a seed's map leaves no PE active.
    """
    data, baseline, trials = _fsr_trials(
        model, dataset, seeds, ArrayConfig(n_row, n_col, fmt),
        SignatureMix(lsb_bits=lsb_bits, carry_fraction=carry_fraction), fr,
        fr_max_non_crit, eval_samples)
    rows = []
    for seed, state, fsr in trials:
        state.active = deactivate(state, fsr)
        acc_before = run_array(model, state, data, mode="sim", seed=seed)
        retrained = fault_aware_train(model, state, train, epochs=retrain_epochs,
                                      lr=retrain_lr, seed=seed)
        acc_after = run_array(retrained, state, data, mode="sim", seed=seed)
        loss_before, loss_after = (
            (baseline - acc) / baseline if baseline else float("nan")
            for acc in (acc_before, acc_after))
        reduction = ((loss_before - loss_after) / loss_before
                     if loss_before > 0 else float("nan"))
        rows.append((seed, baseline, acc_before, acc_after, loss_before,
                     loss_after, reduction))
    return baseline, rows
