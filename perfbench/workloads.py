"""The pinned benchmark workloads and the work they do, counted from config.

Every workload is a list of raw `faultlab run` configs, made from the
benchmark seed. The model workloads load the baseline MLP that set-up
trains (see ``harness.build_baseline``) through ``model.checkpoint``.
The counts here are derived from the configs alone, so a traced run can
be checked against them without trusting the program's own accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MLP_LAYERS = (784, 256, 256, 256, 10)
MACS_PER_SAMPLE = sum(a * b for a, b in zip(MLP_LAYERS, MLP_LAYERS[1:]))
N_ROW = N_COL = 128
TRAIN_SAMPLES = 6000  # runner default for dataset.train
TEST_SAMPLES = 2000  # runner default for dataset.test
BASELINE_EPOCHS = 2
BASELINE_LR = 0.15


def seeds(seed: int) -> dict:
    """Every seed the benchmark feeds, derived from one benchmark seed."""
    return {
        "master": seed,
        "dataset": 4 * seed + 1,
        "test": 4 * seed + 2,
        "init": 4 * seed + 3,
        "train": 4 * seed + 4,
        "workload": seed + 11,
    }


def _model_base(seed: int, checkpoint: str) -> dict:
    s = seeds(seed)
    return {
        "seed": s["master"],
        "model": {"kind": "mlp", "layers": list(MLP_LAYERS),
                  "checkpoint": checkpoint},
        "dataset": {"seed": s["dataset"], "test_seed": s["test"]},
    }


def _faulty_per_column(fr: float) -> int:
    # macfault.array.per_column_fault_count, restated so the count comes
    # from the config and not from the code under test
    return int(math.floor(0.01 * fr * N_ROW + 0.5))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: object  # (seed, checkpoint path) -> list of raw configs
    trial_files: tuple  # the CSVs whose rows are the workload's trials
    counts: object  # () -> counters fixed by the config alone


# --- mac-fault, first half: the faulty matmul at eval batch, no carry ------

SWEEP = {"k_values": [2, 4], "fr_grid": [2.5, 7.5], "carry_fraction": 0.0,
         "mode": "sim", "runs": 1, "eval_samples": 1000}


def _sweep_configs(seed, checkpoint):
    return [{**_model_base(seed, checkpoint), "experiment": "mac-sweep",
             "campaign": dict(SWEEP)}]


def _sweep_counts():
    maps = len(SWEEP["k_values"]) * len(SWEEP["fr_grid"]) * SWEEP["runs"]
    return {
        "bench.sim_macs": (1 + maps) * SWEEP["eval_samples"] * MACS_PER_SAMPLE,
        "bench.trials": maps,
        "macfault.array.seed_fault_map.faulty_pes": len(SWEEP["k_values"])
        * SWEEP["runs"] * sum(_faulty_per_column(fr) * N_COL for fr in SWEEP["fr_grid"]),
        "macfault.array.run_array.samples": maps * SWEEP["eval_samples"],
    }


# --- mac-fault, second half: the faulty matmul at batch 64 inside SGD -------

RETRAIN = {"fr": 7.5, "carry_fraction": 0.5, "fr_max_non_crit": 0.02, "seeds": 1,
           "retrain_epochs": 2, "eval_samples": 1000}
RETRAIN_TRAIN = 4000


def _retrain_configs(seed, checkpoint):
    base = _model_base(seed, checkpoint)
    base["dataset"]["train"] = RETRAIN_TRAIN
    return [{**base, "experiment": "fault-train", "campaign": dict(RETRAIN)}]


def _retrain_counts():
    n = RETRAIN["seeds"]
    evals = (1 + 2 * n) * RETRAIN["eval_samples"]
    trained = n * RETRAIN["retrain_epochs"] * RETRAIN_TRAIN
    return {
        "bench.sim_macs": (evals + trained) * MACS_PER_SAMPLE,
        "bench.trials": n,
        "macfault.array.seed_fault_map.faulty_pes": n * _faulty_per_column(RETRAIN["fr"]) * N_COL,
        "macfault.array.run_array.samples": 2 * n * RETRAIN["eval_samples"],
        "macfault.training.fault_aware_train.samples": trained,
    }


# --- dram-neuro, first half: int8 forward passes with bit flips in weights --

BITPOS = {"counts": [40, 250], "bit_positions": [7, 6, 5], "runs": 2}
COLUMN = {"faults_per_column": 20, "grid_width": 16, "bit_pos": 7, "runs": 2}


def _dram_configs(seed, checkpoint):
    base = _model_base(seed, checkpoint)
    return [
        {**base, "experiment": "dram-bitpos", "campaign": dict(BITPOS)},
        {**base, "experiment": "dram-column", "campaign": dict(COLUMN)},
    ]


def _dram_counts():
    n_layers = len(MLP_LAYERS) - 1
    bit_rows = len(BITPOS["counts"]) * len(BITPOS["bit_positions"]) * BITPOS["runs"]
    col_rows = COLUMN["grid_width"] * COLUMN["runs"]
    forwards = (1 + bit_rows) + (1 + col_rows)
    return {
        "bench.sim_macs": forwards * TEST_SAMPLES * MACS_PER_SAMPLE,
        "bench.trials": bit_rows + col_rows,
        "dramfault.inject.flips": n_layers * len(BITPOS["bit_positions"])
        * BITPOS["runs"] * sum(BITPOS["counts"])
        + col_rows * COLUMN["faults_per_column"],
        "netcore.inference.quant_forward.samples": forwards * TEST_SAMPLES,
    }


# --- dram-neuro, second half: KL partition, PSO, synapse placement ----------

NEURO_WORKLOAD = {"neurons": 512, "synapses": 8000}
NEURO = {"capacity": 10, "tiles": [{"voltage": 3.0, "temperature": 298.0},
                                   {"voltage": 1.8, "temperature": 298.0}],
         "particles": 20, "iterations": 50, "comm_weight": 0.5}


def _neuro_configs(seed, checkpoint):
    s = seeds(seed)
    return [{"seed": s["master"], "experiment": "neuro-map",
             "workload": {**NEURO_WORKLOAD, "seed": s["workload"]},
             "campaign": dict(NEURO)}]


def _neuro_counts():
    return {
        "bench.sim_macs": 0,
        "bench.trials": NEURO_WORKLOAD["synapses"],
        "neurorel.pso.pso_assign.fitness_evals":
            NEURO["particles"] * (NEURO["iterations"] + 1),
    }


def _merge_counts(*parts):
    """Counts of workloads run one after the other: sums, key by key."""
    total = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def _mac_configs(seed, checkpoint):
    return _sweep_configs(seed, checkpoint) + _retrain_configs(seed, checkpoint)


def _mac_counts():
    return _merge_counts(_sweep_counts(), _retrain_counts())


def _dram_neuro_configs(seed, checkpoint):
    return _dram_configs(seed, checkpoint) + _neuro_configs(seed, checkpoint)


def _dram_neuro_counts():
    return _merge_counts(_dram_counts(), _neuro_counts())


# Two workloads, each a sequence of campaigns: the host drifts too much for
# a single short campaign to hold a bound, and two workloads leave room for
# long runs. The per-layer metrics still tell the campaigns apart.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mac-fault",
                 "faulty int8 matmul: a no-carry sweep at a 1000-sample eval batch, "
                 "then fault-aware SGD at batch 64 with carry on and deactivation",
                 _mac_configs, ("sweep.csv", "fault_train.csv"), _mac_counts),
        Workload("dram-neuro",
                 "DRAM bit flips (fault-free int8 forward passes), then SNN mapping "
                 "(KL, PSO, placement); no MAC fault model",
                 _dram_neuro_configs, ("bitpos.csv", "column.csv", "mapping.csv"),
                 _dram_neuro_counts),
    )
}
