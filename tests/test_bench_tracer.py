"""The benchmark tracer's contract with the program.

``perfbench/spans.py`` wraps faultlab functions by module and name, and its
counters read their arguments and results: ``len(faults)``, ``for pe in
state.faults``, ``state.active[pe]`` and the parameter names ``state``,
``weight_shapes``, ``dataset``, ``eval_samples`` and ``x``; the SNN mapper's
fitness is a callable that ``pso_assign`` calls once per particle and
iteration, and every DRAM trial, the baseline included, makes its own
``quant_forward`` call over the whole evaluation set. A change that breaks
any of these fails here instead of in a benchmark run.
"""

import functools
import sys
from pathlib import Path

import pytest

from faultlab.cli.config import validate
from faultlab.cli.runner import run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

ARRAY = {"n_row": 16, "n_col": 16, "eval_samples": 200}
CAMPAIGNS = {
    "mac-sweep": {"k_values": [2], "fr_grid": [7.5, 25.0], "runs": 1,
                  "carry_fraction": 0.5, **ARRAY},
    "deactivate": {"fr": 25.0, "runs": 2, **ARRAY},
    "fault-train": {"fr": 25.0, "seeds": 1, "retrain_epochs": 1, **ARRAY},
}


def _record(monkeypatch, module: str, attr: str) -> list:
    """Results of every call to a faultlab function, at each module binding it."""
    original = getattr(sys.modules[module], attr)
    results = []

    @functools.wraps(original)
    def recorder(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    for name, m in list(sys.modules.items()):
        if name.startswith("faultlab") and getattr(m, attr, None) is original:
            monkeypatch.setattr(m, attr, recorder)
    return results


def _count(tracer, name: str, key: str) -> int:
    return sum(s.counts.get(key, 0) for s in tracer.spans if s.name == name)


@pytest.mark.parametrize("kind", sorted(CAMPAIGNS))
def test_traced_run_counts_match_returned_maps(tmp_path, monkeypatch, kind):
    maps = _record(monkeypatch, "faultlab.macfault.array", "seed_fault_map")
    masks = _record(monkeypatch, "faultlab.macfault.array", "deactivate")
    cfg, errors = validate({
        "experiment": kind,
        "seed": 3,
        "model": {"layers": [64, 16, 10]},
        "dataset": {"train": 200, "test": 200, "size": 8},
        "train": {"epochs": 1},
        "campaign": CAMPAIGNS[kind],
        "report": {"svg": False},
    })
    assert not errors
    tracer = spans.Tracer()
    with spans.traced(tracer):
        run(cfg, output_override=tmp_path / "out")

    assert maps and all(len(m) for m in maps)
    assert _count(tracer, "macfault.array.seed_fault_map", "faulty_pes") == sum(
        len(m) for m in maps)
    assert _count(tracer, "macfault.array.deactivate", "pes_disabled") == sum(
        int(mask.size - mask.sum()) for mask in masks)
    assert len(masks) == {"mac-sweep": 0, "deactivate": 2, "fault-train": 1}[kind]
    assert _count(tracer, "macfault.array.faulty_matmul.L0", "corrupted_products") > 0
    # the sweep runs the array once per map; an FSR campaign builds each run's
    # FSR and runs the array twice per run, around deactivation or retraining
    calls = {name: sum(s.name == f"macfault.{name}" for s in tracer.spans)
             for name in ("array.run_array", "array.build_fsr",
                          "training.fault_aware_train")}
    runs = len(maps)
    assert calls == {
        "mac-sweep": {"array.run_array": runs, "array.build_fsr": 0,
                      "training.fault_aware_train": 0},
        "deactivate": {"array.run_array": 2 * runs, "array.build_fsr": runs,
                       "training.fault_aware_train": 0},
        "fault-train": {"array.run_array": 2 * runs, "array.build_fsr": runs,
                        "training.fault_aware_train": runs},
    }[kind]


def _traced_run(tmp_path, doc):
    cfg, errors = validate({"seed": 3, "report": {"svg": False}, **doc})
    assert not errors
    tracer = spans.Tracer()
    with spans.traced(tracer):
        run(cfg, output_override=tmp_path / "out")
    return tracer


def test_traced_neuro_map_counts_one_fitness_call_per_particle(tmp_path):
    pso = {"particles": 4, "iterations": 3}
    tracer = _traced_run(tmp_path, {
        "experiment": "neuro-map",
        "workload": {"neurons": 24, "synapses": 120},
        "campaign": {"capacity": 6, "comm_weight": 0.5, "baseline_seeds": 2, **pso},
    })
    assert _count(tracer, "neurorel.pso.pso_assign", "fitness_evals") == (
        pso["particles"] * (pso["iterations"] + 1))
    assert _count(tracer, "neurorel.mapping.random_baseline_fitness",
                  "fitness_evals") == 2


_DRAM = {"model": {"layers": [64, 16, 10]}, "dataset": {"train": 200, "test": 200, "size": 8},
         "train": {"epochs": 1}}


def _forward_samples(tracer) -> list:
    """The samples of each traced ``quant_forward`` call, in call order."""
    return [s.counts["samples"] for s in tracer.spans
            if s.name == "netcore.inference.quant_forward"]


def test_traced_dram_column_makes_one_forward_per_trial(tmp_path):
    camp = {"faults_per_column": 3, "runs": 2, "grid_width": 12, "eval_samples": 100}
    tracer = _traced_run(tmp_path, {"experiment": "dram-column", "campaign": camp, **_DRAM})
    forwards = camp["runs"] * camp["grid_width"] + 1  # trials plus the baseline
    assert _forward_samples(tracer) == [camp["eval_samples"]] * forwards


def test_traced_dram_bitpos_makes_one_forward_per_trial(tmp_path):
    camp = {"counts": [3, 5], "bit_positions": [7, 6], "runs": 2, "eval_samples": 100}
    tracer = _traced_run(tmp_path, {"experiment": "dram-bitpos", "campaign": camp, **_DRAM})
    # trials plus the baseline, each over the whole evaluation set
    forwards = 1 + len(camp["counts"]) * len(camp["bit_positions"]) * camp["runs"]
    assert _forward_samples(tracer) == [camp["eval_samples"]] * forwards
