"""Frozen FSR campaign loops: the deactivation and fault-aware retraining runs.

These are the runner's run functions from before the two campaigns became
``macfault`` library calls, kept as the reference those calls must
reproduce: the same rows, fault maps and FSRs for every section. The only
changes are explicit arguments in place of the run context: the model, test
set, training set, campaign section and run seeds are passed in, and the
rows and (fault map, FSR) pairs are returned in place of written.
"""

from __future__ import annotations

from faultlab import macfault
from faultlab.netcore import evaluate


def _array(camp) -> macfault.ArrayConfig:
    return macfault.ArrayConfig(n_row=camp["n_row"], n_col=camp["n_col"],
                                fmt=camp["fmt"])


def _faulty_arrays(model, test, camp, run_seeds):
    """Set-up shared by deactivate and fault-train: (accuracy, fault-free
    accuracy, manifest entries, trials). ``accuracy(model, state, seed)`` runs
    the array on the evaluation subset; each trial, made when drawn, is a run
    seed, an array state seeded from it, and the state's FSR."""
    cfg = _array(camp)
    # fault-aware training seeds no critical faults
    mix = macfault.SignatureMix(critical_fraction=camp.get("critical_fraction", 0.0),
                                lsb_bits=camp["lsb_bits"],
                                carry_fraction=camp["carry_fraction"])
    data = test.subset(camp["eval_samples"])
    baseline = evaluate(model, data, camp["fmt"])
    seeds = {f"run{k}": seed for k, seed in enumerate(run_seeds)}

    def accuracy(model, state, seed):
        return macfault.run_array(model, state, data, mode="sim", seed=seed)

    def trials():
        for seed in seeds.values():
            faults = macfault.seed_fault_map(cfg, camp["fr"], mix, seed=seed)
            yield (seed, macfault.ArrayState(config=cfg, faults=faults),
                   macfault.build_fsr(faults, camp["fmt"], camp["fr_max_non_crit"]))

    manifest = {"derived_seeds": seeds, "baseline_accuracy": baseline}
    return accuracy, baseline, manifest, trials()


def deactivate(model, test, camp, run_seeds):
    """(manifest entries, rows, [(fault map, FSR) per run])."""
    accuracy, baseline, manifest, trials = _faulty_arrays(model, test, camp, run_seeds)
    rows, maps = [], []
    for seed, state, fsr in trials:
        acc_faulty = accuracy(model, state, seed)
        state.active = macfault.deactivate(state, fsr)
        acc_after = accuracy(model, state, seed)
        maps.append((state.faults, fsr))
        rows.append((seed, "faulty", acc_faulty, (baseline - acc_faulty) * 100,
                     state.active.size, len(state.faults)))
        live = state.active[state.faults.rows, state.faults.cols]
        rows.append((seed, "deactivated", acc_after, (baseline - acc_after) * 100,
                     int(state.active.sum()), int(live.sum())))
    return manifest, rows, maps


def fault_train(model, test, train, camp, run_seeds):
    """(manifest entries, rows)."""
    accuracy, baseline, manifest, trials = _faulty_arrays(model, test, camp, run_seeds)
    rows = []
    for seed, state, fsr in trials:
        state.active = macfault.deactivate(state, fsr)
        acc_before = accuracy(model, state, seed)
        retrained = macfault.fault_aware_train(
            model, state, train, epochs=camp["retrain_epochs"],
            lr=camp["retrain_lr"], seed=seed,
        )
        acc_after = accuracy(retrained, state, seed)
        # a model that scores nothing fault-free loses no defined share
        loss_before, loss_after = (
            (baseline - acc) / baseline if baseline else float("nan")
            for acc in (acc_before, acc_after))
        reduction = ((loss_before - loss_after) / loss_before
                     if loss_before > 0 else float("nan"))
        rows.append((seed, baseline, acc_before, acc_after, loss_before,
                     loss_after, reduction))
    return manifest, rows
