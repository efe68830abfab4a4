"""Experiment runner: dispatches configs, writes CSVs, records a manifest.

Every stochastic choice derives from the master seed through stable
hashing, so re-running an identical config reproduces identical CSV
payloads byte for byte. On failure all partial outputs are removed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

from .. import __version__
from .. import dramfault
from ..macfault import (
    ArrayConfig,
    ArrayState,
    SignatureMix,
    build_fsr,
    deactivate,
    fault_aware_train,
    lsb_sensitivity_sweep,
    run_array,
    save_fault_map,
    seed_fault_map,
)
from ..netcore import (
    evaluate,
    init_lenet5,
    init_mlp,
    load_idx,
    load_model,
    save_model,
    synthetic_blobs,
    train_sgd,
)
from ..neurorel import (
    BtiParams,
    CrossbarConfig,
    PsoConfig,
    TddbParams,
    TileSpec,
    build_endurance_map,
    load_workload,
    map_workload,
    random_baseline_fitness,
    random_workload,
    save_workload,
)
from ..neurorel.mapping import (
    cluster_loads,
    mapping_fitness,
    owned_synapses,
)
from . import svgplot
from .config import render
from .report import SCHEMAS

DEFAULT_OUTPUT_ROOT = "faultlab-out"
OUTPUT_ENV = "FAULTLAB_OUT"


def derive_seed(master: int, kind: str, tag) -> int:
    digest = hashlib.sha256(f"{master}:{kind}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


def _fmt_value(v):
    if isinstance(v, float):
        if v != v:  # NaN
            return ""
        return f"{v:.10g}"
    if v is None:
        return ""
    return str(v)


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_value(v) for v in row])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _build_datasets(config):
    """(train, test); train is None when the run neither trains nor retrains."""
    ds = config["dataset"]
    needs_train = (config["experiment"] in ("train", "fault-train")
                   or not config["model"]["checkpoint"])
    if ds["kind"] == "idx":
        train = (load_idx(ds["train_images"], ds["train_labels"])
                 if needs_train else None)
        test = load_idx(ds["test_images"], ds["test_labels"])
        return train, test
    kwargs = dict(classes=ds["classes"], size=ds["size"], **ds["params"])
    train = (synthetic_blobs(ds["train"], seed=ds["seed"], **kwargs)
             if needs_train else None)
    test = synthetic_blobs(ds["test"], seed=ds["test_seed"], **kwargs)
    return train, test


def _build_model(config, train, test):
    mc = config["model"]
    if mc["checkpoint"]:
        return load_model(mc["checkpoint"]), []
    seed = derive_seed(config["seed"], config["experiment"], "init")
    train_seed = derive_seed(config["seed"], config["experiment"], "train")
    if mc["kind"] == "lenet5":
        model = init_lenet5(train.images.shape[1], seed=seed)
    else:
        model = init_mlp(tuple(mc["layers"]), seed=seed)
    tc = config["train"]
    model, history = train_sgd(model, train, epochs=tc["epochs"], lr=tc["lr"],
                               seed=train_seed, batch_size=tc["batch"], test=test)
    return model, history


def run(config: dict, output_override=None) -> dict:
    """Execute a validated config; returns the manifest dict."""
    kind = config["experiment"]
    out_dir = Path(
        output_override
        or config.get("output_dir")
        or os.environ.get(OUTPUT_ENV, DEFAULT_OUTPUT_ROOT)
    )
    created_dir = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []
    t0 = time.time()
    try:
        runner = _RUNNERS[kind]
        extra = runner(config, out_dir, files)
    except Exception:
        for path in files:
            path.unlink(missing_ok=True)
        if created_dir and not any(out_dir.iterdir()):
            out_dir.rmdir()
        raise
    manifest = {
        "tool": "faultlab",
        "version": __version__,
        "experiment": kind,
        "master_seed": config["seed"],
        "config_hash": hashlib.sha256(render(config).encode()).hexdigest(),
        "outputs": {
            p.name: (_sha256(p) if p.suffix == ".csv" else None) for p in files
        },
        "wall_clock_s": round(time.time() - t0, 3),
        **extra,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _emit(path: Path, files: list, header, rows):
    _write_csv(path, header, rows)
    files.append(path)


def _save_svg(path: Path, files: list, text: str):
    path.write_text(text)
    files.append(path)


def _run_train(config, out_dir, files):
    train, test = _build_datasets(config)
    model, history = _build_model(config, train, test)
    _emit(out_dir / "history.csv", files, SCHEMAS["history"],
          [(k + 1, acc) for k, acc in enumerate(history)])
    ckpt = out_dir / "model.npz"
    save_model(model, ckpt)
    files.append(ckpt)
    final = evaluate(model, test, "float")
    int8 = evaluate(model, test, "int8")
    _emit(out_dir / "summary.csv", files, SCHEMAS["metrics"],
          [("float_accuracy", final), ("int8_accuracy", int8)])
    return {"derived_seeds": {
        "init": derive_seed(config["seed"], "train", "init"),
        "train": derive_seed(config["seed"], "train", "train"),
    }}


def _campaign_rows_to_csv(rows):
    return [
        (r.campaign, r.bit_pos, r.column, r.fault_count, r.run_seed, r.accuracy,
         r.drop_pp)
        for r in rows
    ]


def _run_dram_bitpos(config, out_dir, files):
    train, test = _build_datasets(config)
    model, _ = _build_model(config, train, test)
    camp = config["campaign"]
    seed = derive_seed(config["seed"], "dram-bitpos", "campaign")
    rows, table = dramfault.bitpos_campaign(
        model, test, counts=camp["counts"], bit_positions=tuple(camp["bit_positions"]),
        runs=camp["runs"], seed=seed, eval_samples=camp["eval_samples"],
    )
    _emit(out_dir / "bitpos.csv", files, SCHEMAS["dram"], _campaign_rows_to_csv(rows))
    if config["report"]["svg"]:
        series = {
            f"bit {bit}": [(count, table[(bit, count)]) for count in camp["counts"]]
            for bit in camp["bit_positions"]
        }
        _save_svg(out_dir / "bitpos.svg", files, svgplot.line_chart(
            series, "Accuracy drop vs fault count", "faults per layer",
            "mean drop (pp)"))
    return {"derived_seeds": {"campaign": seed}}


def _run_dram_column(config, out_dir, files):
    train, test = _build_datasets(config)
    model, _ = _build_model(config, train, test)
    camp = config["campaign"]
    seed = derive_seed(config["seed"], "dram-column", "campaign")
    rows, mean_drops, _ = dramfault.column_campaign(
        model, test, faults_per_column=camp["faults_per_column"],
        bit_pos=camp["bit_pos"], runs=camp["runs"], seed=seed,
        grid_width=camp["grid_width"], eval_samples=camp["eval_samples"],
        track_recall=camp["track_recall"],
    )
    _emit(out_dir / "column.csv", files, SCHEMAS["dram"], _campaign_rows_to_csv(rows))
    if config["report"]["svg"]:
        series = {"mean drop": sorted(mean_drops.items())}
        _save_svg(out_dir / "column.svg", files, svgplot.line_chart(
            series, "Accuracy drop vs weight-matrix column", "column",
            "mean drop (pp)"))
    return {"derived_seeds": {"campaign": seed}}


def _run_mac_sweep(config, out_dir, files):
    train, test = _build_datasets(config)
    model, _ = _build_model(config, train, test)
    camp = config["campaign"]
    seed = derive_seed(config["seed"], "mac-sweep", "campaign")
    cfg = ArrayConfig(n_row=camp["n_row"], n_col=camp["n_col"], fmt=camp["fmt"])
    rows, table = lsb_sensitivity_sweep(
        model, test, k_values=camp["k_values"], fr_grid=camp["fr_grid"],
        runs=camp["runs"], config=cfg, seed=seed, mode=camp["mode"],
        carry_fraction=camp["carry_fraction"], stuck_one_bias=camp["stuck_one_bias"],
        eval_samples=camp["eval_samples"],
    )
    _emit(out_dir / "sweep.csv", files, SCHEMAS["sweep"],
          [(r.fmt, r.k, r.fr, r.seed, r.accuracy, r.drop_pp) for r in rows])
    if config["report"]["svg"]:
        series = {
            f"K={k}": [(fr, table[(k, fr)]) for fr in camp["fr_grid"]]
            for k in camp["k_values"]
        }
        _save_svg(out_dir / "sweep.svg", files, svgplot.line_chart(
            series, f"Accuracy drop vs fault rate ({camp['fmt']})",
            "fault rate (%)", "mean drop (pp)"))
    return {"derived_seeds": {"campaign": seed}}


def _run_deactivate(config, out_dir, files):
    train, test = _build_datasets(config)
    model, _ = _build_model(config, train, test)
    camp = config["campaign"]
    cfg = ArrayConfig(n_row=camp["n_row"], n_col=camp["n_col"], fmt=camp["fmt"])
    mix = SignatureMix(critical_fraction=camp["critical_fraction"],
                       lsb_bits=camp["lsb_bits"],
                       carry_fraction=camp["carry_fraction"])
    data = test.subset(camp["eval_samples"])
    baseline = evaluate(model, data, camp["fmt"])
    rows, seeds = [], {}
    for k in range(camp["runs"]):
        run_seed = derive_seed(config["seed"], "deactivate", k)
        seeds[f"run{k}"] = run_seed
        faults = seed_fault_map(cfg, camp["fr"], mix, seed=run_seed)
        state = ArrayState(config=cfg, faults=faults)
        fsr = build_fsr(faults, camp["fmt"], camp["fr_max_non_crit"])
        acc_faulty = run_array(model, state, data, mode="sim", seed=run_seed)
        state.active = deactivate(state, fsr)
        acc_after = run_array(model, state, data, mode="sim", seed=run_seed)
        map_path = out_dir / f"faultmap_run{k}.yaml"
        save_fault_map(map_path, cfg, faults, fsr=fsr, seed=run_seed)
        files.append(map_path)
        live = state.active_faulty()
        rows.append((run_seed, "faulty", acc_faulty, (baseline - acc_faulty) * 100,
                     int(np.prod(state.active.shape)), len(faults)))
        rows.append((run_seed, "deactivated", acc_after,
                     (baseline - acc_after) * 100, int(state.active.sum()),
                     len(live)))
    _emit(out_dir / "deactivate.csv", files, SCHEMAS["deactivate"], rows)
    return {"derived_seeds": seeds, "baseline_accuracy": baseline}


def _run_fault_train(config, out_dir, files):
    train, test = _build_datasets(config)
    model, _ = _build_model(config, train, test)
    camp = config["campaign"]
    cfg = ArrayConfig(n_row=camp["n_row"], n_col=camp["n_col"], fmt=camp["fmt"])
    mix = SignatureMix(critical_fraction=0.0, lsb_bits=camp["lsb_bits"],
                       carry_fraction=camp["carry_fraction"])
    data = test.subset(camp["eval_samples"])
    baseline = evaluate(model, data, camp["fmt"])
    rows, seeds = [], {}
    for k in range(camp["seeds"]):
        run_seed = derive_seed(config["seed"], "fault-train", k)
        seeds[f"run{k}"] = run_seed
        faults = seed_fault_map(cfg, camp["fr"], mix, seed=run_seed)
        state = ArrayState(config=cfg, faults=faults)
        state.active = deactivate(
            state, build_fsr(faults, camp["fmt"], camp["fr_max_non_crit"])
        )
        acc_before = run_array(model, state, data, mode="sim", seed=run_seed)
        retrained, _ = fault_aware_train(
            model, state, train, epochs=camp["retrain_epochs"],
            lr=camp["retrain_lr"], seed=run_seed,
        )
        acc_after = run_array(retrained, state, data, mode="sim", seed=run_seed)
        loss_before = (baseline - acc_before) / baseline
        loss_after = (baseline - acc_after) / baseline
        reduction = ((loss_before - loss_after) / loss_before
                     if loss_before > 0 else float("nan"))
        rows.append((run_seed, baseline, acc_before, acc_after, loss_before,
                     loss_after, reduction))
    _emit(out_dir / "fault_train.csv", files, SCHEMAS["fault_train"], rows)
    return {"derived_seeds": seeds, "baseline_accuracy": baseline}


def _run_endurance_map(config, out_dir, files):
    camp = config["campaign"]
    cfg = CrossbarConfig(n=camp["n"], r_seg=camp["r_seg"],
                         access_device=camp["access_device"], t_amb=camp["t_amb"])
    emap = build_endurance_map(cfg)
    rows = []
    for i in range(cfg.n):
        for j in range(cfg.n):
            rows.append((i, j, i + j, float(emap.temperature[i, j]),
                         float(emap.endurance[i, j])))
    _emit(out_dir / "endurance.csv", files, SCHEMAS["endurance"], rows)
    if config["report"]["svg"]:
        _save_svg(out_dir / "endurance.svg", files, svgplot.heatmap(
            emap.endurance.tolist(),
            f"Endurance map ({cfg.n}x{cfg.n}, log10 cycles)", log_scale=True))
        _save_svg(out_dir / "temperature.svg", files, svgplot.heatmap(
            emap.temperature.tolist(),
            f"Self-heating temperature ({cfg.n}x{cfg.n}, K)", log_scale=False))
    return {
        "corner_hot_endurance": float(emap.endurance[0, 0]),
        "corner_cold_endurance": float(emap.endurance[-1, -1]),
    }


def _run_neuro_map(config, out_dir, files):
    camp = config["campaign"]
    wl = config["workload"]
    if wl["path"]:
        graph = load_workload(wl["path"])
    else:
        graph = random_workload(wl["neurons"], wl["synapses"], seed=wl["seed"],
                                max_activation=wl["max_activation"])
        wl_path = out_dir / "workload.yaml"
        save_workload(wl_path, graph)
        files.append(wl_path)
    tiles = [TileSpec(voltage=t["voltage"], temperature=t.get("temperature", 298.0))
             for t in camp["tiles"]]
    emap = build_endurance_map(CrossbarConfig(n=camp["crossbar_n"]))
    seed = derive_seed(config["seed"], "neuro-map", "pso")
    tddb, bti = TddbParams(), BtiParams()
    mapping = map_workload(
        graph, tiles, capacity=camp["capacity"], endurance_map=emap,
        tddb=tddb, bti=bti,
        pso_config=PsoConfig(particles=camp["particles"],
                             iterations=camp["iterations"]),
        seed=seed, comm_weight=camp["comm_weight"],
    )
    rows = []
    for ci, placement in enumerate(mapping.placements):
        tile = int(mapping.assignment[ci])
        for syn_idx, (r, c) in sorted(placement.items()):
            endurance = float(emap.endurance[r, c])
            act = graph.synapses[syn_idx].activation
            life = endurance / act if act > 0 else float("nan")
            rows.append((ci, tile, syn_idx, r, c, endurance, life))
    _emit(out_dir / "mapping.csv", files, SCHEMAS["mapping"], rows)
    owned = owned_synapses(graph, mapping.clusters)
    loads = cluster_loads(graph, owned)
    fitness = mapping_fitness(graph, mapping.clusters, owned, loads, tiles,
                              tddb, bti, camp["comm_weight"])
    baseline = random_baseline_fitness(
        len(mapping.clusters), len(tiles), fitness,
        seeds=[derive_seed(config["seed"], "neuro-map", f"baseline{k}")
               for k in range(camp["baseline_seeds"])],
    )
    _emit(out_dir / "summary.csv", files, SCHEMAS["metrics"], [
        ("clusters", len(mapping.clusters)),
        ("min_lifetime_windows", mapping.lifetime),
        ("aging_fitness", mapping.fitness),
        ("random_baseline_fitness", baseline),
        ("cut_cost", mapping.cut),
    ])
    return {"derived_seeds": {"pso": seed}, "aging_fitness": mapping.fitness,
            "random_baseline_fitness": baseline}


_RUNNERS = {
    "train": _run_train,
    "dram-bitpos": _run_dram_bitpos,
    "dram-column": _run_dram_column,
    "mac-sweep": _run_mac_sweep,
    "deactivate": _run_deactivate,
    "fault-train": _run_fault_train,
    "endurance-map": _run_endurance_map,
    "neuro-map": _run_neuro_map,
}
