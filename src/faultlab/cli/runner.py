"""Experiment runner: the experiment table, and runs that write CSVs and a manifest.

``KINDS`` holds one ``Experiment`` record per kind: its campaign fields with
their defaults and rules, the optional sections it reads, a check across
fields, and its run function. ``config.validate`` reads the kinds and sections
from it; ``run`` builds their set-up into a ``RunContext`` and calls the run
function, which writes each CSV and its chart through ``RunContext.emit``
under a schema of ``report.SCHEMAS``. Adding a kind means adding one record.
``network_errors`` is the one rule between a network, its data and its
campaign: ``validate`` applies it to the facts a config fixes, and ``run`` to
the model and datasets it loads, so a field bounded by an IDX test set's size
or a checkpoint's weights fails in the run in ``validate``'s words.

Each campaign kind's run function makes one ``dramfault`` or ``macfault``
campaign call, whose keyword arguments are its section's fields, and writes
what it returns. Run functions look library functions up at call time, so a
tracer or test double that rebinds them sees the calls. Seeds derive from the
master seed by stable hashing, so an identical config reproduces identical
CSVs. A failed run removes its outputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .. import __version__, dramfault, macfault, neurorel
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
from ..netcore.network import fit_error, lenet5_stages, mlp_stages, weight_shapes
from ..seeds import derive_seed
from ..yamlio import (
    FRACTION,
    PERCENT,
    POSITIVE,
    integer,
    list_of,
    number,
    one_of,
    optional,
    render,
)
from .report import SCHEMAS

DEFAULT_OUTPUT_ROOT = "faultlab-out"
OUTPUT_ENV = "FAULTLAB_OUT"


def _fmt_value(v):
    if isinstance(v, float):
        if v != v:  # NaN
            return ""
        return f"{v:.10g}"
    if v is None:
        return ""
    return str(v)


@dataclass(frozen=True)
class Experiment:
    run: Callable  # (RunContext) -> extra manifest entries
    campaign: dict  # field -> (default, rule); a rule of None is checked elsewhere
    # the optional sections its run reads; model, dataset and train go together
    sections: tuple = ("model", "dataset", "train")
    needs_train: bool = False  # build the training set even from a checkpoint
    history: bool = False  # score the test set after each epoch of training
    check: Callable | None = None  # (valid campaign) -> errors relating its fields


@dataclass
class RunContext:
    """The shared set-up ``run`` builds for a run function."""

    config: dict
    out_dir: Path
    files: list  # outputs written so far, removed if the run fails
    model: object = None
    history: list = field(default_factory=list)  # per-epoch test accuracy
    train: object = None  # None when the run neither trains nor retrains
    test: object = None

    @property
    def camp(self) -> dict:
        return self.config["campaign"]

    def seed(self, tag) -> int:
        return derive_seed(self.config["seed"], self.config["experiment"], tag)

    def keep(self, name: str) -> Path:
        """The path of output ``name``, recorded before it is written."""
        self.files.append(self.out_dir / name)
        return self.files[-1]

    def emit(self, stem: str, schema: str, rows):
        """Write ``stem.csv`` and, with charts on, the schema's chart of it."""
        rows = [[_fmt_value(v) for v in row] for row in rows]
        with self.keep(f"{stem}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SCHEMAS[schema].header)
            writer.writerows(rows)
        if self.config["report"]["svg"] and SCHEMAS[schema].chart:
            for name, svg in SCHEMAS[schema].chart(stem, rows).items():
                self.keep(f"{name}.svg").write_text(svg)


def _build_datasets(config, needs_train: bool):
    """(train, test); train is None when the run neither trains nor retrains."""
    ds = config["dataset"]

    def load(split, seed):
        if ds["kind"] == "idx":
            return load_idx(ds[f"{split}_images"], ds[f"{split}_labels"])
        return synthetic_blobs(ds[split], seed=ds[seed], classes=ds["classes"],
                               size=ds["size"], **ds["params"])

    train = (load("train", "seed") if needs_train or not config["model"]["checkpoint"]
             else None)
    return train, load("test", "test_seed")


def build_network(model: dict, input_hw: int, seed: int = 0):
    """The fresh network of a ``model`` section; a LeNet-5 takes input_hw x
    input_hw images, and an MLP ignores input_hw."""
    if model["kind"] == "lenet5":
        return init_lenet5(input_hw, seed=seed)
    return init_mlp(model["layers"], seed=seed)


def network_shapes(model: dict, input_hw: int):
    """(input_hw, weight shapes) of the network ``build_network`` builds, from
    its stage list, drawing no weight; input_hw is None for an MLP. A LeNet-5
    whose stages do not chain raises ValueError."""
    if model["kind"] == "lenet5":
        return input_hw, weight_shapes(lenet5_stages(input_hw))
    return None, weight_shapes(mlp_stages(model["layers"]))


def network_errors(camp: dict, side, shapes, splits, test):
    """(fit reasons, campaign-field errors) of the one rule between a network
    and its data: a network built for ``side`` (its ``input_hw``) with weights
    of ``shapes`` must take each of ``splits``, (name, image shape, top label),
    and a column campaign needs its 10 outputs; the evaluation subset of
    campaign ``camp`` must fit the ``test`` samples of the test set, and its
    DRAM faults the weights. A fact not known is None, a campaign not valid is
    {}, and each rule runs only on the facts it reads."""
    fits = ([r for split in splits if (r := fit_error(side, shapes, *split))]
            if shapes and splits else [])
    errors = []
    if test is not None and (n := camp.get("eval_samples") or 0) > test:
        errors.append(f"campaign.eval_samples: {n} is above the {test} samples of "
                      "dataset.test")
    if shapes:
        cells, rows = min(r * c for r, c in shapes), shapes[-1][0]
        if max(camp.get("counts", [0])) > cells:
            errors.append(f"campaign.counts: more faults than the {cells} weights of "
                          "the smallest layer")
        if camp.get("faults_per_column", 0) > rows:
            errors.append(f"campaign.faults_per_column: more faults than the {rows} "
                          "weights of an output column")
        if "grid_width" in camp and shapes[-1][1] != 10:
            fits.append("the column campaign needs 10 outputs")
    return fits, errors


def _build_model(ctx: RunContext):
    """(model, per-epoch history): loaded from its checkpoint, or trained; a
    kind without ``history`` trains unscored. The network must take the data
    and fit the campaign, by ``network_errors`` on what only the run knows."""
    mc = ctx.config["model"]
    model = (load_model(mc["checkpoint"]) if mc["checkpoint"] else
             build_network(mc, ctx.train.images.shape[1], seed=ctx.seed("init")))
    splits = [(split, data.images.shape[1:], int(data.labels.max(initial=-1)))
              for split, data in (("training", ctx.train), ("test", ctx.test))
              if data is not None]
    fits, errors = network_errors(ctx.camp, model.input_hw,
                                  [w.shape for w in model.weights], splits, len(ctx.test))
    if fits or errors:
        raise ValueError(fits[0] if fits else "; ".join(errors))
    if mc["checkpoint"]:
        return model, []
    tc = ctx.config["train"]
    scored = KINDS[ctx.config["experiment"]].history
    return train_sgd(model, ctx.train, epochs=tc["epochs"], lr=tc["lr"],
                     seed=ctx.seed("train"), batch_size=tc["batch"],
                     test=ctx.test if scored else None)


def run(config: dict, output_override=None) -> dict:
    """Execute a validated config; returns the manifest dict."""
    kind = config["experiment"]
    experiment = KINDS[kind]
    out_dir = Path(
        output_override
        or config.get("output_dir")
        or os.environ.get(OUTPUT_ENV, DEFAULT_OUTPUT_ROOT)
    )
    created_dir = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(config, out_dir, files=[])
    t0 = time.time()
    try:
        if "model" in experiment.sections:
            ctx.train, ctx.test = _build_datasets(config, experiment.needs_train)
            ctx.model, ctx.history = _build_model(ctx)
        extra = experiment.run(ctx)
    except Exception:
        for path in ctx.files:
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
            p.name: (hashlib.sha256(p.read_bytes()).hexdigest()
                     if p.suffix == ".csv" else None)
            for p in ctx.files
        },
        "wall_clock_s": round(time.time() - t0, 3),
        **extra,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _train(ctx):
    ctx.emit("history", "history", [(k + 1, acc) for k, acc in enumerate(ctx.history)])
    save_model(ctx.model, ctx.keep("model.npz"))
    ctx.emit("summary", "metrics", [
        (f"{mode}_accuracy", evaluate(ctx.model, ctx.test, mode))
        for mode in ("float", "int8")])
    return {"derived_seeds": {"init": ctx.seed("init"), "train": ctx.seed("train")}}


def _campaign(stem: str, schema: str, rows_of):
    """Run function of a campaign that one library call makes: ``rows_of(ctx,
    seed)`` returns its rows, tuples in the schema's column order."""
    def run_campaign(ctx):
        seed = ctx.seed("campaign")
        ctx.emit(stem, schema, rows_of(ctx, seed))
        return {"derived_seeds": {"campaign": seed}}
    return run_campaign


def _crossbar_errors(crossbar: neurorel.CrossbarConfig, field: str) -> list:
    """The endurance model must calibrate its corner endurances on the crossbar."""
    try:
        neurorel.default_endurance_params(crossbar)
    except OverflowError:
        return [f"campaign.{field}: {crossbar.n} rows at r_seg {crossbar.r_seg} heat "
                "the corners too alike to calibrate the endurance model"]
    return []


def _neuro_map_errors(camp) -> list:
    """The endurance model must calibrate on the crossbar, and each tile's aging
    lifetime, which the fitness divides by, must compute to a positive float:
    a large voltage underflows it, a tiny one or a low temperature overflows."""
    errors = _crossbar_errors(neurorel.CrossbarConfig(n=camp["crossbar_n"]), "crossbar_n")
    for k, tile in enumerate(neurorel.TileSpec(**t) for t in camp["tiles"]):
        with contextlib.suppress(ArithmeticError):
            if tile.lifetime() > 0:
                continue
        errors.append(f"campaign.tiles[{k}]: the aging lifetime at {tile.voltage:g} V "
                      f"and {tile.temperature:g} K is not a positive float")
    return errors


def _all_faulty_errors(camp) -> list:
    """An ``fr`` that makes every PE faulty leaves deactivation no PE to keep
    under an ``fr_max_non_crit`` below 1."""
    fr, n_row, cap = (camp[k] for k in ("fr", "n_row", "fr_max_non_crit"))
    if cap == 1 or macfault.per_column_fault_count(fr, n_row) < n_row:
        return []
    return [f"campaign.fr: {fr:g} faults every PE of a {n_row}-row array, and "
            f"deactivation under campaign.fr_max_non_crit {cap:g} would disable them all"]


def _fsr_campaign(ctx, count: str, campaign, **data):
    """(manifest entries, seeds, result) of an FSR campaign call on the run seeds
    named run0, run1, ..., as many as the campaign field ``count`` asks for. A
    deactivation that leaves no PE active fails naming the fields behind it:
    ``validate`` rejects an all-faulty ``fr`` under a cap below 1, so every PE
    is faulty and critical, by a critical draw or a stuck bit above the
    tolerated LSBs."""
    camp = dict(ctx.camp)
    seeds = {f"run{k}": ctx.seed(k) for k in range(camp.pop(count))}
    try:
        result = campaign(ctx.model, ctx.test, seeds=list(seeds.values()), **data, **camp)
    except macfault.DeactivationInfeasible as err:
        above = camp["lsb_bits"] - macfault.NON_CRITICAL_LSBS[camp["fmt"]]
        fields = [k for k, v in (("critical_fraction", camp.get("critical_fraction", 0)),
                                 ("lsb_bits", above)) if v > 0]
        raise ValueError(f"{err}: lower campaign.fr or campaign."
                         + " or campaign.".join(fields)) from None
    return {"derived_seeds": seeds, "baseline_accuracy": result[0]}, seeds, result


def _deactivate(ctx):
    manifest, seeds, (_, rows, maps) = _fsr_campaign(
        ctx, "runs", macfault.deactivation_campaign)
    config = macfault.ArrayConfig(ctx.camp["n_row"], ctx.camp["n_col"], ctx.camp["fmt"])
    for k, (seed, (faults, fsr)) in enumerate(zip(seeds.values(), maps)):
        macfault.save_fault_map(ctx.keep(f"faultmap_run{k}.yaml"), config, faults,
                                fsr=fsr, seed=seed)
    ctx.emit("deactivate", "deactivate", rows)
    return manifest


def _fault_train(ctx):
    manifest, _, (_, rows) = _fsr_campaign(ctx, "seeds", macfault.retrain_campaign,
                                           train=ctx.train)
    ctx.emit("fault_train", "fault_train", rows)
    return manifest


def _endurance_map(ctx):
    emap = neurorel.build_endurance_map(neurorel.CrossbarConfig(**ctx.camp))
    n = ctx.camp["n"]
    ctx.emit("endurance", "endurance", [
        (i, j, i + j, float(emap.temperature[i, j]), float(emap.endurance[i, j]))
        for i in range(n) for j in range(n)])
    return {
        "corner_hot_endurance": float(emap.endurance[0, 0]),
        "corner_cold_endurance": float(emap.endurance[-1, -1]),
    }


def _neuro_map(ctx):
    camp, wl = ctx.camp, ctx.config["workload"]
    if wl["path"]:
        graph = neurorel.load_workload(wl["path"])
    else:
        graph = neurorel.random_workload(wl["neurons"], wl["synapses"],
                                         seed=wl["seed"],
                                         max_activation=wl["max_activation"])
        neurorel.save_workload(ctx.keep("workload.yaml"), graph)
    tiles = [neurorel.TileSpec(**t) for t in camp["tiles"]]
    emap = neurorel.build_endurance_map(neurorel.CrossbarConfig(n=camp["crossbar_n"]))
    seed = ctx.seed("pso")
    try:
        mapping = neurorel.map_workload(
            graph, tiles, capacity=camp["capacity"], endurance_map=emap, seed=seed,
            pso_config=neurorel.PsoConfig(camp["particles"], camp["iterations"]),
            comm_weight=camp["comm_weight"])
    except neurorel.CrossbarOverflow as err:
        raise ValueError(f"{err}: raise campaign.crossbar_n or lower "
                         "campaign.capacity") from None
    order = np.argsort(mapping.owner, kind="stable")  # rows by cluster, then synapse
    owner, (rows, cols) = mapping.owner[order], mapping.cells[order].T
    endurance, act = emap.endurance[rows, cols], graph.activation[order]
    life = np.divide(endurance, act, out=np.full(len(act), np.nan), where=act > 0)
    ctx.emit("mapping", "mapping", zip(
        owner.tolist(), mapping.assignment[owner].tolist(), order.tolist(), rows.tolist(),
        cols.tolist(), endurance.tolist(), life.tolist()))
    baseline = neurorel.random_baseline_fitness(
        len(mapping.clusters), len(tiles), mapping.fitness_fn,
        seeds=[ctx.seed(f"baseline{k}") for k in range(camp["baseline_seeds"])],
    )
    ctx.emit("summary", "metrics", [
        ("clusters", len(mapping.clusters)),
        ("min_lifetime_windows", mapping.lifetime),
        ("aging_fitness", mapping.fitness),
        ("random_baseline_fitness", baseline),
        ("cut_cost", mapping.cut),
    ])
    return {"derived_seeds": {"pso": seed}, "aging_fitness": mapping.fitness,
            "random_baseline_fitness": baseline}


_ARRAY = {"fmt": ("int8", one_of("int8", "bfloat16")), "n_row": (128, integer(1)),
          "n_col": (128, integer(1)), "eval_samples": (None, optional(integer(1)))}

KINDS = {
    "train": Experiment(_train, {}, history=True),
    # a campaign section is its call's keyword arguments, less an FSR kind's seed count
    "dram-bitpos": Experiment(_campaign("bitpos", "dram", lambda ctx, seed: (
        dramfault.bitpos_campaign(ctx.model, ctx.test, seed=seed, **ctx.camp))), {
        "counts": ([40, 250], list_of(integer(0))),
        "bit_positions": ([7, 6, 5], list_of(integer(0, 7))),
        "runs": (10, integer(1)),
        "eval_samples": (None, optional(integer(1))),
    }),
    "dram-column": Experiment(_campaign("column", "dram", lambda ctx, seed: (
        dramfault.column_campaign(ctx.model, ctx.test, seed=seed, **ctx.camp)[0])), {
        "faults_per_column": (20, integer(0)),
        "bit_pos": (7, integer(0, 7)),
        "runs": (10, integer(1)),
        "grid_width": (16, integer(10)),  # at least the output layer's 10 neurons
        "eval_samples": (None, optional(integer(1))),
    }),
    "mac-sweep": Experiment(_campaign("sweep", "sweep", lambda ctx, seed: (
        macfault.lsb_sensitivity_sweep(ctx.model, ctx.test, seed=seed, **ctx.camp))), {
        "k_values": ([2, 3, 4], list_of(integer(1))),
        "fr_grid": ([0.0, 5.0, 10.0], list_of(PERCENT)),
        "runs": (10, integer(1)),
        "mode": ("sim", one_of("sim", "worst")),
        "carry_fraction": (0.0, FRACTION),
        "stuck_one_bias": (0.5, FRACTION),
        **_ARRAY,
    }),
    "deactivate": Experiment(_deactivate, {
        "fr": (7.5, PERCENT),
        "fr_max_non_crit": (0.05, FRACTION),
        "critical_fraction": (0.1, FRACTION),
        "lsb_bits": (2, integer(1)),
        "carry_fraction": (0.5, FRACTION),
        "runs": (5, integer(1)),
        **_ARRAY,
    }, check=_all_faulty_errors),
    "fault-train": Experiment(_fault_train, {
        "fr": (7.5, PERCENT),
        "fr_max_non_crit": (0.02, FRACTION),
        "lsb_bits": (2, integer(1)),
        "carry_fraction": (0.5, FRACTION),
        "seeds": (5, integer(1)),
        "retrain_epochs": (8, integer(0)),
        "retrain_lr": (0.15, POSITIVE),
        **_ARRAY,
    }, needs_train=True, check=_all_faulty_errors),
    "endurance-map": Experiment(_endurance_map, {
        "n": (128, integer(2)),
        "r_seg": (25.0, POSITIVE),
        "access_device": ("diode", one_of("diode", "transistor")),
        # the endurance calibration heats the driver corner to T_HOT
        "t_amb": (298.0, number(0, neurorel.crossbar.T_HOT, open_lo=True,
                                open_hi=True)),
    }, sections=(),
        check=lambda camp: _crossbar_errors(neurorel.CrossbarConfig(**camp), "n")),
    "neuro-map": Experiment(_neuro_map, {
        "capacity": (10, integer(1)),
        "crossbar_n": (16, integer(2)),
        "tiles": ([
            {"voltage": 3.0, "temperature": 298.0},
            {"voltage": 1.8, "temperature": 298.0},
        ], None),
        "particles": (20, integer(1)),
        "iterations": (50, integer(1)),
        "comm_weight": (0.0, number(0)),
        "baseline_seeds": (10, integer(1)),
    }, sections=("workload",), check=_neuro_map_errors),
}
