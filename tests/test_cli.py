"""CLI tests: validation, determinism, cleanup, reporting, exit codes."""

import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import faultlab
from faultlab import dramfault, macfault
from faultlab.cli.config import load_config, validate
from faultlab.cli.main import main
from faultlab.cli.report import SCHEMAS, ReportError, report
from faultlab.cli.runner import KINDS, run
from faultlab.netcore import init_lenet5, init_mlp, network, save_model
from faultlab.neurorel import SnnWorkloadGraph, TileSpec, random_workload, save_workload
from faultlab.seeds import derive_seed
from faultlab.yamlio import render

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


BITPOS_DOC = {
    "experiment": "dram-bitpos",
    "seed": 5,
    "model": {"layers": [784, 32, 10]},
    "dataset": {"train": 800, "test": 400},
    "train": {"epochs": 3, "lr": 0.2},
    "campaign": {"counts": [50], "bit_positions": [7], "runs": 2},
}


def test_validate_fills_defaults(tmp_path):
    cfg, errors = validate({"experiment": "dram-bitpos"})
    assert errors == []
    assert cfg["campaign"]["runs"] == 10
    assert cfg["model"]["layers"] == [784, 256, 256, 256, 10]
    assert cfg["dataset"]["kind"] == "synthetic"


@pytest.mark.parametrize("doc", [
    {"experiment": "dram-bitpos"},
    {"experiment": "dram-column", "model": {"kind": "lenet5"}},
    # 2**40 weights in the first layer: drawing them would take 8 TiB
    {"experiment": "dram-bitpos", "model": {"layers": [2**40, 10]},
     "dataset": {"size": 2**20}},
], ids=["default-mlp", "lenet5", "huge-mlp"])
def test_validate_checks_the_network_on_its_stage_shapes(monkeypatch, doc):
    def draw(*args):
        raise AssertionError("validate drew the weights of a network")

    monkeypatch.setattr(network, "he_uniform", draw)
    assert validate(doc)[1] == []


def test_config_that_is_not_utf8_is_named(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_bytes(b"experiment: train\nseed: \xff\xfe\n")
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid: config: cannot read {path}: ")
        assert err.count("\n") == 1


def test_validate_lists_every_offence():
    cfg, errors = validate({
        "experiment": "dram-bitpos",
        "seed": "twelve",
        "bogus": 1,
        "train": {"epochs": -3, "lr": 0},
        "campaign": {"runs": 0, "bit_positions": [9]},
    })
    assert cfg is None
    joined = " | ".join(errors)
    for expected in ("seed:", "bogus:", "train.epochs:", "train.lr:",
                     "campaign.runs:", "campaign.bit_positions:"):
        assert expected in joined, f"missing {expected} in {errors}"


class _Sections(dict):
    """A validate case's fields by section, for fields that another section
    than the expected field's holds."""


@pytest.mark.parametrize("experiment, campaign, field", [
    ("deactivate", {"fr": "5"}, "campaign.fr:"),
    ("deactivate", {"fr_max_non_crit": True}, "campaign.fr_max_non_crit:"),
    ("dram-bitpos", {"bit_positions": 7}, "campaign.bit_positions:"),
    ("dram-column", {"bit_pos": "7"}, "campaign.bit_pos:"),
    ("dram-bitpos", {"counts": 5}, "campaign.counts:"),
    ("mac-sweep", {"k_values": 3}, "campaign.k_values:"),
    ("mac-sweep", {"fr_grid": "x"}, "campaign.fr_grid:"),
    ("dram-column", {"faults_per_column": "3"}, "campaign.faults_per_column:"),
    ("mac-sweep", {"n_row": "8"}, "campaign.n_row:"),
    ("deactivate", {"carry_fraction": "a"}, "campaign.carry_fraction:"),
    ("dram-column", {"grid_width": 0}, "campaign.grid_width:"),
    ("neuro-map", {"capacity": "a"}, "campaign.capacity:"),
    ("neuro-map", {"iterations": 1.5}, "campaign.iterations:"),
    ("neuro-map", {"comm_weight": "x"}, "campaign.comm_weight:"),
    ("neuro-map", {"comm_weight": -1}, "campaign.comm_weight:"),
    ("neuro-map", {"baseline_seeds": 0}, "campaign.baseline_seeds:"),
    ("neuro-map", {"tiles": [{"temperature": 300}]}, "campaign.tiles[0].voltage:"),
    ("neuro-map", {"tiles": [5]}, "campaign.tiles[0]:"),
    ("neuro-map", {"tiles": [{"voltage": 1.8, "temperature": "hot"}]},
     "campaign.tiles[0].temperature:"),
    ("neuro-map", {"tiles": [{"voltage": 0}]}, "campaign.tiles[0].voltage:"),
    ("endurance-map", {"n": "a"}, "campaign.n:"),
    ("endurance-map", {"r_seg": -1}, "campaign.r_seg:"),
    ("endurance-map", {"t_amb": 0}, "campaign.t_amb:"),
    ("endurance-map", {"access_device": "x"}, "campaign.access_device:"),
    ("endurance-map", {"n": 2}, "campaign.n:"),
    ("neuro-map", {"crossbar_n": 2}, "campaign.crossbar_n:"),
    ("dram-bitpos", {"counts": [40, 3000]}, "campaign.counts:"),
    ("dram-column", {"faults_per_column": 300}, "campaign.faults_per_column:"),
    # fields of other sections: the section is the field's first part
    ("train", {"size": "a"}, "dataset.size:"),
    ("train", {"classes": 0}, "dataset.classes:"),
    ("train", {"seed": "x"}, "dataset.seed:"),
    ("train", {"params": {"bogus": 1}}, "dataset.params.bogus:"),
    ("train", {"params": {"blobs_per_class": 1.5}}, "dataset.params.blobs_per_class:"),
    ("train", {"lr": True}, "train.lr:"),
    ("train", {"epochs": True}, "train.epochs:"),
    ("train", {"layers": [100, 8, 10]}, "model.layers:"),
    ("train", {"layers": [784, 8, 5]}, "model.layers:"),
    ("dram-column", {"layers": [784, 32, 12]}, "model.layers:"),
    ("endurance-map", {"svg": "yes"}, "report.svg:"),
    ("dram-column", {"track_recall": True}, "campaign.track_recall:"),
    ("train", {"params": {"weak_fraction": 0.1}}, "dataset.params.weak_fraction:"),
    # a LeNet-5's first convolution holds 150 weights, fewer than 250 faults
    ("dram-bitpos", _Sections(model={"kind": "lenet5"}), "campaign.counts:"),
    ("train", {"lr": 10**400}, "train.lr:"),  # an int no float can hold
    ("dram-bitpos", {"params": {"sigma_min_frac": 0.3, "sigma_max_frac": 0.1}},
     "dataset.params.sigma_min_frac: sigma_min_frac 0.3 is above sigma_max_frac 0.1"),
    # the other width is synthetic_blobs' default, 0.08 or 0.16
    ("train", {"params": {"sigma_min_frac": 0.2}}, "dataset.params.sigma_min_frac:"),
    ("train", {"params": {"sigma_max_frac": 0.05}}, "dataset.params.sigma_max_frac:"),
    # a section the kind does not read is named, whatever its fields hold
    ("dram-bitpos", _Sections(workload={"neurons": 8}), "workload: not read by dram-bitpos"),
    ("fault-train", _Sections(workload={}), "workload: not read by fault-train"),
    ("neuro-map", _Sections(model={"layers": [1]}), "model: not read by neuro-map"),
    ("neuro-map", _Sections(dataset={"size": "x"}), "dataset: not read by neuro-map"),
    ("neuro-map", _Sections(train={"lr": -1}), "train: not read by neuro-map"),
    ("endurance-map", _Sections(model={"kind": "mlp"}), "model: not read by endurance-map"),
    ("endurance-map", _Sections(dataset={"train": 10}),
     "dataset: not read by endurance-map"),
    ("endurance-map", _Sections(train={"epochs": 1}), "train: not read by endurance-map"),
    ("endurance-map", _Sections(workload={"neurons": "x"}),
     "workload: not read by endurance-map"),
    # every offence at once: a section not read, then a campaign field
    ("neuro-map", _Sections(dataset={"size": 28}, campaign={"capacity": "a"}),
     ("dataset: not read by neuro-map", "campaign.capacity:")),
    # a key that is no section stays unknown
    ("neuro-map", _Sections(model={}, modle={}),
     ("model: not read by neuro-map", "modle: unknown key")),
    # an evaluation subset beyond the synthetic test set, in each kind reading it
    *[(kind, _Sections(dataset={"test": 50}, campaign={"eval_samples": 5000}),
       "campaign.eval_samples: 5000 is above the 50 samples of dataset.test")
      for kind in ("dram-bitpos", "dram-column", "mac-sweep", "deactivate",
                   "fault-train")],
    # each bit count beyond the format's product width
    ("mac-sweep", _Sections(campaign={"fmt": "int8", "k_values": [16, 17, 40]}),
     ("campaign.k_values[1]: 17 is above the 16-bit int8 product",
      "campaign.k_values[2]: 40 is above the 16-bit int8 product")),
    ("mac-sweep", _Sections(campaign={"fmt": "bfloat16", "k_values": [7, 9, 40]}),
     ("campaign.k_values[1]: 9 is above the 7-bit bfloat16 product",
      "campaign.k_values[2]: 40 is above the 7-bit bfloat16 product")),
    ("deactivate", {"fmt": "bfloat16", "lsb_bits": 8},
     "campaign.lsb_bits: 8 is above the 7-bit bfloat16 product"),
    ("fault-train", {"lsb_bits": 17}, "campaign.lsb_bits: 17 is above the 16-bit int8 product"),
    # a tile's aging lifetime that underflows to 0 or overflows
    ("neuro-map", {"tiles": [{"voltage": 100000.0}]},
     "campaign.tiles[0]: the aging lifetime at 100000 V and 298 K is not a positive float"),
    ("neuro-map", {"tiles": [{"voltage": 3.0}, {"voltage": 1.0e-300}]},
     "campaign.tiles[1]: the aging lifetime at 1e-300 V and 298 K is not a positive float"),
    ("neuro-map", {"tiles": [{"voltage": 3.0, "temperature": 0.001}]},
     "campaign.tiles[0]: the aging lifetime at 3 V and 0.001 K is not a positive float"),
    # an fr that faults every PE, which deactivation would then disable
    ("deactivate", {"fr": 50, "n_row": 1},
     "campaign.fr: 50 faults every PE of a 1-row array, and deactivation under "
     "campaign.fr_max_non_crit 0.05 would disable them all"),
    ("fault-train", {"fr": 99.7, "fr_max_non_crit": 0.5},
     "campaign.fr: 99.7 faults every PE of a 128-row array, and deactivation under "
     "campaign.fr_max_non_crit 0.5 would disable them all"),
])
def test_validate_names_wrongly_typed_campaign_field(experiment, campaign, field):
    sections = (campaign if isinstance(campaign, _Sections)
                else {field.split(".")[0]: campaign})
    fields = field if isinstance(field, tuple) else (field,)
    cfg, errors = validate({"experiment": experiment, **sections})
    assert cfg is None
    assert len(errors) == len(fields), errors
    assert all(e.startswith(f) for e, f in zip(errors, fields)), errors


@pytest.mark.parametrize("doc", [
    {"experiment": "neuro-map", "model": {"layers": [1]}, "dataset": {"size": "x"},
     "train": {"lr": -1}},
    {"experiment": "dram-bitpos", "workload": {"neurons": 8}},
    {"experiment": "endurance-map", "workload": {"neurons": "x"}},
])
def test_validate_command_names_each_section_not_read(tmp_path, capsys, doc):
    assert main(["validate", str(_write_config(tmp_path, doc))]) == 1
    named = sorted(f"invalid: {name}: not read by {doc['experiment']}"
                   for name in doc if name != "experiment")
    assert sorted(capsys.readouterr().err.splitlines()) == named


def test_validate_accepts_every_benchmark_config(tmp_path):
    # the benchmark's configs change only with the benchmark, so every rule
    # validate gains must keep them valid
    checkpoint = tmp_path / "baseline.npz"
    save_model(init_mlp([784, 16, 10], seed=0), checkpoint)
    for workload in workloads.WORKLOADS.values():
        for raw in workload.configs(3, str(checkpoint)):
            cfg, errors = validate(raw)
            assert cfg is not None and errors == [], (workload.name, raw["experiment"])


@pytest.mark.parametrize("workload, field", [
    ({"synapses": "5"}, "workload.synapses:"),
    ({"max_activation": -1}, "workload.max_activation:"),
    ({"neurons": 3, "synapses": 7}, "workload.synapses:"),
    ({"neurons": 1.5}, "workload.neurons:"),
    # no int64 draw reaches these: random_workload would fail naming no field
    ({"max_activation": 2.0**63}, "workload.max_activation:"),
    ({"max_activation": 1e19}, "workload.max_activation:"),
])
def test_validate_names_wrong_workload_field(workload, field):
    cfg, errors = validate({"experiment": "neuro-map", "workload": workload})
    assert cfg is None
    assert len(errors) == 1 and errors[0].startswith(field), errors


def test_validate_names_generator_fields_beside_a_workload_file(tmp_path):
    # neither the neuron count nor the synapse bound it sets is read from a file
    save_workload(tmp_path / "workload.yaml", random_workload(4, 6, seed=0))
    doc = {"experiment": "neuro-map", "workload": {"path": "workload.yaml"}}
    for given in ({"neurons": 500}, {"synapses": 5000}, {"seed": 3, "max_activation": 9.0}):
        _, errors = validate({**doc, "workload": {**doc["workload"], **given}},
                             base_dir=tmp_path)
        assert errors == [f"workload.{key}: not read with workload.path" for key in given]
    assert validate(doc, base_dir=tmp_path)[1] == []


def test_validate_names_synthetic_fields_beside_an_idx_dataset(tmp_path, rng):
    dataset = _idx_dataset(tmp_path / "data", rng, 8)
    doc = {"experiment": "train", "model": {"layers": [64, 8, 10]}}
    _, errors = validate({**doc, "dataset": {**dataset, "train": 50, "classes": 3,
                                             "size": 8}}, base_dir=tmp_path)
    assert errors == [f"dataset.{key}: not read with dataset.kind idx"
                      for key in ("train", "classes", "size")]
    assert validate({**doc, "dataset": dataset}, base_dir=tmp_path)[1] == []


def test_validate_accepts_largest_drawable_max_activation():
    top = 2.0**63 - 1024  # the float just below 2**63
    cfg, errors = validate({"experiment": "neuro-map",
                            "workload": {"neurons": 4, "synapses": 5,
                                         "max_activation": top}})
    assert errors == [] and cfg["workload"]["max_activation"] == top
    graph = random_workload(4, 5, max_activation=top)
    assert 0 <= min(graph.activation) and max(graph.activation) <= top


def test_validate_names_the_exact_max_activation_bound():
    # %g would print 9.22337e+18, below the bound checked; repr reads back as it
    _, errors = validate({"experiment": "neuro-map", "workload": {"max_activation": 1e19}})
    assert errors == ["workload.max_activation: must be a number in "
                      "[0, 9.223372036854775e+18]"]
    assert float("9.223372036854775e+18") == 2.0**63 - 1024


@pytest.mark.parametrize("params", [{"sigma_min_frac": 0.15}, {"sigma_max_frac": 0.09},
                                    {"sigma_min_frac": 0.2, "sigma_max_frac": 0.2}])
def test_validate_accepts_blob_widths_in_order(params):
    # one width alone is compared with synthetic_blobs' default other, 0.16 or 0.08
    cfg, errors = validate({"experiment": "train", "dataset": {"params": params}})
    assert errors == [] and cfg["dataset"]["params"] == params


def test_validate_rejects_bool_seed():
    cfg, errors = validate({"experiment": "endurance-map", "seed": True})
    assert cfg is None and errors == ["seed: must be an integer"]


def test_validate_accepts_tile_without_temperature():
    cfg, errors = validate({"experiment": "neuro-map",
                            "campaign": {"tiles": [{"voltage": 2.0}]}})
    assert errors == []
    assert cfg["campaign"]["tiles"] == [{"voltage": 2.0}]


@pytest.mark.parametrize("experiment, campaign, csv_name", [
    ("dram-bitpos", {"counts": [5], "bit_positions": [7], "runs": 1}, "bitpos.csv"),
    ("dram-column", {"faults_per_column": 3, "runs": 1, "grid_width": 12}, "column.csv"),
])
def test_run_dram_campaign_on_lenet5(tmp_path, experiment, campaign, csv_name):
    doc = {
        "experiment": experiment,
        "seed": 2,
        "model": {"kind": "lenet5"},
        "dataset": {"train": 60, "test": 40},
        "train": {"epochs": 1},
        "campaign": campaign,
        "report": {"svg": False},
    }
    path = _write_config(tmp_path, doc)
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / csv_name).read_text().strip().splitlines()
    assert len(rows) == 1 + (1 if experiment == "dram-bitpos" else 12)


def test_validate_unknown_experiment():
    cfg, errors = validate({"experiment": "melt-cpu"})
    assert cfg is None and len(errors) == 1


def test_validate_missing_dataset_file_names_path(tmp_path):
    doc = {
        "experiment": "train",
        "dataset": {
            "kind": "idx",
            "train_images": "nope-images.idx",
            "train_labels": "nope-labels.idx",
            "test_images": "nope-t-images.idx",
            "test_labels": "nope-t-labels.idx",
        },
    }
    path = _write_config(tmp_path, doc)
    cfg, errors = load_config(path)
    assert cfg is None
    assert any("nope-images.idx" in e for e in errors)
    assert sum("file not found" in e for e in errors) == 4


def _idx_dataset(data_dir, rng, hw):
    """Write 60 training and 30 test images of hw x hw pixels as IDX files;
    returns the dataset section naming them relative to ``data_dir``'s parent."""
    data_dir.mkdir()
    for split, n in (("train", 60), ("test", 30)):
        images = rng.integers(0, 256, size=(n, hw, hw)).astype(np.uint8)
        labels = rng.integers(0, 10, size=n).astype(np.uint8)
        (data_dir / f"{split}-images.idx").write_bytes(
            struct.pack(">iiii", 0x803, n, hw, hw) + images.tobytes())
        (data_dir / f"{split}-labels.idx").write_bytes(
            struct.pack(">ii", 0x801, n) + labels.tobytes())
    return {"kind": "idx", **{
        f"{split}_{part}": f"{data_dir.name}/{split}-{part}.idx"
        for split in ("train", "test") for part in ("images", "labels")}}


def test_run_idx_dataset_from_config_file(tmp_path, monkeypatch, rng):
    # relative IDX paths resolve against the config file, not the cwd
    data_dir = tmp_path / "data"
    doc = {
        "experiment": "train",
        "seed": 4,
        "model": {"layers": [64, 8, 10]},
        "dataset": _idx_dataset(data_dir, rng, 8),
        "train": {"epochs": 1},
        "report": {"svg": False},
    }
    path = _write_config(tmp_path, doc)
    cfg, errors = load_config(path)
    assert not errors
    assert cfg["dataset"]["test_images"] == str(data_dir / "test-images.idx")
    monkeypatch.chdir(data_dir)
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "history.csv").read_text().strip().splitlines()
    assert len(rows) == 2


def test_validate_stores_checkpoint_path_resolved(tmp_path):
    save_model(init_mlp((784, 16, 10), seed=0), tmp_path / "model.npz")
    path = _write_config(tmp_path, {"experiment": "mac-sweep",
                                    "model": {"checkpoint": "model.npz"}})
    cfg, errors = load_config(path)
    assert not errors
    assert cfg["model"]["checkpoint"] == str(tmp_path / "model.npz")


def test_config_roundtrip():
    cfg, errors = validate(BITPOS_DOC)
    assert errors == []
    assert yaml.safe_load(render(cfg)) == cfg


def test_run_produces_byte_identical_csvs(tmp_path):
    cfg, errors = validate(BITPOS_DOC)
    assert not errors
    m1 = run(cfg, output_override=tmp_path / "a")
    m2 = run(cfg, output_override=tmp_path / "b")
    csv_a = (tmp_path / "a" / "bitpos.csv").read_bytes()
    csv_b = (tmp_path / "b" / "bitpos.csv").read_bytes()
    assert csv_a == csv_b
    assert m1["outputs"]["bitpos.csv"] == m2["outputs"]["bitpos.csv"]
    assert m1["config_hash"] == m2["config_hash"]


def test_run_manifest_contents(tmp_path):
    cfg, _ = validate(BITPOS_DOC)
    manifest = run(cfg, output_override=tmp_path / "out")
    on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert on_disk["experiment"] == "dram-bitpos"
    assert on_disk["master_seed"] == 5
    assert "bitpos.csv" in on_disk["outputs"]
    assert on_disk["version"] == manifest["version"]
    assert on_disk["derived_seeds"]["campaign"] == derive_seed(5, "dram-bitpos",
                                                               "campaign")


def test_runs_per_cell_row_count(tmp_path):
    doc = dict(BITPOS_DOC, campaign={"counts": [10, 20], "bit_positions": [7, 6],
                                     "runs": 3})
    cfg, _ = validate(doc)
    run(cfg, output_override=tmp_path / "out")
    rows = (tmp_path / "out" / "bitpos.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 2 * 2 * 3  # bits x counts x runs


@pytest.mark.parametrize("experiment, checkpointed, sizes", [
    ("mac-sweep", True, [120]), ("mac-sweep", False, [200, 120]), ("train", True, [120]),
], ids=["checkpoint", "no-checkpoint", "train-checkpoint"])
def test_mac_sweep_builds_training_set_only_to_train(tmp_path, monkeypatch, experiment,
                                                     checkpointed, sizes):
    import faultlab.cli.runner as runner

    calls = []
    real = runner.synthetic_blobs

    def counting_blobs(n, **kwargs):
        calls.append(n)
        return real(n, **kwargs)

    monkeypatch.setattr(runner, "synthetic_blobs", counting_blobs)
    model = {"layers": [784, 16, 10]}
    if checkpointed:
        ckpt = tmp_path / "model.npz"
        save_model(init_mlp((784, 16, 10), seed=0), ckpt)
        model["checkpoint"] = str(ckpt)
    doc = {
        "experiment": experiment,
        "seed": 2,
        "model": model,
        "dataset": {"train": 200, "test": 120},
        "train": {"epochs": 1},
        "campaign": {"k_values": [2], "fr_grid": [5.0], "runs": 1, "n_row": 16,
                     "n_col": 16} if experiment == "mac-sweep" else {},
    }
    cfg, errors = validate(doc)
    assert not errors
    run(cfg, output_override=tmp_path / "out")
    assert calls == sizes


def test_failed_run_removes_partial_outputs(tmp_path, monkeypatch):
    # the train kind writes history.csv and model.npz before it scores the model
    import faultlab.cli.runner as runner

    def failing_evaluate(*args, **kwargs):
        raise ValueError("scoring failed")

    monkeypatch.setattr(runner, "evaluate", failing_evaluate)
    doc = {
        "experiment": "train",
        "seed": 1,
        "model": {"layers": [144, 8, 10]},
        "dataset": {"train": 50, "test": 30, "size": 12},
        "train": {"epochs": 1},
    }
    cfg, errors = validate(doc, base_dir=tmp_path)
    assert not errors
    out = tmp_path / "runout"
    with pytest.raises(ValueError, match="scoring failed"):
        run(cfg, output_override=out)
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("experiment", ["dram-bitpos", "mac-sweep", "deactivate",
                                        "train"])
def test_run_names_mlp_checkpoint_input_mismatch(tmp_path, capsys, experiment):
    # a checkpoint of a 64-input MLP (8x8 images) run on 12x12 images
    save_model(init_mlp((64, 16, 10), seed=0), tmp_path / "model.npz")
    path = _write_config(tmp_path, {
        "experiment": experiment, "seed": 1, "model": {"checkpoint": "model.npz"},
        "dataset": {"train": 20, "test": 20, "size": 12}})
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed: the MLP takes 64 inputs, but the ")
    assert "images are 12x12 = 144 pixels" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["lenet5-checkpoint", "idx-mlp"])
def test_run_names_network_input_mismatch(tmp_path, capsys, rng, case):
    if case == "lenet5-checkpoint":
        save_model(init_lenet5(28, seed=0), tmp_path / "model.npz")
        doc = {"experiment": "dram-column", "model": {"checkpoint": "model.npz"},
               "dataset": {"test": 20, "size": 12}}
        message = "the CNN takes 28x28 images, but the test images are 12x12"
    else:  # a fresh default MLP, 784 inputs, on 10x10 IDX images
        doc = {"experiment": "train", "dataset": _idx_dataset(tmp_path / "data", rng, 10)}
        message = "the MLP takes 784 inputs, but the training images are 10x10"
    path = _write_config(tmp_path, {"seed": 1, **doc})
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_names_the_cluster_that_overflows_its_crossbar(tmp_path, capsys):
    # 4 neurons fit one cluster, whose 10 synapses outnumber a 3x3 crossbar's cells
    path = _write_config(tmp_path, {
        "experiment": "neuro-map", "workload": {"neurons": 4, "synapses": 10},
        "campaign": {"capacity": 4, "crossbar_n": 3}})
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "run failed: cluster 0: 10 synapses exceed the 3x3 crossbar's 9 cells: "
        "raise campaign.crossbar_n or lower campaign.capacity\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, fr_max_non_crit, count", [
    ("deactivate", 0.05, "runs"), ("fault-train", 0.02, "seeds"),
])
def test_run_names_the_fields_of_an_infeasible_deactivation(tmp_path, capsys, experiment,
                                                            fr_max_non_crit, count):
    # every PE of a 2x2 array is faulty at fr 100, so deactivation leaves none
    # active; validate names it before the run builds or trains anything
    path = _write_config(tmp_path, {
        "experiment": experiment, "seed": 1, "model": {"layers": [64, 8, 10]},
        "dataset": {"train": 40, "test": 20, "size": 8}, "train": {"epochs": 1},
        "campaign": {"fr": 100.0, "n_row": 2, "n_col": 2, count: 1}})
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "invalid: campaign.fr: 100 faults every PE of a 2-row array, and deactivation "
        f"under campaign.fr_max_non_crit {fr_max_non_crit:g} would disable them all\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, campaign", [
    ("deactivate", {"runs": 1, "critical_fraction": 1.0}),
    ("fault-train", {"seeds": 1, "lsb_bits": 16}),
])
def test_run_names_the_fields_of_a_deactivation_of_only_critical_pes(tmp_path, capsys,
                                                                      experiment, campaign):
    # at fr_max_non_crit 1 only the seeded map tells whether deactivation leaves a
    # PE active: here every PE is faulty and critical, so the run names campaign.fr
    # and the field that made the PEs critical
    field = "critical_fraction" if experiment == "deactivate" else "lsb_bits"
    path = _write_config(tmp_path, {
        "experiment": experiment, "seed": 1, "model": {"layers": [64, 8, 10]},
        "dataset": {"train": 40, "test": 20, "size": 8}, "train": {"epochs": 1},
        "campaign": {"fr": 100.0, "n_row": 2, "n_col": 2, "fr_max_non_crit": 1.0,
                     **campaign}})
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "run failed: constraints disable every PE (fr_max_non_crit=1.0, all PEs faulty): "
        f"lower campaign.fr or campaign.{field}\n")
    assert not (tmp_path / "out").exists()


def test_run_maps_fractional_activations_onto_one_tile(tmp_path):
    # the in-order sum of these cluster loads is one ulp above their pairwise
    # total, so the one tile's duty is 1 + 2**-52; the fitness takes it as it is
    rng = np.random.default_rng(4)
    src, rest = np.divmod(rng.choice(200 * 199, 1500, replace=False), 199)
    save_workload(tmp_path / "workload.yaml", SnnWorkloadGraph(
        neurons=range(200), src=src, dst=rest + (rest >= src), weight=np.ones(1500),
        activation=rng.random(1500) * 100))
    path = _write_config(tmp_path, {
        "experiment": "neuro-map", "workload": {"path": "workload.yaml"},
        "campaign": {"tiles": [{"voltage": 3.0}], "particles": 3, "iterations": 3,
                     "baseline_seeds": 2}})
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    summary = dict(csv.reader((tmp_path / "out" / "summary.csv").open()))
    life = TileSpec(3.0).lifetime()
    assert float(summary["aging_fitness"]) == float(summary["random_baseline_fitness"])
    assert float(summary["aging_fitness"]) == pytest.approx(1 / life, rel=1e-9)


def test_run_names_workload_whose_activations_overflow(tmp_path, capsys):
    # every activation is finite, their sum is not: fails before the first KL pass
    rng = np.random.default_rng(0)
    src, rest = np.divmod(rng.choice(40 * 39, 200, replace=False), 39)
    save_workload(tmp_path / "workload.yaml", SnnWorkloadGraph(
        neurons=range(40), src=src, dst=rest + (rest >= src), weight=np.ones(200),
        activation=np.full(200, 1e308)))
    path = _write_config(tmp_path, {"experiment": "neuro-map",
                                    "workload": {"path": "workload.yaml"}})
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "run failed: the activations sum to inf, above 2.24712e+307: the partition's "
        "gains would overflow float64\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["fault-train", "dram-bitpos", "mac-sweep",
                                        "deactivate"])
def test_run_names_checkpoint_with_fewer_outputs_than_labels(tmp_path, experiment):
    # validate cannot see a checkpoint's outputs; the run names them first
    save_model(init_mlp((144, 16, 3), seed=0), tmp_path / "model.npz")
    cfg, errors = validate({
        "experiment": experiment, "seed": 1, "model": {"checkpoint": "model.npz"},
        "dataset": {"train": 40, "test": 40, "size": 12, "classes": 4}},
        base_dir=tmp_path)
    assert not errors
    split = "training" if experiment == "fault-train" else "test"
    with pytest.raises(ValueError) as err:
        run(cfg, output_override=tmp_path / "out")
    assert str(err.value) == f"the network has 3 outputs, but the {split} labels reach 3"
    assert not (tmp_path / "out").exists()


def test_run_names_fresh_mlp_with_fewer_outputs_than_idx_labels(tmp_path, rng):
    # validate cannot read IDX labels; the run names the first split that has more
    path = _write_config(tmp_path, {
        "experiment": "train", "seed": 1, "model": {"layers": [100, 8, 5]},
        "dataset": _idx_dataset(tmp_path / "data", rng, 10)})
    cfg, errors = load_config(path)
    assert not errors
    with pytest.raises(ValueError) as err:
        run(cfg, output_override=tmp_path / "out")
    assert str(err.value) == "the network has 5 outputs, but the training labels reach 9"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, campaign, message", [
    ("dram-bitpos", {"counts": [400]},
     "campaign.counts: more faults than the 120 weights of the smallest layer"),
    ("dram-column", {"faults_per_column": 30},
     "campaign.faults_per_column: more faults than the 12 weights of an output column"),
], ids=["counts", "faults_per_column"])
def test_run_names_dram_field_too_large_for_checkpoint(tmp_path, capsys, experiment,
                                                       campaign, message):
    # validate cannot see a checkpoint's weights; the run names the field in its words
    save_model(init_mlp((144, 12, 10), seed=0), tmp_path / "model.npz")
    path = _write_config(tmp_path, {
        "experiment": experiment, "seed": 1, "model": {"checkpoint": "model.npz"},
        "dataset": {"test": 20, "size": 12}, "campaign": {"runs": 1, **campaign}})
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run failed: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["dram-bitpos", "dram-column", "mac-sweep",
                                        "deactivate", "fault-train"])
def test_run_names_eval_samples_above_idx_test_set(tmp_path, capsys, rng, experiment):
    # validate cannot count IDX samples; the run names the field before training
    campaign = {"dram-bitpos": {"counts": [5], "runs": 1},
                "dram-column": {"faults_per_column": 3, "runs": 1}}.get(
                    experiment, {"n_row": 8, "n_col": 8})
    path = _write_config(tmp_path, {
        "experiment": experiment, "seed": 1, "model": {"layers": [64, 8, 10]},
        "dataset": _idx_dataset(tmp_path / "data", rng, 8), "train": {"epochs": 1},
        "campaign": {**campaign, "eval_samples": 100}})
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "run failed: campaign.eval_samples: 100 is above the 30 samples of "
        "dataset.test\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, scored", [("dram-bitpos", 0), ("train", 2)])
def test_only_train_scores_each_epoch(tmp_path, monkeypatch, experiment, scored):
    # only the train kind writes the per-epoch accuracy (history.csv)
    import faultlab.netcore.train as train_module

    calls = []
    real = train_module.evaluate
    monkeypatch.setattr(train_module, "evaluate",
                        lambda *args: calls.append(args) or real(*args))
    doc = {"experiment": experiment, "seed": 1, "model": {"layers": [784, 8, 10]},
           "dataset": {"train": 40, "test": 20}, "train": {"epochs": 2}}
    if experiment == "dram-bitpos":
        doc["campaign"] = {"counts": [1], "bit_positions": [7], "runs": 1}
    cfg, errors = validate(doc)
    assert not errors
    run(cfg, output_override=tmp_path / "out")
    assert len(calls) == scored


def test_env_var_sets_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("FAULTLAB_OUT", str(tmp_path / "fromenv"))
    doc = {"experiment": "endurance-map", "seed": 1, "campaign": {"n": 8}}
    cfg, _ = validate(doc)
    run(cfg)
    assert (tmp_path / "fromenv" / "endurance.csv").exists()


def test_cli_exit_codes(tmp_path, capsys):
    bad = _write_config(tmp_path, {"experiment": "nope"}, "bad.yaml")
    assert main(["validate", str(bad)]) == 1
    good = _write_config(tmp_path, {"experiment": "endurance-map",
                                    "campaign": {"n": 8}}, "good.yaml")
    assert main(["validate", str(good)]) == 0
    assert main(["run", str(good), "--output", str(tmp_path / "o")]) == 0
    assert main(["report", str(tmp_path / "o")]) == 0
    assert main(["report", str(tmp_path / "does-not-exist")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["validate", "run", "report"])
def test_closed_stdout_exits_without_traceback(tmp_path, command):
    # the reader of stdout is gone before the command starts, as in
    # `faultlab validate c.yaml | head -1` once head has its line
    config = _write_config(tmp_path, {"experiment": "endurance-map", "campaign": {"n": 8}})
    assert main(["run", str(config), "--output", str(tmp_path / "done")]) == 0
    args = {"validate": [str(config)],
            "run": [str(config), "--output", str(tmp_path / "o")],
            "report": [str(tmp_path / "done"), "--no-svg"]}[command]
    env = dict(os.environ, PYTHONPATH=str(Path(faultlab.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "faultlab.cli.main", command, *args],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr and not proc.stderr


def test_report_summarizes_dram_csv(tmp_path):
    cfg, _ = validate(BITPOS_DOC)
    run(cfg, output_override=tmp_path / "out")
    text = report(tmp_path / "out")
    assert "bitpos.csv" in text
    assert "bit 7" in text
    assert (tmp_path / "out" / "report_bitpos.svg").exists()


def test_report_single_row_mean_no_spread(tmp_path):
    (tmp_path / "sweep.csv").write_text(
        "format,k,fr,seed,accuracy,drop_pp\nint8,2,5,1,0.95,1.25\n"
    )
    text = report(tmp_path, write_svg=False)
    assert "+1.250 ± 0.000" in text


def test_report_rejects_empty_csv(tmp_path):
    (tmp_path / "history.csv").write_text("")
    with pytest.raises(ReportError):
        report(tmp_path)


def test_report_of_a_run_that_trained_no_epoch(tmp_path, capsys):
    # history.csv holds only its header; report counts it as zero rows
    doc = {"experiment": "train", "seed": 1, "model": {"layers": [144, 8, 10]},
           "dataset": {"train": 40, "test": 20, "size": 12},
           "train": {"epochs": 0}}
    path = _write_config(tmp_path, doc)
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "history.csv").read_text() == "epoch,accuracy\n"
    assert main(["report", str(tmp_path / "out")]) == 0
    assert "== history.csv (history, 0 rows)" in capsys.readouterr().out
    assert not list((tmp_path / "out").glob("report_*"))


def test_report_names_offending_column(tmp_path):
    # three layouts have 7 columns: the closest one names the mismatch
    for name, header, message in [
        ("sweep.csv", "format,k,fr,seed,accuracy,delta", "'delta' (expected 'drop_pp')"),
        ("fault_train.csv", "run_seed,baseline_accuracy,faulty_accuracy,retrained_acc,"
         "loss_before,loss_after,relative_reduction",
         "'retrained_acc' (expected 'retrained_accuracy')"),
        ("mapping.csv", "cluster,tile,synapse,cell_row,cell_col,endurance,life",
         "'life' (expected 'lifetime')"),
    ]:
        out = tmp_path / name.split(".")[0]
        out.mkdir()
        (out / name).write_text(header + "\n" + ",".join(["1"] * 7) + "\n")
        with pytest.raises(ReportError) as err:
            report(out)
        assert str(err.value) == f"{name}: unexpected column {message}"


DRAM_HEADER = "campaign,bit_pos,column,fault_count,run_seed,accuracy,drop_pp\n"
ENDURANCE_HEADER = "row,col,path_segments,temperature_k,endurance_cycles\n"


@pytest.mark.parametrize("name, text, message", [
    ("endurance.csv", ENDURANCE_HEADER + "0,0,0,abc,1e6\n", "'abc'"),
    ("endurance.csv", ENDURANCE_HEADER + "0,1,1,300,1e6\n", "do not fill a 2x2 map"),
    ("bitpos.csv", DRAM_HEADER + "bitpos,7\n", "line 2: 2 cells, expected 7"),
    ("history.csv", "epoch,accuracy\n1,abc\n", "'abc'"),
    ("bitpos.csv", DRAM_HEADER + "bitpos,7,,x,1,0.5,abc\n", "'abc'"),
    ("bitpos.csv", DRAM_HEADER + "bitpos,7,,40,1,0.5,nan\nbitpos,7,,40,2,0.5,inf\n",
     "non-finite value 'nan'"),
    ("history.csv", "1,\xff", "can't decode byte 0xff"),
    ("history.csv", "epoch,accuracy\n1," + "0" * 2**17 + "1\n", "field larger than"),
], ids=["endurance-cell", "endurance-partial-map", "dram-short-row",
        "history-cell", "dram-drop-cell", "dram-non-finite-drop", "history-not-utf8",
        "history-field-above-csv-limit"])
def test_report_names_the_file_of_a_bad_csv(tmp_path, capsys, name, text, message):
    (tmp_path / name).write_bytes(text.encode("latin-1"))  # "\xff" is the byte 0xff
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"report failed: {name}: ")
    assert message in err
    assert not list(tmp_path.glob("*.svg"))


def test_report_names_a_csv_it_cannot_open(tmp_path, capsys):
    (tmp_path / "history.csv").mkdir()
    assert main(["report", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("report failed: history.csv: ")


def test_report_without_charts_reads_every_endurance_cell(tmp_path, capsys):
    # the temperature column feeds only the chart, yet --no-svg parses it too
    (tmp_path / "endurance.csv").write_text(ENDURANCE_HEADER + "0,0,0,abc,1e6\n")
    for args in (["report", str(tmp_path)], ["report", "--no-svg", str(tmp_path)]):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("report failed: endurance.csv: ") and "'abc'" in err


def test_report_reads_empty_cells_as_nan(tmp_path):
    # a model that scores nothing fault-free has NaN losses, written as ""
    (tmp_path / "fault_train.csv").write_text(
        "run_seed,baseline_accuracy,faulty_accuracy,retrained_accuracy,loss_before,"
        "loss_after,relative_reduction\n1,0.0,0.0,0.0,,,\n")
    assert "normalized loss nan -> nan over 1 seeds" in report(tmp_path)


def test_report_of_an_all_idle_mapping(tmp_path):
    # a synapse that never fires has no lifetime, written as an empty cell
    (tmp_path / "mapping.csv").write_text(
        "cluster,tile,synapse,cell_row,cell_col,endurance,lifetime\n"
        "0,1,0,0,0,1e6,\n0,1,1,0,1,1e6,\n")
    assert report(tmp_path).splitlines() == ["== mapping.csv (mapping, 2 rows)",
                                             "   2 synapses mapped, all idle"]


# the campaign calls of the schema test, on 8x8 int8 arrays
_ROW_ARRAY = {"fmt": "int8", "n_row": 8, "n_col": 8, "eval_samples": 100}
_ROW_FSR = {"seeds": [5, 6], "fr": 10.0, "lsb_bits": 2, "carry_fraction": 0.5,
            **_ROW_ARRAY}


@pytest.mark.parametrize("schema, campaign", [
    ("dram", lambda model, test, train: dramfault.bitpos_campaign(
        model, test, counts=[5], bit_positions=(7, 6), runs=2, eval_samples=100)),
    ("dram", lambda model, test, train: dramfault.column_campaign(
        model, test, faults_per_column=5, runs=1, grid_width=12, eval_samples=100)[0]),
    ("sweep", lambda model, test, train: macfault.lsb_sensitivity_sweep(
        model, test, k_values=[2], fr_grid=[10.0], runs=2, **_ROW_ARRAY)),
    ("deactivate", lambda model, test, train: macfault.deactivation_campaign(
        model, test, fr_max_non_crit=0.05, critical_fraction=0.1, **_ROW_FSR)[1]),
    ("fault_train", lambda model, test, train: macfault.retrain_campaign(
        model, test, train, fr_max_non_crit=0.02, retrain_epochs=1, retrain_lr=0.15,
        **_ROW_FSR)[1]),
], ids=["bitpos", "column", "sweep", "deactivate", "fault-train"])
def test_campaign_rows_are_tuples_of_their_schema(small_mlp, blob_train, blob_test,
                                                  schema, campaign):
    rows = campaign(small_mlp, blob_test, blob_train.subset(200))
    assert rows
    width = len(SCHEMAS[schema].header)
    assert all(isinstance(row, tuple) and len(row) == width for row in rows)


def test_deactivate_experiment_end_to_end(tmp_path):
    doc = {
        "experiment": "deactivate",
        "seed": 3,
        "model": {"layers": [784, 24, 10]},
        "dataset": {"train": 600, "test": 300},
        "train": {"epochs": 2, "lr": 0.2},
        "campaign": {"runs": 2, "n_row": 32, "n_col": 32, "fr": 10,
                     "fr_max_non_crit": 0.04, "eval_samples": 200},
    }
    cfg, errors = validate(doc)
    assert not errors
    run(cfg, output_override=tmp_path / "out")
    assert (tmp_path / "out" / "deactivate.csv").exists()
    assert (tmp_path / "out" / "faultmap_run0.yaml").exists()
    text = report(tmp_path / "out", write_svg=False)
    assert "deactivated" in text


def test_fault_train_experiment_csv(tmp_path):
    doc = {
        "experiment": "fault-train",
        "seed": 4,
        "model": {"layers": [784, 24, 10]},
        "dataset": {"train": 600, "test": 300},
        "train": {"epochs": 3, "lr": 0.2},
        "campaign": {"seeds": 1, "retrain_epochs": 2, "retrain_lr": 0.2,
                     "n_row": 32, "n_col": 32, "eval_samples": 200},
    }
    cfg, errors = validate(doc)
    assert not errors
    run(cfg, output_override=tmp_path / "out")
    rows = (tmp_path / "out" / "fault_train.csv").read_text().strip().splitlines()
    assert rows[0].startswith("run_seed,baseline_accuracy")
    assert len(rows) == 2


# One tiny config per experiment kind, and per bfloat16 faulty path (named
# "kind:variant"), run with charts on. Its digests pin every CSV, YAML and SVG
# output and the manifest less its wall clock, so a change to how the CLI or
# the fault model is organised must reproduce each run byte for byte.
_TINY_MODEL = {"model": {"layers": [144, 24, 10]},
               "dataset": {"train": 400, "test": 60, "size": 12, "classes": 4},
               "train": {"epochs": 6, "lr": 0.3, "batch": 32}}
_TINY_ARRAY = {"n_row": 8, "n_col": 8, "eval_samples": 40}
_TINY_BF16 = {"k_values": [4, 7], "fr_grid": [30.0, 60.0], "carry_fraction": 0.5,
              "runs": 2, **_TINY_ARRAY, "fmt": "bfloat16"}
GOLDEN_CONFIGS = {
    name: {"experiment": name.split(":")[0], "seed": 7, **base, "campaign": campaign}
    for name, base, campaign in [
        ("train", _TINY_MODEL, {}),
        ("dram-bitpos", _TINY_MODEL, {"counts": [3, 9], "bit_positions": [7, 6],
                                      "runs": 2}),
        ("dram-column", _TINY_MODEL, {"faults_per_column": 2, "grid_width": 12,
                                      "runs": 2}),
        ("mac-sweep", _TINY_MODEL, {"k_values": [8, 12], "fr_grid": [30.0, 60.0],
                                    "carry_fraction": 0.5, "runs": 2,
                                    **_TINY_ARRAY}),
        ("mac-sweep:bf16-sim", _TINY_MODEL, _TINY_BF16),
        ("mac-sweep:bf16-worst", _TINY_MODEL, {**_TINY_BF16, "mode": "worst"}),
        ("deactivate", _TINY_MODEL, {"fr": 25.0, "runs": 2, **_TINY_ARRAY}),
        ("deactivate:bf16", _TINY_MODEL, {"fr": 25.0, "runs": 2, **_TINY_ARRAY,
                                          "fmt": "bfloat16"}),
        ("fault-train", _TINY_MODEL, {"fr": 25.0, "seeds": 2, "retrain_epochs": 1,
                                      **_TINY_ARRAY}),
        ("endurance-map", {}, {"n": 6}),
        ("neuro-map", {"workload": {"neurons": 12, "synapses": 30}},
         {"capacity": 4, "crossbar_n": 8, "particles": 4, "iterations": 3,
          "baseline_seeds": 2}),
    ]
}


def _golden_digests(out_dir: Path) -> dict:
    """sha256 of each CSV, YAML and SVG output, of the manifest without its clock
    and of the text ``report`` prints for the run."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    del manifest["wall_clock_s"]
    digests = {"manifest": hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()).hexdigest()}
    for name in sorted(manifest["outputs"]):
        if name.endswith((".csv", ".yaml", ".svg")):
            digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    text = report(out_dir, write_svg=False)
    digests["report"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


GOLDEN_DIGESTS = {
    "train": {
        "manifest": "d61e735b9f105ef215e3c41fa09cad39a8a2ca27ebd0e88bf109e26eb64d2241",
        "history.csv": "db0cfbec384f4ef3b8ea6d3cb0dca3ce178e3ee92bb03fc2e29e00820e8a37f3",
        "summary.csv": "de0ae9d9604050859927e177c175c62b7cfc3c29b5e9e0a002575a65c2c3e98e",
        "report": "b7508396c88d8100e5cff4785bc4a4bac5a7d09a28fc12ba0b1e35fd634270ca",
    },
    "dram-bitpos": {
        "manifest": "79ee625651b7af443b82e69d6696f8b051c38a7dd23fb00e5ee3ac83e2007663",
        "bitpos.csv": "5554636520aa3603f698098b010f569df0a152ff70eb5ccd697249c760929952",
        "bitpos.svg": "8cebce864617e734c2720bde5248ddc2c1a45f4bc013be0b56423e5779ab7972",
        "report": "937234390211cf5a823ab0bdb84e1d5b4ded3e0669e24fd8cc0c0fbbb1a1b1e5",
    },
    "dram-column": {
        # config_hash changed when campaign.track_recall left the config
        "manifest": "6ee6e7abc337177f88e95eb1151780794d00a9e7b6e70f51ef8bb88eb58e3272",
        "column.csv": "0c4bff1b1fdbf155495f6fb35b0a37db6645782efdedbecf0e693bd07ed5d754",
        "column.svg": "dfd1910688c2acc65527d765e419c76c01498c5c12e9a6d56b0573eb955a83c9",
        "report": "eeb5b4ba051a660f6a56f3e6146873bf5a6a0d41b1159e5bbebb3c478ae2ce69",
    },
    "mac-sweep": {
        "manifest": "39861fa7568e23758f85a3473af6d542195838763f260a2d80fbcfe4b7b85bf0",
        "sweep.csv": "f9194b88d24a399c45a2b0bcb76e82616ee79203808926498778797fa789cca8",
        "sweep.svg": "02c38fe2d3c55706c7498467bc62e1dc346fd01661ebc6ec8bae30d8e9da47c2",
        "report": "0b10431481e43b7c3fda3f3b01839dfb58e424661067a2bafab3e4372e3ee807",
    },
    "mac-sweep:bf16-sim": {
        "manifest": "fbaad9ef3176436803a4647011bf93a0907b88173fbd6e45a3ed7549a51dc08c",
        "sweep.csv": "330f1c36d2abe45ad312726d42f652d5d27965aebf7357da3ea32458da91ea69",
        "sweep.svg": "b745ba88ce4f63750ef5b4e0456a537afde82a96cfddbe6fd8bd92c72579f41b",
        "report": "0ac60798e3c77802a5dc344e4d3b8a381655c68abf3272659d2e8e4823607735",
    },
    "mac-sweep:bf16-worst": {
        "manifest": "b6c0d1bafa31151c79d8ed8868d97199fa1dfe2eac92d12239e275d5d3830096",
        "sweep.csv": "b92b69b7c7173f9cf7a14d55c59ea36097d8431b05b95a43ccaef9e8a1f18540",
        "sweep.svg": "ef1342e5fb5da9338aed22f947471ba3af531231a277339beff74266e2b305b9",
        "report": "3103aaefeedba18cfbe72c0657624710e3daab1d2badbb7509b46548eb066c9e",
    },
    "deactivate:bf16": {
        "manifest": "29c9798968dbea3b46e53bff73956eb9e725e60b0ec91c91e808bf52cf4a8cd0",
        "deactivate.csv": "767e003deb4b44495ff7b9568ac559f50717af88914122068bfebf989157f8f3",
        "faultmap_run0.yaml": "df89f8d62b12482ce0b1b48ea10fc4bcc9fe77776fe0c0ef6a0ca4e23bc6f0ea",
        "faultmap_run1.yaml": "d262316eece99b9822a5770c84edab5f0718fb1429aacc5fce9d33f8ff0e78af",
        "report": "5b24c88dcbaf2d436eb88ab1a3d9b3b3ddbff7bdfc35b738214fdc239cb284bb",
    },
    "deactivate": {
        "manifest": "9e3231a9dcd027b5331d53ed1e00a6cb9f120475c08f0fb961a1918273de02b4",
        "deactivate.csv": "c6983e3d5a944d38c9ecb44a3678e0b7e51af1fe05c9193b0b0a3d2d31ccdd9c",
        "faultmap_run0.yaml": "49f67f165fbbaaac2a842caa1e511e5ea4c4c4a23557daa0bde3eeb81fe8b443",
        "faultmap_run1.yaml": "c6320c16e9e29ffc7e599576cc18c6b9a358db3d3701caaa49d9052386e42509",
        "report": "e2845236f1de0e84284f66ec2fa03a3a7e989630af95eb61c232319344d507a4",
    },
    "fault-train": {
        "manifest": "28f7e021b5945fd283317200f0e482bd4981beaf1e9fcbf0c02c62ace370a88a",
        "fault_train.csv": "41bfa042a620d74d2d567fa5b0df88e69cffb757f30af0426312744be7a1115a",
        "report": "85dddf495a43ed1738f5658c2bc38374c42fcb59b79c2ca563f35fcd61d391fe",
    },
    "endurance-map": {
        "manifest": "e45fa1449ab861c53e0942d30f0f144eaa561e24a4d2e9b2f6bbb412322d373d",
        "endurance.csv": "dc65f3c126e56b2c58456da0698552656a7a5204949152799f0c3cd370a687b7",
        "endurance.svg": "cafec4ee4b17a945edb836e1964ce30db3e5394d325026755ebc499fb0298745",
        "temperature.svg": "e4a35d2cd6ffdb14f9f49ba2a5f3c745cb982b4a3e1734277bb980dd8842b34b",
        "report": "af24f61620ceb83696fbf4805e4fe6cce62d28925ba5eb6d8f790bf40e87ce57",
    },
    "neuro-map": {
        "manifest": "1b4474077e746964b148ad4c7569c611c873c4320e31fd7cf67d4369c6b18f55",
        "mapping.csv": "e6b7334ee14be7aec8b42556331c0aa3ebaad968a0d70d3d5a60219ce9938d38",
        "summary.csv": "033a7315131f997875d93f1c069ddda1c920eb7a1b1e5d8f915c832691141f74",
        "workload.yaml": "33c53c533956be5e9fda9a2926817e871d9fb9f4c8a051dfe1d58bec2ef0dc47",
        "report": "08c13221021dca94ce6d29579b574b269150195bff248e586eb784979f4b3832",
    },
}


# the schema report names for each CSV a golden run writes
_GOLDEN_SCHEMAS = {"history": "history", "summary": "metrics", "bitpos": "dram",
                   "column": "dram", "sweep": "sweep", "deactivate": "deactivate",
                   "fault_train": "fault_train", "endurance": "endurance",
                   "mapping": "mapping"}


@pytest.mark.parametrize("kind", sorted(GOLDEN_CONFIGS))
def test_run_reproduces_golden_outputs(tmp_path, kind):
    cfg, errors = validate(GOLDEN_CONFIGS[kind])
    assert not errors
    run(cfg, output_override=tmp_path)
    assert _golden_digests(tmp_path) == GOLDEN_DIGESTS[kind]
    # and report reads back every CSV the run wrote
    csvs = sorted(tmp_path.glob("*.csv"))
    titles = [line for line in report(tmp_path).splitlines() if line.startswith("== ")]
    assert titles == [
        f"== {p.name} ({_GOLDEN_SCHEMAS[p.stem]}, "
        f"{len(p.read_text().splitlines()) - 1} rows)" for p in csvs]


# --- validate-or-run property over every kind ---------------------------------
#
# A config draws every field that sets a run's size, and some others, in the
# sections its kind reads, from tiny values (a few of which break a rule or
# another field), then maybe sets one field, an unknown key or a field of a
# section the kind does not read to junk. Two limits only a run can meet stay out
# of reach, as each stops its run with a named error: fault rates stay below
# the point where every PE of a column is faulty (DeactivationInfeasible), and
# every crossbar holds every synapse its workload could give one cluster.
_JUNK = st.sampled_from(["a", "", True, False, -1, 0, 1.5, float("nan"), None, [],
                         {}, {"bogus": 1}])


def _fields(required: dict, optional: dict):
    """Every ``required`` and some ``optional`` fields, each from its values."""
    def values(v):
        return v if isinstance(v, st.SearchStrategy) else st.sampled_from(v)
    return st.fixed_dictionaries(
        {key: values(v) for key, v in required.items()},
        optional={key: values(v) for key, v in optional.items()})


def _small_lists(values):
    return st.lists(st.sampled_from(values), max_size=3)


_ARRAY = {"n_row": [2, 4, 8], "n_col": [2, 4, 8]}
_ARRAY_OPTIONAL = {"fmt": ["int8", "bfloat16"], "eval_samples": [None, 1, 5, 50],
                   "carry_fraction": [0.0, 0.5, 1.0], "fr": [0.0, 10.0, 25.0, 50.0],
                   "fr_max_non_crit": [0.0, 0.05, 1.0], "lsb_bits": [1, 2, 4]}
# kind -> (campaign fields always drawn, campaign fields maybe drawn)
_CAMPAIGN_FIELDS = {
    "train": ({}, {}),
    "dram-bitpos": ({"counts": _small_lists([0, 1, 3, 500]), "runs": [1, 2]},
                    {"bit_positions": _small_lists([0, 5, 7, 9]),
                     "eval_samples": [None, 1, 5]}),
    "dram-column": ({"runs": [1, 2]},
                    {"faults_per_column": [0, 1, 3, 50], "bit_pos": [0, 7, 8],
                     "grid_width": [9, 10, 12], "eval_samples": [None, 3]}),
    "mac-sweep": ({"k_values": _small_lists([1, 2, 8, 16]),
                   "fr_grid": _small_lists([0.0, 10.0, 50.0, 120.0]), "runs": [1],
                   **_ARRAY},
                  {"mode": ["sim", "worst"], "stuck_one_bias": [0.0, 0.5],
                   **{k: _ARRAY_OPTIONAL[k] for k in ("fmt", "eval_samples",
                                                      "carry_fraction")}}),
    "deactivate": ({"runs": [1, 2], **_ARRAY},
                   {"critical_fraction": [0.0, 0.1, 1.0], **_ARRAY_OPTIONAL}),
    "fault-train": ({"seeds": [1], "retrain_epochs": [0, 1], **_ARRAY},
                    {"retrain_lr": [0.1, 0], **_ARRAY_OPTIONAL}),
    "endurance-map": ({"n": [1, 2, 3, 6]},
                      {"r_seg": [0.0, 1.0, 25.0],
                       "access_device": ["diode", "transistor", "x"],
                       "t_amb": [0, 250.0, 298.0, 500.0]}),
    "neuro-map": ({"particles": [1, 3], "iterations": [1, 2], "baseline_seeds": [1, 2]},
                  {"capacity": [1, 2, 4], "crossbar_n": [1, 2, 4, 8],
                   "comm_weight": [0.0, 0.5],
                   "tiles": [[{"voltage": 1.8}], [{"voltage": -1}],
                             [{"voltage": 3.0, "temperature": 320.0},
                              {"voltage": 1.2}]]}),
}


@st.composite
def _tiny_configs(draw):
    kind = draw(st.sampled_from(sorted(_CAMPAIGN_FIELDS)))
    size = draw(st.sampled_from([2, 4, 6]))
    hidden = draw(st.sampled_from([1, 4, 8]))
    width = size * size
    sections = {
        "model": _fields(
            {"layers": [[width, hidden, 10], [width, 10], [width, hidden, 5],
                        [width + 1, hidden, 10]]},
            {"kind": ["mlp", "lenet5"]}),
        "dataset": _fields(
            {"train": [1, 10, 40], "test": [1, 20], "size": [size]},
            {"classes": [1, 4, 10], "seed": [0, 3], "test_seed": [1],
             "params": [{}, {"pixel_noise": 5.0, "blobs_per_class": 2}, {"size": 3},
                        {"blobs_per_class": 1.5}, {"template_seed": -1}]}),
        "train": _fields({"epochs": [0, 1, 2]}, {"lr": [0.1, 0.3], "batch": [4, 64]}),
        "workload": _fields(
            {"neurons": [2, 4, 8], "synapses": [0, 1, 3, 10, 100]},
            {"seed": [0, 5], "max_activation": [0.0, 10.0, 1000.0]}),
    }
    doc = {
        "experiment": kind,
        "seed": draw(st.integers(0, 3)),
        "campaign": draw(_fields(*_CAMPAIGN_FIELDS[kind])),
        "report": draw(_fields({}, {"svg": [True, False]})),
        # only the sections the kind reads: validate refuses any other
        **{name: draw(sections[name]) for name in KINDS[kind].sections},
    }
    if draw(st.booleans()):
        # junk in a field or a key, or in one section the kind does not read
        section = draw(st.sampled_from(["campaign", *KINDS[kind].sections, "report",
                                        None, "unread"]))
        if section == "unread":
            section = draw(st.sampled_from([name for name in sections if name not in doc]))
        fields = doc.setdefault(section, {}) if section else doc
        fields[draw(st.sampled_from(sorted(fields) + ["bogus"]))] = draw(_JUNK)
    return doc


@settings(max_examples=300, deadline=2000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_tiny_configs())
def test_tiny_configs_fail_validation_or_run(doc):
    cfg, errors = validate(doc)
    if errors:
        assert cfg is None and all(isinstance(e, str) and ": " in e for e in errors)
        return
    with tempfile.TemporaryDirectory() as out:
        run(cfg, output_override=out)
