"""CLI tests: validation, determinism, cleanup, reporting, exit codes."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml

from faultlab.cli.config import load_config, parse, render, validate
from faultlab.cli.main import main
from faultlab.cli.report import ReportError, report
from faultlab.cli.runner import derive_seed, run
from faultlab.netcore import init_mlp, save_model


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
])
def test_validate_names_wrongly_typed_campaign_field(experiment, campaign, field):
    cfg, errors = validate({"experiment": experiment, "campaign": campaign})
    assert cfg is None
    assert len(errors) == 1 and errors[0].startswith(field), errors


@pytest.mark.parametrize("workload, field", [
    ({"synapses": "5"}, "workload.synapses:"),
    ({"max_activation": -1}, "workload.max_activation:"),
    ({"neurons": 3, "synapses": 7}, "workload.synapses:"),
    ({"neurons": 1.5}, "workload.neurons:"),
])
def test_validate_names_wrong_workload_field(workload, field):
    cfg, errors = validate({"experiment": "neuro-map", "workload": workload})
    assert cfg is None
    assert len(errors) == 1 and errors[0].startswith(field), errors


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


def test_run_idx_dataset_from_config_file(tmp_path, monkeypatch, rng):
    # relative IDX paths resolve against the config file, not the cwd
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for split, n in (("train", 60), ("test", 30)):
        images = rng.integers(0, 256, size=(n, 8, 8)).astype(np.uint8)
        labels = rng.integers(0, 10, size=n).astype(np.uint8)
        (data_dir / f"{split}-images.idx").write_bytes(
            struct.pack(">iiii", 0x803, n, 8, 8) + images.tobytes())
        (data_dir / f"{split}-labels.idx").write_bytes(
            struct.pack(">ii", 0x801, n) + labels.tobytes())
    doc = {
        "experiment": "train",
        "seed": 4,
        "model": {"layers": [64, 8, 10]},
        "dataset": {"kind": "idx", **{
            f"{split}_{part}": f"data/{split}-{part}.idx"
            for split in ("train", "test") for part in ("images", "labels")}},
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
    assert parse(render(cfg)) == cfg


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


@pytest.mark.parametrize("checkpointed, sizes", [(True, [120]), (False, [200, 120])],
                         ids=["checkpoint", "no-checkpoint"])
def test_mac_sweep_builds_training_set_only_to_train(tmp_path, monkeypatch,
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
        "experiment": "mac-sweep",
        "seed": 2,
        "model": model,
        "dataset": {"train": 200, "test": 120},
        "train": {"epochs": 1},
        "campaign": {"k_values": [2], "fr_grid": [5.0], "runs": 1, "n_row": 16,
                     "n_col": 16},
    }
    cfg, errors = validate(doc)
    assert not errors
    run(cfg, output_override=tmp_path / "out")
    assert calls == sizes


def test_failed_run_removes_partial_outputs(tmp_path):
    # checkpoint trained for 784 inputs, dataset images are 12x12=144 wide
    ckpt = tmp_path / "model.npz"
    save_model(init_mlp((784, 16, 10), seed=0), ckpt)
    doc = {
        "experiment": "train",
        "seed": 1,
        "model": {"checkpoint": str(ckpt)},
        "dataset": {"train": 50, "test": 30, "size": 12},
    }
    cfg, errors = validate(doc, base_dir=tmp_path)
    assert not errors
    out = tmp_path / "runout"
    with pytest.raises(ValueError):
        run(cfg, output_override=out)
    assert not out.exists() or not any(out.iterdir())


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
    (tmp_path / "history.csv").write_text("epoch,accuracy\n")
    with pytest.raises(ReportError):
        report(tmp_path)
    (tmp_path / "history.csv").write_text("")
    with pytest.raises(ReportError):
        report(tmp_path)


def test_report_names_offending_column(tmp_path):
    (tmp_path / "sweep.csv").write_text(
        "format,k,fr,seed,accuracy,delta\nint8,2,5,1,0.9,0.1\n"
    )
    with pytest.raises(ReportError) as err:
        report(tmp_path)
    assert "delta" in str(err.value)


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
