"""Experiment configuration: YAML schema, validation, canonical form.

A config is a YAML mapping with an ``experiment`` kind, a master ``seed``,
and per-kind sections. ``validate`` normalizes (filling documented
defaults) and returns every offending field at once; ``render`` /
``parse`` round-trip the normalized form byte-stably.
"""

from __future__ import annotations

import copy
import math
from pathlib import Path

import yaml

EXPERIMENTS = (
    "train",
    "dram-bitpos",
    "dram-column",
    "mac-sweep",
    "deactivate",
    "fault-train",
    "endurance-map",
    "neuro-map",
)

_NEEDS_MODEL = {"train", "dram-bitpos", "dram-column", "mac-sweep", "deactivate",
                "fault-train"}

_DEFAULTS = {
    "model": {"kind": "mlp", "layers": [784, 256, 256, 256, 10], "checkpoint": None},
    "dataset": {
        "kind": "synthetic",
        "train": 6000,
        "test": 2000,
        "seed": 1,
        "test_seed": 2,
        "classes": 10,
        "size": 28,
        "params": {},
    },
    "train": {"epochs": 12, "lr": 0.15, "batch": 64},
    "report": {"svg": True},
}

_IDX_FILES = ("train_images", "train_labels", "test_images", "test_labels")

_CAMPAIGN_DEFAULTS = {
    "train": {},
    "dram-bitpos": {
        "counts": [40, 250],
        "bit_positions": [7, 6, 5],
        "runs": 10,
        "eval_samples": None,
    },
    "dram-column": {
        "faults_per_column": 20,
        "bit_pos": 7,
        "runs": 10,
        "grid_width": 16,
        "eval_samples": None,
        "track_recall": False,
    },
    "mac-sweep": {
        "k_values": [2, 3, 4],
        "fr_grid": [0.0, 5.0, 10.0],
        "runs": 10,
        "fmt": "int8",
        "mode": "sim",
        "carry_fraction": 0.0,
        "stuck_one_bias": 0.5,
        "n_row": 128,
        "n_col": 128,
        "eval_samples": None,
    },
    "deactivate": {
        "fr": 7.5,
        "fr_max_non_crit": 0.05,
        "critical_fraction": 0.1,
        "lsb_bits": 2,
        "carry_fraction": 0.5,
        "fmt": "int8",
        "n_row": 128,
        "n_col": 128,
        "runs": 5,
        "eval_samples": None,
    },
    "fault-train": {
        "fr": 7.5,
        "fr_max_non_crit": 0.02,
        "lsb_bits": 2,
        "carry_fraction": 0.5,
        "fmt": "int8",
        "n_row": 128,
        "n_col": 128,
        "seeds": 5,
        "retrain_epochs": 8,
        "retrain_lr": 0.15,
        "eval_samples": None,
    },
    "endurance-map": {
        "n": 128,
        "r_seg": 25.0,
        "access_device": "diode",
        "t_amb": 298.0,
    },
    "neuro-map": {
        "capacity": 10,
        "crossbar_n": 16,
        "tiles": [
            {"voltage": 3.0, "temperature": 298.0},
            {"voltage": 1.8, "temperature": 298.0},
        ],
        "particles": 20,
        "iterations": 50,
        "comm_weight": 0.0,
        "baseline_seeds": 10,
    },
}

_WORKLOAD_DEFAULTS = {"path": None, "neurons": 40, "synapses": 250, "seed": 11,
                      "max_activation": 1000.0}


def _merge(defaults: dict, given, errors, prefix) -> dict:
    out = copy.deepcopy(defaults)
    if given is None:
        return out
    if not isinstance(given, dict):
        errors.append(f"{prefix}: expected a mapping")
        return out
    for key, value in given.items():
        if key not in defaults:
            errors.append(f"{prefix}.{key}: unknown key")
        else:
            out[key] = value
    return out


def validate(raw: dict, base_dir: Path | None = None):
    """Normalize a raw config dict; returns (config, list of field errors)."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        return None, ["config: expected a YAML mapping"]
    cfg: dict = {}

    kind = raw.get("experiment")
    if kind not in EXPERIMENTS:
        errors.append(
            f"experiment: {kind!r} is not one of {', '.join(EXPERIMENTS)}"
        )
        return None, errors
    cfg["experiment"] = kind

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        errors.append("seed: must be an integer")
        seed = 0
    cfg["seed"] = seed

    cfg["output_dir"] = raw.get("output_dir")
    if cfg["output_dir"] is not None and not isinstance(cfg["output_dir"], str):
        errors.append("output_dir: must be a path string")

    known_top = {"experiment", "seed", "output_dir", "model", "dataset", "train",
                 "campaign", "report", "workload"}
    for key in raw:
        if key not in known_top:
            errors.append(f"{key}: unknown key")

    if kind in _NEEDS_MODEL:
        cfg["model"] = _merge(_DEFAULTS["model"], raw.get("model"), errors, "model")
        if cfg["model"]["kind"] not in ("mlp", "lenet5"):
            errors.append(f"model.kind: {cfg['model']['kind']!r} not mlp or lenet5")
        layers = cfg["model"]["layers"]
        if cfg["model"]["kind"] == "mlp":
            if (not isinstance(layers, list) or len(layers) < 2
                    or any(not isinstance(x, int) or x < 1 for x in layers)):
                errors.append("model.layers: need a list of >= 2 positive sizes")
        if cfg["model"]["checkpoint"] is not None:
            path = _resolve(cfg["model"]["checkpoint"], base_dir)
            if not path.exists():
                errors.append(f"model.checkpoint: file not found '{path}'")
            cfg["model"]["checkpoint"] = str(path)

        given = raw.get("dataset")
        ds_defaults = _DEFAULTS["dataset"]
        if isinstance(given, dict) and given.get("kind") == "idx":
            ds_defaults = {**ds_defaults, **dict.fromkeys(_IDX_FILES)}
        cfg["dataset"] = _merge(ds_defaults, given, errors, "dataset")
        ds = cfg["dataset"]
        if ds["kind"] == "synthetic":
            for field in ("train", "test"):
                if not isinstance(ds[field], int) or ds[field] < 1:
                    errors.append(f"dataset.{field}: must be a positive integer")
        elif ds["kind"] == "idx":
            for field in _IDX_FILES:
                value = ds[field]
                if not value or not isinstance(value, str):
                    errors.append(f"dataset.{field}: path required for idx datasets")
                    continue
                path = _resolve(value, base_dir)
                if not path.exists():
                    errors.append(f"dataset.{field}: file not found '{path}'")
                ds[field] = str(path)
        else:
            errors.append(f"dataset.kind: {ds['kind']!r} not synthetic or idx")

        cfg["train"] = _merge(_DEFAULTS["train"], raw.get("train"), errors, "train")
        tr = cfg["train"]
        if not isinstance(tr["epochs"], int) or tr["epochs"] < 0:
            errors.append("train.epochs: must be a non-negative integer")
        if not (isinstance(tr["lr"], (int, float)) and tr["lr"] > 0):
            errors.append("train.lr: must be positive")
        if not isinstance(tr["batch"], int) or tr["batch"] < 1:
            errors.append("train.batch: must be a positive integer")

    if kind == "neuro-map":
        cfg["workload"] = _merge(_WORKLOAD_DEFAULTS, raw.get("workload"), errors,
                                 "workload")
        wl = cfg["workload"]
        _check_fields(wl, _WORKLOAD_RULES, errors, "workload")
        if (_int_at_least(wl["neurons"], 2) and _int_at_least(wl["synapses"], 0)
                and wl["synapses"] > wl["neurons"] * (wl["neurons"] - 1)):
            errors.append("workload.synapses: more than neurons * (neurons - 1) "
                          "distinct synapses")
        if wl["path"] is not None:
            if not isinstance(wl["path"], str):
                errors.append("workload.path: must be a path string")
            else:
                path = _resolve(wl["path"], base_dir)
                if not path.exists():
                    errors.append(f"workload.path: file not found '{path}'")
                wl["path"] = str(path)

    cfg["campaign"] = _merge(_CAMPAIGN_DEFAULTS[kind], raw.get("campaign"), errors,
                             "campaign")
    camp = cfg["campaign"]
    _check_fields(camp, _CAMPAIGN_RULES, errors, "campaign")
    if "tiles" in camp:
        _check_tiles(camp["tiles"], errors)

    cfg["report"] = _merge(_DEFAULTS["report"], raw.get("report"), errors, "report")
    return (cfg if not errors else None), errors


def _number_in(value, lo, hi) -> bool:
    """A finite real number (not a bool) in [lo, hi]."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and lo <= value <= hi)


def _int_at_least(value, lo) -> bool:
    """An integer (not a bool) of at least ``lo``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= lo


def _list_of(check):
    return lambda value: isinstance(value, list) and all(check(v) for v in value)


_POSITIVE_INT = (lambda v: _int_at_least(v, 1), "must be a positive integer")
_FRACTION = (lambda v: _number_in(v, 0, 1), "must be in [0, 1]")
_PERCENT = (lambda v: _number_in(v, 0, 100), "must be a percentage in [0, 100]")
_BIT = (lambda v: isinstance(v, int) and _number_in(v, 0, 7), "must be in [0, 7]")

# field -> (check, what the error says); a field is checked where present
_CAMPAIGN_RULES = {
    "runs": _POSITIVE_INT,
    "seeds": _POSITIVE_INT,
    "fr": _PERCENT,
    "fr_grid": (_list_of(_PERCENT[0]), "need a list of percentages in [0, 100]"),
    "fr_max_non_crit": _FRACTION,
    "critical_fraction": _FRACTION,
    "carry_fraction": _FRACTION,
    "stuck_one_bias": _FRACTION,
    "bit_positions": (_list_of(_BIT[0]), "need a list of bits in [0, 7]"),
    "bit_pos": _BIT,
    "counts": (_list_of(lambda v: _int_at_least(v, 0)),
               "need a list of non-negative integers"),
    "k_values": (_list_of(_POSITIVE_INT[0]), "need a list of positive integers"),
    "lsb_bits": _POSITIVE_INT,
    "faults_per_column": (lambda v: _int_at_least(v, 0),
                          "must be a non-negative integer"),
    "grid_width": (lambda v: _int_at_least(v, 10),
                   "must be an integer >= 10, the output layer's neuron count"),
    "n_row": _POSITIVE_INT,
    "n_col": _POSITIVE_INT,
    "fmt": (lambda v: v in ("int8", "bfloat16"), "must be int8 or bfloat16"),
    "mode": (lambda v: v in ("sim", "worst"), "must be sim or worst"),
    "eval_samples": (lambda v: v is None or _int_at_least(v, 1),
                     "must be a positive integer or null"),
    "retrain_epochs": (lambda v: _int_at_least(v, 0), "must be a non-negative integer"),
    "retrain_lr": (lambda v: _number_in(v, 0, math.inf) and v > 0, "must be positive"),
    "track_recall": (lambda v: isinstance(v, bool), "must be true or false"),
    "capacity": _POSITIVE_INT,
    "crossbar_n": _POSITIVE_INT,
    "particles": _POSITIVE_INT,
    "iterations": _POSITIVE_INT,
    "comm_weight": (lambda v: _number_in(v, 0, math.inf),
                    "must be a non-negative number"),
    "baseline_seeds": _POSITIVE_INT,
}

_WORKLOAD_RULES = {
    "neurons": (lambda v: _int_at_least(v, 2), "must be an integer >= 2"),
    "synapses": (lambda v: _int_at_least(v, 0), "must be a non-negative integer"),
    "seed": (lambda v: _int_at_least(v, 0), "must be a non-negative integer"),
    "max_activation": (lambda v: _number_in(v, 0, math.inf),
                       "must be a non-negative number"),
}

_TILE_KEYS = ("voltage", "temperature")


def _check_fields(section: dict, rules: dict, errors, prefix) -> None:
    for key, (check, message) in rules.items():
        if key in section and not check(section[key]):
            errors.append(f"{prefix}.{key}: {message}")


def _check_tiles(tiles, errors) -> None:
    """Each tile needs a voltage > 0 and may give a temperature > 0 (kelvin)."""
    if not isinstance(tiles, list) or not tiles:
        errors.append("campaign.tiles: need at least one tile")
        return
    for k, tile in enumerate(tiles):
        where = f"campaign.tiles[{k}]"
        if not isinstance(tile, dict):
            errors.append(f"{where}: expected a mapping with voltage and temperature")
            continue
        errors.extend(f"{where}.{key}: unknown key" for key in tile
                      if key not in _TILE_KEYS)
        if "voltage" not in tile:
            errors.append(f"{where}.voltage: required")
        for key in _TILE_KEYS:
            if key in tile and not (_number_in(tile[key], 0, math.inf) and tile[key] > 0):
                errors.append(f"{where}.{key}: must be a number > 0")


def _resolve(path_str: str, base_dir: Path | None) -> Path:
    path = Path(path_str)
    if not path.is_absolute() and base_dir is not None:
        return base_dir / path
    return path


def render(config: dict) -> str:
    """Canonical YAML text of a normalized config."""
    return yaml.safe_dump(config, sort_keys=True)


def parse(text: str) -> dict:
    return yaml.safe_load(text)


def load_config(path):
    """Parse and validate a config file; returns (config, errors)."""
    path = Path(path)
    try:
        raw = parse(path.read_text())
    except (OSError, yaml.YAMLError) as err:
        return None, [f"config: cannot read {path}: {err}"]
    return validate(raw, base_dir=path.parent)
