"""Experiment configuration: YAML schema, validation, canonical form.

A config is a YAML mapping with an ``experiment`` kind, a master ``seed``
and sections. Each field is declared once, with its default and its rule:
the fixed sections in ``SECTIONS``, a campaign section in its kind's record
of the experiment table (``runner.KINDS``), which also lists the optional
sections the kind reads. ``validate`` fills every default and returns every
offence at once: a section the kind does not read, a field that breaks its
rule, a synthetic-data field beside an IDX dataset or a generator field
beside a workload file, a bit count beyond the array format's product width,
and what ``runner.network_errors``, the one rule between a network, its data
and its campaign, finds on the facts a config fixes: a fresh network that
cannot take the synthetic images, an evaluation subset larger than the
synthetic test set, DRAM faults beyond the weights.
The rules (``integer``, ``one_of``, ...) and the canonical text
(``render``) are ``yamlio``'s, shared by file readers.
"""

from __future__ import annotations

import copy
import inspect
from pathlib import Path

import yaml

from ..macfault import PRODUCT_WIDTH
from ..netcore.data import synthetic_blobs
from ..netcore.network import DEFAULT_LAYERS
from ..yamlio import BOOL, PATH, POSITIVE, check_mapping, integer, list_of, number, one_of
from .runner import KINDS, network_errors, network_shapes

_TOP = {"seed": integer(), "output_dir": PATH}

# section -> field -> (default, rule); None marks a field checked on its own
SECTIONS = {
    "model": {
        "kind": ("mlp", one_of("mlp", "lenet5")),
        "layers": (list(DEFAULT_LAYERS), list_of(integer(1), min_len=2)),
        "checkpoint": (None, PATH),
    },
    "dataset": {
        "kind": ("synthetic", one_of("synthetic", "idx")),
        "train": (6000, integer(1)),
        "test": (2000, integer(1)),
        "seed": (1, integer(0)),
        "test_seed": (2, integer(0)),
        "classes": (10, integer(1, 10)),
        "size": (28, integer(1)),
        "params": ({}, None),
    },
    "train": {"epochs": (12, integer(0)), "lr": (0.15, POSITIVE),
              "batch": (64, integer(1))},
    "report": {"svg": (True, BOOL)},
    "workload": {
        "path": (None, PATH),
        "neurons": (40, integer(2)),
        "synapses": (250, integer(1)),
        "seed": (11, integer(0)),
        # random_workload draws rng.integers(0, max_activation + 1), an int64:
        # 2**63 - 1024 is the largest float at or below the int64 maximum
        "max_activation": (1000.0, number(0, 2.0**63 - 1024)),
    },
}

_IDX_FILES = ("train_images", "train_labels", "test_images", "test_labels")
_IDX_PATH = (lambda v: isinstance(v, str) and bool(v), "path required for idx datasets")

# keyword arguments of netcore.synthetic_blobs that dataset.params may set
_BLOB_RULES = {
    "template_seed": integer(0),
    "blobs_per_class": integer(1),
    "center_jitter": number(0),
    "amplitude_jitter": number(0),
    "pixel_noise": number(0),
    "sigma_min_frac": POSITIVE,
    "sigma_max_frac": POSITIVE,
}
_BLOB_ARGS = inspect.signature(synthetic_blobs).parameters

_TILE_RULES = {"voltage": POSITIVE, "temperature": POSITIVE}


def _section(name: str, spec: dict, raw: dict, errors) -> tuple[dict, bool]:
    """(the section given in ``raw`` over its defaults, whether it is valid)."""
    n_errors = len(errors)
    section = {key: copy.deepcopy(default) for key, (default, _) in spec.items()}
    given = raw.get(name)
    if given is not None and check_mapping(given, dict.fromkeys(spec), errors, name):
        section.update((k, v) for k, v in given.items() if k in spec)
    check_mapping(section, {key: rule for key, (_, rule) in spec.items()}, errors,
                   name)
    return section, len(errors) == n_errors


def validate(raw: dict, base_dir: Path | None = None):
    """Normalize a raw config dict; returns (config, list of field errors).
    Each section given that the kind does not read is one error, by name."""
    if not isinstance(raw, dict):
        return None, ["config: expected a YAML mapping"]
    kind = raw.get("experiment")
    experiment = KINDS.get(kind) if isinstance(kind, str) else None
    if experiment is None:
        return None, [f"experiment: {kind!r} is not one of {', '.join(KINDS)}"]
    cfg = {"experiment": kind, "seed": raw.get("seed", 0),
           "output_dir": raw.get("output_dir")}
    errors = [f"{key}: {message}" for key, (check, message) in _TOP.items()
              if not check(cfg[key])]
    read = {"experiment", "campaign", "report", *_TOP, *experiment.sections}
    errors.extend(f"{key}: not read by {kind}" if key in SECTIONS else f"{key}: unknown key"
                  for key in raw if key not in read)

    if "model" in experiment.sections:
        cfg["model"], model_ok = _section("model", SECTIONS["model"], raw, errors)
        cfg["model"]["checkpoint"] = _existing(cfg["model"]["checkpoint"], base_dir,
                                               "model.checkpoint", errors)
        ds_spec = SECTIONS["dataset"]
        if isinstance(raw.get("dataset"), dict) and raw["dataset"].get("kind") == "idx":
            ds_spec = {**ds_spec, **dict.fromkeys(_IDX_FILES, (None, _IDX_PATH))}
        cfg["dataset"], ds_ok = _section("dataset", ds_spec, raw, errors)
        ds = cfg["dataset"]
        if check_mapping(params := ds["params"], _BLOB_RULES, errors, "dataset.params"):
            lo, hi = (params.get(k, _BLOB_ARGS[k].default)
                      for k in ("sigma_min_frac", "sigma_max_frac"))
            if POSITIVE[0](lo) and POSITIVE[0](hi) and lo > hi:
                field = "sigma_min_frac" if "sigma_min_frac" in params else "sigma_max_frac"
                errors.append(f"dataset.params.{field}: sigma_min_frac {lo:g} is above "
                              f"sigma_max_frac {hi:g}")
        if ds["kind"] == "idx":
            _unread("dataset", raw["dataset"], "dataset.kind idx", errors)
        for key in _IDX_FILES if ds["kind"] == "idx" else ():
            ds[key] = _existing(ds[key], base_dir, f"dataset.{key}", errors)
        cfg["train"], _ = _section("train", SECTIONS["train"], raw, errors)

    if "workload" in experiment.sections:
        cfg["workload"], wl_ok = _section("workload", SECTIONS["workload"], raw,
                                          errors)
        wl = cfg["workload"]
        if wl["path"]:
            _unread("workload", raw["workload"], "workload.path", errors)
        elif wl_ok and wl["synapses"] > wl["neurons"] * (wl["neurons"] - 1):
            errors.append("workload.synapses: more than neurons * (neurons - 1) "
                          "distinct synapses")
        wl["path"] = _existing(wl["path"], base_dir, "workload.path", errors)

    cfg["campaign"], camp_ok = _section("campaign", experiment.campaign, raw, errors)
    if "tiles" in cfg["campaign"]:
        _check_tiles(cfg["campaign"]["tiles"], errors)
    if camp_ok:
        _check_campaign_sizes(cfg["campaign"], errors)
    cfg["report"], _ = _section("report", SECTIONS["report"], raw, errors)

    if "model" in experiment.sections:
        _check_network(cfg, model_ok, ds_ok, camp_ok, errors)
    if not errors and experiment.check:
        errors = experiment.check(cfg["campaign"])
    return (cfg if not errors else None), errors


# the fields a run does not read when the given one is set: the synthetic
# generator's under an IDX dataset, the workload generator's beside a file
_UNREAD = {
    "dataset.kind idx": ("train", "test", "seed", "test_seed", "classes", "size", "params"),
    "workload.path": ("neurons", "synapses", "seed", "max_activation"),
}


def _unread(section: str, given: dict, setting: str, errors) -> None:
    """Name each field given in a section that a run with ``setting`` does not read."""
    errors.extend(f"{section}.{key}: not read with {setting}"
                  for key in _UNREAD[setting] if key in given)


def _check_network(cfg: dict, model_ok: bool, ds_ok: bool, camp_ok: bool, errors):
    """``runner.network_errors`` on the facts a config fixes: the stage shapes
    of a fresh network (an MLP's always, a LeNet-5's on synthetic images), the
    synthetic split and ``dataset.test``."""
    model, ds, size = cfg["model"], cfg["dataset"], cfg["dataset"]["size"]
    synthetic = ds_ok and ds["kind"] == "synthetic"
    side = shapes = None
    if model_ok and model["checkpoint"] is None and (model["kind"] == "mlp" or synthetic):
        try:
            side, shapes = network_shapes(model, size)
        except ValueError as err:  # only a LeNet-5 can fail to chain
            errors.append(f"dataset.size: no LeNet-5 takes {size}x{size} images: {err}")
    fits, camp_errors = network_errors(
        cfg["campaign"] if camp_ok else {}, side, shapes,
        [("synthetic", (size, size), ds["classes"] - 1)] if synthetic else None,
        ds["test"] if synthetic else None)
    errors += [f"model.layers: {reason}" for reason in fits] + camp_errors


def _check_campaign_sizes(camp: dict, errors) -> None:
    """No bit count beyond the array format's product width."""
    if "fmt" not in camp:
        return
    fmt = camp["fmt"]
    width = PRODUCT_WIDTH[fmt]
    named = [(f"k_values[{k}]", bits) for k, bits in enumerate(camp.get("k_values", ()))]
    if "lsb_bits" in camp:
        named.append(("lsb_bits", camp["lsb_bits"]))
    errors.extend(f"campaign.{field}: {bits} is above the {width}-bit {fmt} product"
                  for field, bits in named if bits > width)


def _check_tiles(tiles, errors) -> None:
    """Each tile needs a voltage > 0 and may give a temperature > 0 (kelvin)."""
    if not isinstance(tiles, list) or not tiles:
        errors.append("campaign.tiles: need at least one tile")
        return
    for k, tile in enumerate(tiles):
        if (check_mapping(tile, _TILE_RULES, errors, f"campaign.tiles[{k}]")
                and "voltage" not in tile):
            errors.append(f"campaign.tiles[{k}].voltage: required")


def _existing(value, base_dir: Path | None, field: str, errors):
    """A path string resolved against the config's directory, named if absent;
    any other value as it is."""
    if not isinstance(value, str) or not value:
        return value
    path = Path(value)
    if not path.is_absolute() and base_dir is not None:
        path = base_dir / path
    if not path.exists():
        errors.append(f"{field}: file not found '{path}'")
    return str(path)


def load_config(path):
    """Parse and validate a config file; returns (config, errors)."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as err:
        return None, [f"config: cannot read {path}: {err}"]
    return validate(raw, base_dir=path.parent)
