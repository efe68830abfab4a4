"""Model checkpoints: versioned npz dump of shapes and weights.

Format (documented for external tooling): a zip archive written by
``numpy.savez`` containing
  * ``meta``: JSON string with {"format": "faultlab-checkpoint",
    "version": 1, "kind": "mlp"|"cnn", and the architecture fields: an
    MLP (a network without ``input_hw``) stores its ``layer_sizes``, any
    other network its ``input_hw`` and ``stages``}
  * ``w0..wN`` / ``b0..bN``: float64 weight and bias arrays in layer order.
"""

from __future__ import annotations

import json
import os
import tokenize
import zipfile
from dataclasses import asdict, fields

import numpy as np

from ..yamlio import BOOL, integer, list_of, naming, one_of, require
from .network import ConvStage, DenseStage, FlattenStage, Network, PoolStage, mlp_stages

FORMAT_NAME = "faultlab-checkpoint"
FORMAT_VERSION = 1


# a stage is stored as its op and then its fields, in declaration order
_STAGE_TYPES = {"conv": ConvStage, "pool": PoolStage, "flatten": FlattenStage,
               "dense": DenseStage}
_STAGE_OPS = {cls: op for op, cls in _STAGE_TYPES.items()}
# the rule of each meta field and each stage field
_MAPPING = (lambda v: isinstance(v, dict), "must be a mapping")
_RULES = {"kind": one_of("mlp", "cnn"), "layer_sizes": list_of(integer(1), min_len=2),
          "input_hw": integer(1), "stages": list_of(_MAPPING), "weight_idx": integer(0),
          "kernel": integer(1), "in_ch": integer(1), "out_ch": integer(1),
          "in_features": integer(1), "out_features": integer(1), "final": BOOL}


def _field(d: dict, key: str):
    """``d[key]`` if it passes its rule; KeyError if it is missing."""
    return require(d[key], _RULES[key], key)


def _stage_to_json(stage):
    return {"op": _STAGE_OPS[type(stage)], **asdict(stage)}


def _stage_from_json(k: int, d: dict):
    """Stage ``k`` of a checkpoint; ValueError naming it if its op is unknown
    or a field is missing or breaks its rule."""
    cls = _STAGE_TYPES.get(d.get("op"))
    if cls is None:
        raise ValueError(f"stage {k}: unknown op {d.get('op')!r}")
    names = [f.name for f in fields(cls)]
    missing = [name for name in names if name not in d]
    if missing:
        raise ValueError(f"stage {k} ({d['op']}): missing {', '.join(missing)}")
    with naming(f"stage {k} ({d['op']})"):
        return cls(**{name: _field(d, name) for name in names})


def save_model(model: Network, path):
    arrays = {}
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{l}"] = w
        arrays[f"b{l}"] = b
    meta = {"format": FORMAT_NAME, "version": FORMAT_VERSION}
    if model.input_hw is None:
        dense = model.stages[1:]
        meta |= {"kind": "mlp",
                 "layer_sizes": [dense[0].in_features] + [s.out_features for s in dense]}
    else:
        meta |= {"kind": "cnn", "input_hw": model.input_hw,
                 "stages": [_stage_to_json(s) for s in model.stages]}
    np.savez(path, meta=json.dumps(meta), **arrays)


def load_model(path) -> Network:
    """The saved network; ValueError naming the file and the cause if it is not
    a checkpoint, lacks a member or a field, or holds a bad shape or value."""
    if os.path.exists(path) and not zipfile.is_zipfile(path):
        raise ValueError(f"{path}: not a zip archive")  # numpy would blame pickling
    arrays, member = {}, None
    try:
        with np.load(path, allow_pickle=False) as data:
            for member in data.files:
                arrays[member] = data[member]
    except (ValueError, OSError, EOFError, RuntimeError, zipfile.BadZipFile,
            tokenize.TokenError) as err:  # a damaged archive, member or array header
        where = path if member is None else f"{path}: {member}"
        raise ValueError(f"{where}: {str(err) or type(err).__name__}") from None
    with naming(path):
        meta = arrays["meta"]
    with naming(f"{path}: meta"):
        meta = json.loads(str(meta))
        if not isinstance(meta, dict) or meta.get("format") != FORMAT_NAME:
            raise ValueError(f"not a {FORMAT_NAME} file")
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
        mlp = _field(meta, "kind") == "mlp"
        stages = (mlp_stages(_field(meta, "layer_sizes")) if mlp else
                  [_stage_from_json(k, d) for k, d in enumerate(_field(meta, "stages"))])
        input_hw = None if mlp else _field(meta, "input_hw")
    with naming(path):
        n = sum(1 for k in arrays if k.startswith("w"))
        weights = [arrays[f"w{l}"] for l in range(n)]
        biases = [arrays[f"b{l}"] for l in range(n)]
        if not all(np.isfinite(a).all() for a in weights + biases):
            raise ValueError("non-finite weights or biases")
        return Network(input_hw, stages, weights, biases)
