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
import zipfile
from dataclasses import asdict, fields

import numpy as np

from ..yamlio import naming
from .network import ConvStage, DenseStage, FlattenStage, Network, PoolStage, mlp_stages

FORMAT_NAME = "faultlab-checkpoint"
FORMAT_VERSION = 1


# a stage is stored as its op and then its fields, in declaration order
_STAGE_TYPES = {"conv": ConvStage, "pool": PoolStage, "flatten": FlattenStage,
               "dense": DenseStage}
_STAGE_OPS = {cls: op for op, cls in _STAGE_TYPES.items()}


def _stage_to_json(stage):
    return {"op": _STAGE_OPS[type(stage)], **asdict(stage)}


def _stage_from_json(k: int, d: dict):
    """Stage ``k`` of a checkpoint; ValueError naming it if its op is unknown
    or a field is missing."""
    cls = _STAGE_TYPES.get(d.get("op"))
    if cls is None:
        raise ValueError(f"stage {k}: unknown op {d.get('op')!r}")
    names = [f.name for f in fields(cls)]
    missing = [name for name in names if name not in d]
    if missing:
        raise ValueError(f"stage {k} ({d['op']}): missing {', '.join(missing)}")
    return cls(**{name: d[name] for name in names})


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
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    with naming(path):
        meta = arrays["meta"]
    with naming(f"{path}: meta"):
        meta = json.loads(str(meta))
        if not isinstance(meta, dict) or meta.get("format") != FORMAT_NAME:
            raise ValueError(f"not a {FORMAT_NAME} file")
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
        mlp = meta["kind"] == "mlp"
        stages = (mlp_stages(meta["layer_sizes"]) if mlp else
                  [_stage_from_json(k, d) for k, d in enumerate(meta["stages"])])
        input_hw = None if mlp else meta["input_hw"]
    with naming(path):
        n = sum(1 for k in arrays if k.startswith("w"))
        weights = [arrays[f"w{l}"] for l in range(n)]
        biases = [arrays[f"b{l}"] for l in range(n)]
        if not all(np.isfinite(a).all() for a in weights + biases):
            raise ValueError("non-finite weights or biases")
        return Network(input_hw, stages, weights, biases)
