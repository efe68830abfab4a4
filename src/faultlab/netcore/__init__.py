"""From-scratch neural network engine: training, quantized inference, data.

Provides the fault-free baselines that every fault experiment perturbs.
"""

from .data import (
    CountMismatchError,
    IdxError,
    LabeledDataset,
    TruncatedError,
    WrongMagicError,
    load_idx,
    synthetic_blobs,
)
from .mlp import MlpModel, init_mlp
from .cnn import SmallCnnModel, init_lenet5
from .train import TrainingDiverged, train_sgd
from .inference import evaluate, forward_float, forward_hooked, quant_forward
from .checkpoint import load_model, save_model

__all__ = [
    "CountMismatchError",
    "IdxError",
    "LabeledDataset",
    "MlpModel",
    "SmallCnnModel",
    "TrainingDiverged",
    "TruncatedError",
    "WrongMagicError",
    "evaluate",
    "forward_float",
    "forward_hooked",
    "init_lenet5",
    "init_mlp",
    "load_idx",
    "load_model",
    "quant_forward",
    "save_model",
    "synthetic_blobs",
]
