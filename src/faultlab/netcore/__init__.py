"""From-scratch neural network engine: training, quantized inference, data.

One network type, ``Network``, holds both the MLP (a Flatten stage then
Dense stages) and LeNet-5 (convolution and pooling stages in front), so
training, inference, checkpoints and every fault model share one forward
pass, one backward pass and one model-input path; a network whose stages
do not chain is refused when it is built or loaded, and
``network.fit_error`` names why one cannot take a dataset's images or
labels. Provides the fault-free baselines that every fault experiment
perturbs. A malformed IDX file raises ``IdxError``, a ``ValueError`` naming
the file.
"""

from .data import IdxError, LabeledDataset, load_idx, synthetic_blobs
from .network import Network, init_lenet5, init_mlp
from .train import TrainingDiverged, train_sgd
from .inference import evaluate, forward_hooked, quant_forward
from .checkpoint import load_model, save_model

__all__ = [
    "IdxError",
    "LabeledDataset",
    "Network",
    "TrainingDiverged",
    "evaluate",
    "forward_hooked",
    "init_lenet5",
    "init_mlp",
    "load_idx",
    "load_model",
    "quant_forward",
    "save_model",
    "synthetic_blobs",
]
