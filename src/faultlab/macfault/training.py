"""Fault-aware training: adapt weights to a fixed array state.

The array owns each format's arithmetic: ``faulty_matmul_factory`` with
``error_only`` returns, per layer, the error the array adds to ``a @ w``
in value units (pruned weights of deactivated PEs plus per-product fault
corrections, computed in the format's quantized domain). The forward
pass adds that error onto the float preactivation; the backward pass
treats it as constant (straight-through), so gradients flow as in plain
SGD. With an empty fault map and a fully active array this is exactly
``train_sgd``.
"""

from __future__ import annotations

import numpy as np

from ..netcore.data import LabeledDataset
from ..netcore.train import train_sgd
from .array import ArrayState, faulty_matmul_factory
from .faults import SIM

BATCH_SIZE = 64


def fault_aware_train(model, state: ArrayState, train: LabeledDataset, epochs: int,
                      lr: float, seed: int):
    """The model retrained against the state's fault map (sim mode), as a copy."""
    rng = np.random.default_rng(seed)
    error = faulty_matmul_factory(state, [w.shape for w in model.weights], SIM, rng,
                                  error_only=True)

    def linear(live, idx, a):
        return a @ live.weights[idx] + live.biases[idx] + error(idx, a, live.weights[idx])

    return train_sgd(model, train, epochs=epochs, lr=lr, seed=seed,
                     batch_size=BATCH_SIZE, linear_fn=linear)[0]
