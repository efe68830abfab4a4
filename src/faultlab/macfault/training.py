"""Fault-aware training: adapt weights to a fixed array state.

The forward pass adds the array-induced error of every layer (pruned
weights of deactivated PEs plus per-product fault corrections, computed
in the array's quantized domain and dequantized back to value units)
onto the float preactivation; the backward pass treats that error as
constant (straight-through), so gradients flow as in plain SGD. With an
empty fault map and a fully active array this is exactly ``train_sgd``.
"""

from __future__ import annotations

import numpy as np

from ..netcore.data import LabeledDataset
from ..netcore.train import train_sgd
from ..quantnum import bf16_round_array, quantize_int8
from .array import ArrayState, faulty_matmul_factory
from .faults import SIM

BATCH_SIZE = 64


def fault_aware_train(model, state: ArrayState, train: LabeledDataset, epochs: int,
                      lr: float, seed: int):
    """The model retrained against the state's fault map (sim mode), as a copy."""
    fmt = state.config.fmt
    rng = np.random.default_rng(seed)
    shapes = [w.shape for w in model.weights]
    # int8: the callback returns the array's integer error and the weight scale
    matmul = faulty_matmul_factory(state, shapes, SIM, rng,
                                   error_only=fmt == "int8")

    def linear(live, idx, a):
        w = live.weights[idx]
        exact = a @ w + live.biases[idx]
        if fmt == "int8":
            q = quantize_int8(a)
            err, sw = matmul(idx, q.raw, w)
            return exact + err * (q.scale * sw)
        ab = bf16_round_array(a).astype(np.float64)
        wb = bf16_round_array(w).astype(np.float64)
        return exact + (matmul(idx, ab, wb) - ab @ wb)

    return train_sgd(model, train, epochs=epochs, lr=lr, seed=seed,
                     batch_size=BATCH_SIZE, linear_fn=linear)[0]
