"""Minibatch SGD with backpropagation, deterministic given a seed."""

from __future__ import annotations

import numpy as np

from .data import LabeledDataset
from .inference import evaluate, model_input
from .network import backward, cross_entropy, forward


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, loss: float):
        super().__init__(f"non-finite loss {loss} in epoch {epoch}")
        self.epoch = epoch


def train_sgd(
    model,
    train: LabeledDataset,
    epochs: int,
    lr: float,
    seed: int,
    batch_size: int = 64,
    test: LabeledDataset | None = None,
    linear_fn=None,
):
    """Train a copy of the model; returns (trained model, accuracy history).

    The history holds one float-mode accuracy on ``test`` per epoch, and is
    empty without a ``test`` set. ``linear_fn(model, weight_idx, a)``
    may replace the per-layer linear operator in the forward pass; gradients
    then flow straight-through, which is how fault-aware training plugs in.

    Each step converts its minibatch's stored bytes with ``model_input``;
    no float copy the size of ``train`` is ever kept.
    """
    if len(train) == 0:
        raise ValueError("cannot train on an empty dataset")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    model = model.copy()
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), batch_size):
            idx = order[start : start + batch_size]
            caches = []
            ys = train.labels[idx]
            logits = forward(model, model_input(train.images[idx]), linear_fn, caches)
            loss = cross_entropy(logits, ys)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, loss)
            grads_w, grads_b = backward(model, caches, ys)
            for l in range(len(model.weights)):
                model.weights[l] -= lr * grads_w[l]
                model.biases[l] -= lr * grads_b[l]
        if test is not None:
            history.append(evaluate(model, test, "float"))
    return model, history
