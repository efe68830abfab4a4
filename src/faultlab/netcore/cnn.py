"""Small convolutional network (LeNet-5-class) on top of im2col matmuls.

Deliberately minimal: valid padding, stride 1, 2x2 average pooling — just
enough to demonstrate fault-aware training on a convolutional topology.
Conv weights are stored directly in matmul form (k*k*in_ch, out_ch) so the
same injectable linear operator drives dense and conv layers alike.
Feature maps are channels-last (N, H, W, C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import softmax


@dataclass(frozen=True)
class ConvStage:
    weight_idx: int
    kernel: int
    in_ch: int
    out_ch: int


@dataclass(frozen=True)
class PoolStage:
    kernel: int


@dataclass(frozen=True)
class FlattenStage:
    pass


@dataclass(frozen=True)
class DenseStage:
    weight_idx: int
    in_features: int
    out_features: int
    final: bool


@dataclass
class SmallCnnModel:
    input_hw: int
    stages: list
    weights: list
    biases: list

    def copy(self) -> "SmallCnnModel":
        return SmallCnnModel(
            input_hw=self.input_hw,
            stages=list(self.stages),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_lenet5(input_hw: int = 28, seed: int = 0) -> SmallCnnModel:
    """LeNet-5 topology: conv5x6, pool, conv5x16, pool, 120-84-10 dense."""
    plan = [("conv", 5, 6), ("pool", 2), ("conv", 5, 16), ("pool", 2)]
    return build_cnn(input_hw, plan, dense=(120, 84, 10), seed=seed)


def build_cnn(input_hw: int, plan, dense, seed: int = 0) -> SmallCnnModel:
    rng = np.random.default_rng(seed)
    stages, weights, biases = [], [], []
    hw, ch = input_hw, 1
    for item in plan:
        if item[0] == "conv":
            _, k, out_ch = item
            if hw < k:
                raise ValueError(f"feature map {hw}x{hw} smaller than kernel {k}")
            fan_in = k * k * ch
            bound = np.sqrt(6.0 / fan_in)
            stages.append(ConvStage(len(weights), k, ch, out_ch))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, out_ch)))
            biases.append(np.zeros(out_ch))
            hw, ch = hw - k + 1, out_ch
        elif item[0] == "pool":
            _, k = item
            if hw % k:
                raise ValueError(f"pool {k} does not divide map size {hw}")
            stages.append(PoolStage(k))
            hw //= k
        else:
            raise ValueError(f"unknown stage {item!r}")
    stages.append(FlattenStage())
    feats = hw * hw * ch
    for i, out in enumerate(dense):
        bound = np.sqrt(6.0 / feats)
        stages.append(DenseStage(len(weights), feats, out, final=i == len(dense) - 1))
        weights.append(rng.uniform(-bound, bound, size=(feats, out)))
        biases.append(np.zeros(out))
        feats = out
    return SmallCnnModel(input_hw=input_hw, stages=stages, weights=weights, biases=biases)


def im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(N, H, W, C) -> (N*OH*OW, k*k*C) patches for valid stride-1 conv."""
    n, h, w, c = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    # (N, OH, OW, C, k, k) -> (N, OH, OW, k, k, C)
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
    return cols.reshape(n * (h - k + 1) * (w - k + 1), k * k * c)


def col2im(dcols: np.ndarray, x_shape, k: int) -> np.ndarray:
    """Scatter-add gradient patches back to the input feature map."""
    n, h, w, c = x_shape
    oh, ow = h - k + 1, w - k + 1
    d = dcols.reshape(n, oh, ow, k, k, c)
    dx = np.zeros((n, h, w, c))
    for ky in range(k):
        for kx in range(k):
            dx[:, ky : ky + oh, kx : kx + ow, :] += d[:, :, :, ky, kx, :]
    return dx


def cnn_forward(model: SmallCnnModel, x: np.ndarray, linear_fn=None):
    """Forward pass returning (logits, caches).

    ``x`` is (N, H, W) or (N, H, W, C) float. ``linear_fn(model, weight_idx,
    a2d)`` replaces the default ``a2d @ W + b``; caches hold what backward
    needs.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 3:
        a = a[..., None]
    caches = []
    for stage in model.stages:
        if isinstance(stage, ConvStage):
            n, h, w, c = a.shape
            oh = ow = h - stage.kernel + 1
            cols = im2col(a, stage.kernel)
            z2 = (
                cols @ model.weights[stage.weight_idx] + model.biases[stage.weight_idx]
                if linear_fn is None
                else linear_fn(model, stage.weight_idx, cols)
            )
            z = z2.reshape(n, oh, ow, stage.out_ch)
            out = np.maximum(z, 0.0)
            caches.append(("conv", stage, a.shape, cols, out))
            a = out
        elif isinstance(stage, PoolStage):
            n, h, w, c = a.shape
            k = stage.kernel
            out = a.reshape(n, h // k, k, w // k, k, c).mean(axis=(2, 4))
            caches.append(("pool", stage, a.shape))
            a = out
        elif isinstance(stage, FlattenStage):
            caches.append(("flatten", a.shape))
            a = a.reshape(a.shape[0], -1)
        else:  # DenseStage
            z = (
                a @ model.weights[stage.weight_idx] + model.biases[stage.weight_idx]
                if linear_fn is None
                else linear_fn(model, stage.weight_idx, a)
            )
            out = z if stage.final else np.maximum(z, 0.0)
            caches.append(("dense", stage, a, out))
            a = out
    return a, caches


def cnn_backward(model: SmallCnnModel, caches, labels):
    """Gradients of mean cross-entropy; ReLU masks from cached activations."""
    logits = caches[-1][3]
    n = logits.shape[0]
    probs = softmax(logits)
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.weights)
    for entry in reversed(caches):
        kind = entry[0]
        if kind == "dense":
            _, stage, a_in, out = entry
            if not stage.final:
                delta = delta * (out > 0)
            grads_w[stage.weight_idx] = a_in.T @ delta
            grads_b[stage.weight_idx] = delta.sum(axis=0)
            delta = delta @ model.weights[stage.weight_idx].T
        elif kind == "flatten":
            _, shape = entry
            delta = delta.reshape(shape)
        elif kind == "pool":
            _, stage, shape = entry
            k = stage.kernel
            nb, h, w, c = shape
            up = np.repeat(np.repeat(delta, k, axis=1), k, axis=2) / (k * k)
            delta = up
        else:  # conv
            _, stage, x_shape, cols, out = entry
            delta = delta * (out > 0)
            d2 = delta.reshape(-1, stage.out_ch)
            grads_w[stage.weight_idx] = cols.T @ d2
            grads_b[stage.weight_idx] = d2.sum(axis=0)
            dcols = d2 @ model.weights[stage.weight_idx].T
            delta = col2im(dcols, x_shape, stage.kernel)
    return grads_w, grads_b
