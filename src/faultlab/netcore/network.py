"""The one network type: a sequence of stages over im2col matmuls.

An MLP is a Flatten stage followed by Dense stages; LeNet-5 puts
convolution and pooling stages in front of them. Deliberately minimal:
valid padding, stride 1, average pooling. Conv weights are stored
directly in matmul form (k*k*in_ch, out_ch) so the same injectable
linear operator drives dense and conv layers alike. Every weighted stage
but the final dense one is followed by a ReLU. Feature maps are
channels-last (N, H, W, C).

A network is its list of stages: ``mlp_stages`` and ``lenet5_stages`` write
them out, ``init_mlp`` and ``init_lenet5`` draw their weights through
``he_uniform``, which takes any list that chains. ``fit_error`` is the one
rule for whether a network, or the weight shapes of one, takes a dataset's
images and scores every label in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_LAYERS = (784, 256, 256, 256, 10)


@dataclass(frozen=True)
class ConvStage:
    weight_idx: int
    kernel: int
    in_ch: int
    out_ch: int

    @property
    def weight_shape(self) -> tuple:
        return (self.kernel * self.kernel * self.in_ch, self.out_ch)


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

    @property
    def weight_shape(self) -> tuple:
        return (self.in_features, self.out_features)


@dataclass
class Network:
    """Stages plus one weight matrix and bias per weighted stage, in order.

    ``input_hw`` is the square input size a convolutional network was built
    for, and None for an MLP, which flattens any input whose per-sample
    size is its first layer's fan-in. A ValueError names the first stage
    that cannot take what the stage before it gives.
    """

    input_hw: int | None
    stages: list
    weights: list
    biases: list

    def __post_init__(self):
        _check_chain(self.input_hw, self.stages)
        weighted = [s for s in self.stages if isinstance(s, (ConvStage, DenseStage))]
        if [s.weight_idx for s in weighted] != list(range(len(self.weights))):
            raise ValueError(f"{len(self.weights)} weight matrices do not match "
                             f"the weighted stages {[s.weight_idx for s in weighted]}")
        for l, stage in enumerate(weighted):
            if self.weights[l].shape != stage.weight_shape:
                raise ValueError(f"layer {l}: weight shape {self.weights[l].shape}, "
                                 f"expected {stage.weight_shape}")
            if self.biases[l].shape != stage.weight_shape[1:]:
                raise ValueError(f"layer {l}: bias shape {self.biases[l].shape}")

    def copy(self) -> "Network":
        return Network(
            input_hw=self.input_hw,
            stages=list(self.stages),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def _check_chain(input_hw, stages) -> None:
    """ValueError naming the first stage that cannot take what the stage before
    it gives, from an input_hw x input_hw x 1 image (from any input that the
    Flatten stage turns into the first fan-in, for input_hw None); the last
    stage, and only it, must be a final Dense stage."""
    hw, ch, feats = input_hw, 1, None
    for k, stage in enumerate(stages):
        if isinstance(stage, FlattenStage):
            hw, feats = None, (None if hw is None else hw * hw * ch)
        elif isinstance(stage, DenseStage):
            if hw is not None or feats not in (None, stage.in_features):
                raise ValueError(f"stage {k} (dense): takes {stage.in_features} "
                                 f"features, given {feats or 'a feature map'}")
            feats = stage.out_features
        elif hw is None:
            raise ValueError(f"stage {k}: no feature map to convolve or pool")
        elif isinstance(stage, ConvStage):
            if hw < stage.kernel or stage.in_ch != ch:
                raise ValueError(f"stage {k} (conv): a {stage.kernel}x{stage.kernel}x"
                                 f"{stage.in_ch} kernel does not fit a {hw}x{hw}x{ch} map")
            hw, ch = hw - stage.kernel + 1, stage.out_ch
        elif hw % stage.kernel:
            raise ValueError(f"stage {k} (pool): pool {stage.kernel} does not divide "
                             f"map size {hw}")
        else:
            hw //= stage.kernel
    finals = [k for k, s in enumerate(stages) if isinstance(s, DenseStage) and s.final]
    if finals != [len(stages) - 1]:
        raise ValueError(f"final stages {finals}: the last stage, and only it, must "
                         "be a final dense stage")


def mlp_stages(layer_sizes) -> list:
    """Flatten, then one dense stage per pair of adjacent layer sizes."""
    sizes = tuple(layer_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output layer")
    return [FlattenStage()] + [
        DenseStage(l, fan_in, fan_out, final=l == len(sizes) - 2)
        for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:]))
    ]


def init_mlp(layer_sizes=DEFAULT_LAYERS, seed: int = 0) -> Network:
    """ReLU hidden layers and a linear output on the flattened input."""
    return he_uniform(None, mlp_stages(layer_sizes), seed)


def lenet5_stages(input_hw: int) -> list:
    """LeNet-5 topology on input_hw x input_hw images: conv5x6, pool, conv5x16,
    pool, 120-84-10 dense. A ValueError names the first stage that does not
    chain."""
    side = ((input_hw - 4) // 2 - 4) // 2  # the map side the second pool gives
    stages = [
        ConvStage(0, 5, 1, 6), PoolStage(2), ConvStage(1, 5, 6, 16), PoolStage(2),
        FlattenStage(), DenseStage(2, side * side * 16, 120, final=False),
        DenseStage(3, 120, 84, final=False), DenseStage(4, 84, 10, final=True),
    ]
    _check_chain(input_hw, stages)
    return stages


def init_lenet5(input_hw: int = 28, seed: int = 0) -> Network:
    """The LeNet-5 of ``lenet5_stages``."""
    return he_uniform(input_hw, lenet5_stages(input_hw), seed)


def weight_shapes(stages) -> list:
    """The (fan-in, fan-out) matmul shape of each weighted stage, in order."""
    return [s.weight_shape for s in stages if isinstance(s, (ConvStage, DenseStage))]


def he_uniform(input_hw, stages, seed: int) -> Network:
    """The network of ``stages`` with U(-sqrt(6/fan_in), sqrt(6/fan_in)) weights
    drawn in stage order and zero biases."""
    _check_chain(input_hw, stages)  # a bad chain can declare a fan-in of 0
    rng = np.random.default_rng(seed)
    shapes = weight_shapes(stages)
    weights = [rng.uniform(-np.sqrt(6.0 / fan_in), np.sqrt(6.0 / fan_in),
                           size=(fan_in, fan_out)) for fan_in, fan_out in shapes]
    return Network(input_hw, stages, weights, [np.zeros(fan_out) for _, fan_out in shapes])


def fit_error(side: int | None, shapes, split: str, image_shape,
              top_label: int) -> str | None:
    """Why a network built for ``side`` (its ``input_hw``) with weights of
    ``shapes`` cannot take a split's images of ``image_shape`` (h, w) labelled
    up to ``top_label``, or None when it can."""
    (h, w), fan_in, outputs = image_shape, shapes[0][0], shapes[-1][1]
    if side is None and fan_in != h * w:
        return (f"the MLP takes {fan_in} inputs, but the {split} images are "
                f"{h}x{w} = {h * w} pixels")
    if side is not None and (h, w) != (side, side):
        return f"the CNN takes {side}x{side} images, but the {split} images are {h}x{w}"
    if outputs <= top_label:
        return (f"the network has {outputs} outputs, but the {split} labels reach "
                f"{top_label}")
    return None


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


def forward(model: Network, x: np.ndarray, linear_fn=None, caches=None,
            start: int = 0) -> np.ndarray:
    """Forward pass returning the logits.

    Runs ``model.stages[start:]`` on ``x``, the input of the stage at position
    ``start``: float64 (N, H, W, C), or (N, features) for an MLP's Flatten or
    first Dense stage. ``linear_fn(model, weight_idx, a2d)`` replaces the
    default ``a2d @ W + b``; a dense stage hands it its input as given, so a
    pass that starts at one may pass another form of that input, such as the
    ``Int8Tensor`` that ``quant_forward`` recorded. Each stage appends what
    backward needs to ``caches`` when it is a list; without one, no stage's
    activations outlive the stage after it.
    """
    a = x
    keep = caches.append if caches is not None else lambda entry: None
    for stage in model.stages[start:]:
        if isinstance(stage, PoolStage):
            n, h, w, c = a.shape
            k = stage.kernel
            keep(("pool", stage, a.shape))
            a = a.reshape(n, h // k, k, w // k, k, c).mean(axis=(2, 4))
        elif isinstance(stage, FlattenStage):
            keep(("flatten", stage, a.shape))
            a = a.reshape(a.shape[0], -1)
        else:
            conv = isinstance(stage, ConvStage)
            in_shape, a2d = (a.shape, im2col(a, stage.kernel)) if conv else (None, a)
            idx = stage.weight_idx
            # ``a`` alone names each result, so none outlives the one after it
            a = (
                a2d @ model.weights[idx] + model.biases[idx]
                if linear_fn is None
                else linear_fn(model, idx, a2d)
            )
            if conv:
                n, h, w, _ = in_shape
                a = a.reshape(n, h - stage.kernel + 1, w - stage.kernel + 1, stage.out_ch)
            if conv or not stage.final:
                a = np.maximum(a, 0.0)
            keep(("conv" if conv else "dense", stage, in_shape, a2d, a))
    return a


def backward(model: Network, caches, labels):
    """Gradients of mean cross-entropy; ReLU masks from cached activations.

    The masks come from the cached (possibly fault-perturbed) activations,
    so a substituted forward trains straight-through. The walk stops at the
    first weighted stage: the network input needs no gradient.
    """
    logits = caches[-1][4]
    n = logits.shape[0]
    delta = softmax(logits)
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.weights)
    for kind, stage, in_shape, *rest in reversed(caches):
        if kind == "flatten":
            delta = delta.reshape(in_shape)
        elif kind == "pool":
            k = stage.kernel
            delta = np.repeat(np.repeat(delta, k, axis=1), k, axis=2) / (k * k)
        else:
            a2d, out = rest
            if kind == "conv" or not stage.final:
                delta = delta * (out > 0)
            d2 = delta.reshape(-1, out.shape[-1])
            grads_w[stage.weight_idx] = a2d.T @ d2
            grads_b[stage.weight_idx] = d2.sum(axis=0)
            if stage.weight_idx == 0:
                break
            delta = d2 @ model.weights[stage.weight_idx].T
            if kind == "conv":
                delta = col2im(delta, in_shape, stage.kernel)
    return grads_w, grads_b


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels) -> float:
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(n), labels].mean())
