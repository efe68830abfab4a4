"""Inference in float, int8-quantized, and bfloat16 numeric modes.

Every mode runs the one ``Network`` forward pass on the one model input,
``model_input(images)``: stored image bytes as (N, H, W, 1) floats in
[0, 1], which an MLP's Flatten stage turns into (N, H*W) rows. The bytes
are a whole set (evaluation, whose int8 activation scales are per tensor)
or one minibatch's rows (training). Float mode is that pass
as it is; the quantized modes replace its linear operator and expose an
injectable integer matmul, so the MAC fault model can reroute every
multiply through a faulty processing element. With the default matmul they
are the fault-free baselines. No mode keeps the backward caches.

int8 mode: weights quantized once per tensor, activations re-quantized
per layer (symmetric, max/127), products and sums accumulated exactly.
A caller may pass stored weights as ``weights_q``. Integer matmuls run in
floating point with every partial sum an integer the format holds exactly,
so results are bit-stable regardless of BLAS order (see
``exact_int_matmul``); each new accumulator is rescaled and biased in
place. Images, ReLU and pool outputs are never negative, so
``quantize_int8`` rounds them on its non-negative path.

One record is the only way a pass reuses fault-free work. A fault-free
pass can record the input ``x``, then per weighted stage its stored
weights and its quantized input (None for a convolution, whose patches are
not kept), then the logits. A later pass on the same input finds the first
stage whose weights differ from the record: at a dense stage it starts
there from the recorded input, at a convolution it reruns from ``x``, and
with none differing it returns the recorded logits. So a change to the
output layer alone costs one matmul, and a pass whose first layer is
dense never quantizes its input again.

bfloat16 mode: weights and activations rounded to bfloat16; products of
two bfloat16 values are exact in float64, accumulation stays in full
precision with rounding applied at each layer boundary.
"""

from __future__ import annotations

import numpy as np

from ..quantnum import Int8Tensor, bf16_round_array, quantize_int8
from .data import LabeledDataset
from .network import DenseStage, forward

MODES = ("float", "int8", "bfloat16")


def quantize_weights(model) -> list[Int8Tensor]:
    """Per-tensor symmetric int8 quantization of every weight matrix."""
    return [quantize_int8(w) for w in model.weights]


# Each int8 product has magnitude at most 128 * 128 = 2**14, so a sum over
# at most 2**10 of them stays within float32's 2**24 exact-integer range.
FLOAT32_EXACT_FAN_IN = 2**10


def exact_int_matmul(aq: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """Exact integer matmul of int8-valued operands, returned as float64.

    Runs in float32 up to ``FLOAT32_EXACT_FAN_IN`` inputs and in float64
    (exact below 2**53) beyond; no partial sum is ever rounded.
    """
    dtype = np.float32 if aq.shape[-1] <= FLOAT32_EXACT_FAN_IN else np.float64
    acc = aq.astype(dtype, copy=False) @ wq.astype(dtype, copy=False)
    return acc.astype(np.float64, copy=False)


def model_input(images: np.ndarray) -> np.ndarray:
    """Stored uint8 images (N, H, W) as (N, H, W, 1) floats in [0, 1].

    The one converter from stored bytes to the input of every network.
    ``images`` is a whole set or one minibatch's rows; each value is its
    byte divided by 255, so converting rows gives the rows of a converted set.
    """
    # cast and scaled by one ufunc into one array, before the channel axis is
    # added: numpy divides a trailing length-1 axis about twice as slowly
    return np.divide(images, 255.0, dtype=np.float64)[..., None]


def quant_forward(model, x: np.ndarray, fmt: str = "int8", matmul_fn=None,
                  weights_q=None, baseline=None) -> np.ndarray:
    """Quantized forward pass with an injectable integer matmul.

    ``matmul_fn(weight_idx, aq, wq) -> accumulator array`` defaults to the
    exact product-and-sum; it returns a new float64 array, which int8 mode
    rescales in place. For int8, ``weights_q`` may supply pre-quantized
    ``Int8Tensor`` weights (e.g. after fault injection into stored bytes).

    ``baseline`` records one pass of ``model`` on ``x`` for later passes
    to reuse; it is for int8 mode with the exact matmul only. Given an
    empty list, the pass appends ``x``, then each weighted stage's
    ``(stored weights, quantized input)``, then the logits; a convolution's
    quantized input is None, since its patches are not kept. Given a filled
    list, the pass finds the first stage whose ``Int8Tensor`` differs from
    the recorded one (another object, and unequal ``scale`` or ``raw``). A
    dense stage starts the pass from its recorded input, a convolution
    reruns it from ``x``: the same arrays flow into that stage as without a
    record, so the logits are bit-identical. With no weights differing it
    returns a copy of the recorded logits. The record belongs to ``model``,
    whose biases shaped the recorded inputs; a ValueError names a record
    used with another ``x``.
    """
    if baseline is not None and (fmt != "int8" or matmul_fn is not None):
        raise ValueError(f"a baseline record needs fmt 'int8' and the exact matmul, "
                         f"got fmt {fmt!r}"
                         + ("" if matmul_fn is None else " and a matmul_fn"))
    recording = baseline is not None and not baseline
    start, stage_input = 0, x
    if fmt == "int8":
        wq = weights_q if weights_q is not None else quantize_weights(model)
        # the stage position of each dense stage, by weight index
        dense = {s.weight_idx: k for k, s in enumerate(model.stages)
                 if isinstance(s, DenseStage)}
        if baseline:
            recorded_x, *recorded, logits = baseline
            if x is not recorded_x and not np.array_equal(x, recorded_x):
                raise ValueError("the baseline record was made on another input x")
            changed = next((idx for idx, (w, _) in enumerate(recorded)
                            if w != wq[idx]), None)
            if changed is None:
                return logits.copy()
            if changed in dense:
                start, stage_input = dense[changed], recorded[changed][1]
        elif recording:
            baseline.append(x)

        def linear(mdl, idx, a):
            q = a if isinstance(a, Int8Tensor) else quantize_int8(a)
            acc = (
                exact_int_matmul(q.raw, wq[idx].raw)
                if matmul_fn is None
                else matmul_fn(idx, q.raw, wq[idx].raw)
            )
            acc *= q.scale * wq[idx].scale
            np.add(acc, mdl.biases[idx], out=acc)
            if recording:
                baseline.append((wq[idx], q if idx in dense else None))
            return acc

    elif fmt == "bfloat16":
        wb = [bf16_round_array(w).astype(np.float64) for w in model.weights]

        def linear(mdl, idx, a):
            ab = bf16_round_array(a).astype(np.float64)
            acc = ab @ wb[idx] if matmul_fn is None else matmul_fn(idx, ab, wb[idx])
            return acc + mdl.biases[idx]

    else:
        raise ValueError(f"unknown quantized mode {fmt!r}, expected int8 or bfloat16")

    logits = forward(model, stage_input, linear_fn=linear, start=start)
    if recording:
        baseline.append(logits)
        return logits.copy()  # the recorded logits stay the record's own
    return logits


def evaluate(model, dataset: LabeledDataset, mode: str = "float") -> float:
    """Top-1 accuracy of the model on a dataset, in [0, 1]."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    x = model_input(dataset.images)
    if mode == "float":
        logits = forward(model, x)
    else:
        logits = quant_forward(model, x, fmt=mode)
    return float(np.mean(np.argmax(logits, axis=1) == dataset.labels))


def forward_hooked(model, x: np.ndarray, mac_hook, fmt: str = "int8") -> np.ndarray:
    """Reference forward pass routing every scalar multiply through a hook.

    ``mac_hook(x_op, w_op, site) -> product`` receives int8 raw operands
    (int8 mode) or bfloat16-rounded floats, with ``site=(weight_idx, i, j)``.
    With the identity hook ``lambda x, w, s: x * w`` this is bit-identical
    to ``quant_forward``; it exists as the slow oracle the vectorized fault
    paths are checked against.
    """

    def matmul(idx, aq, wq):
        n, fan_in = aq.shape
        fan_out = wq.shape[1]
        acc = np.zeros((n, fan_out))
        for i in range(fan_in):
            for j in range(fan_out):
                col = np.array(
                    [mac_hook(aq[s, i], wq[i, j], (idx, i, j)) for s in range(n)],
                    dtype=np.float64,
                )
                acc[:, j] += col
        return acc

    return quant_forward(model, x, fmt=fmt, matmul_fn=matmul)


__all__ = [
    "MODES",
    "evaluate",
    "exact_int_matmul",
    "forward_hooked",
    "model_input",
    "quant_forward",
    "quantize_weights",
]
