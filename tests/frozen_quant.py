"""The int8 quantizer as whole-tensor numpy passes, kept as a reference.

``quantnum.quantize_int8`` used to round this way: one pass over the whole
tensor per step (divide, abs, add, floor, copysign, clip, cast). It now
works in cache-sized blocks and rounds non-negative tensors with
``floor(y + 0.5)``; tests check that it gives these bits exactly.
"""

import numpy as np

from faultlab.quantnum import INT8_MAX, INT8_MIN, Int8Tensor


def round_half_away(x):
    """Round to nearest integer, halves away from zero."""
    x = np.asarray(x, dtype=np.float64)
    # one buffer for every step; empty_like keeps a 0-d input an array
    out = np.abs(x, out=np.empty_like(x))
    out += 0.5
    np.floor(out, out=out)
    return np.copysign(out, x, out=out)


def int8_scale(values) -> float:
    """Symmetric per-tensor scale ``max|v| / 127`` (1.0 when all are zero)."""
    values = np.asarray(values, dtype=np.float64)
    # max(max, -min) is max|v| without an |v| temporary; np.maximum keeps NaN
    peak = float(np.maximum(values.max(), -values.min())) if values.size else 0.0
    if not np.isfinite(peak):
        raise ValueError("cannot quantize non-finite values")
    return peak / INT8_MAX if peak > 0 else 1.0


def quantize_int8(values, scale: float | None = None) -> Int8Tensor:
    """Quantize real values to two's-complement int8.

    With ``scale=None`` a symmetric per-tensor scale ``max|v| / 127`` is
    chosen. Output raw values are clamped to [-128, 127].
    """
    values = np.asarray(values, dtype=np.float64)
    if scale is None:
        scale = int8_scale(values)
    elif not np.all(np.isfinite(values)):
        raise ValueError("cannot quantize non-finite values")
    if not (scale > 0):
        raise ValueError(f"scale must be positive, got {scale}")
    q = round_half_away(values / scale)
    raw = np.clip(q, INT8_MIN, INT8_MAX, out=q).astype(np.int8)
    return Int8Tensor(raw=raw, scale=float(scale))
