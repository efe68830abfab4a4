"""Numeric formats and bit-level surgery shared by all fault models.

Two's-complement int8 with a symmetric per-tensor scale, the stored-byte
view of int8 words that the DRAM fault model flips bits in, and bfloat16
encode/decode.

Conventions fixed here for reproducibility:
  * int8 quantization rounds half away from zero,
  * bfloat16 encode rounds to nearest even,
  * bit 7 of an int8 word is the sign bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INT8_MIN = -128
INT8_MAX = 127
SIGN_BIT = 7


@dataclass(frozen=True)
class Int8Tensor:
    """An int8 weight/activation array plus its quantization scale.

    ``raw`` is two's-complement int8; ``scale`` is in value units per LSB,
    so the tensor stands for ``raw * scale``.
    """

    raw: np.ndarray
    scale: float

    def __post_init__(self):
        if self.raw.dtype != np.int8:
            raise ValueError(f"raw must be int8, got {self.raw.dtype}")
        if not (self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")


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


def int8_to_byte(raw) -> np.ndarray:
    """View int8 values as the unsigned byte stored in memory."""
    return np.asarray(raw, dtype=np.int8).view(np.uint8)


def bf16_encode_array(x) -> np.ndarray:
    f32 = np.asarray(x, dtype=np.float32)
    bits32 = f32.view(np.uint32)
    lsb = (bits32 >> 16) & 1
    # uint64 keeps the round-to-nearest-even add from wrapping on NaN payloads
    out = (((bits32.astype(np.uint64) + 0x7FFF + lsb) >> 16) & 0xFFFF).astype(np.uint16)
    # NaN payloads must survive the rounding shortcut above.
    nan = np.isnan(f32)
    if np.any(nan):
        out = out.copy()
        out[nan] = ((bits32[nan] >> 16) | 0x0040).astype(np.uint16)
    return out


def bf16_decode_array(bits) -> np.ndarray:
    b = np.asarray(bits, dtype=np.uint16)
    return (b.astype(np.uint32) << 16).view(np.float32)


def bf16_round_array(x) -> np.ndarray:
    """Round an array through the bfloat16 format (encode then decode)."""
    return bf16_decode_array(bf16_encode_array(x))
