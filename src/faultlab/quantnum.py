"""Numeric formats and bit-level surgery shared by all fault models.

Two's-complement int8 with a symmetric per-tensor scale, the stored-byte
view of int8 words that the DRAM fault model flips bits in, and bfloat16
encode/decode.

Conventions fixed here for reproducibility:
  * int8 quantization rounds half away from zero,
  * bfloat16 encode rounds to nearest even,
  * bit 7 of an int8 word is the sign bit.

``quantize_int8`` takes min/max once (scale and non-finite check), then
divides, rounds and clamps ``BLOCK`` elements at a time in cache-sized
buffers. With no value below zero it rounds by ``floor(y + 0.5)``, which
equals ``copysign(floor(|y| + 0.5), y)`` exactly for y >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INT8_MIN = -128
INT8_MAX = 127
SIGN_BIT = 7
BLOCK = 1 << 14  # elements per block: its float64 buffers stay in cache


@dataclass(frozen=True, eq=False)
class Int8Tensor:
    """An int8 weight/activation array plus its quantization scale.

    ``raw`` is two's-complement int8; ``scale`` is in value units per LSB,
    so the tensor stands for ``raw * scale``. Two tensors are equal when
    they hold the same scale and the same raw array; the type is unhashable.
    """

    raw: np.ndarray
    scale: float

    def __post_init__(self):
        if self.raw.dtype != np.int8:
            raise ValueError(f"raw must be int8, got {self.raw.dtype}")
        if not (self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")

    def __eq__(self, other):
        if not isinstance(other, Int8Tensor):
            return NotImplemented
        return self is other or (self.scale == other.scale
                                 and np.array_equal(self.raw, other.raw))


def _scale_and_min(values: np.ndarray) -> tuple[float, float]:
    """``int8_scale`` of float64 ``values`` and their minimum (0 when empty)."""
    lo, hi = (float(values.min()), float(values.max())) if values.size else (0.0, 0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):  # NaN or inf anywhere
        raise ValueError("cannot quantize non-finite values")
    peak = max(hi, -lo)
    return (peak / INT8_MAX if peak > 0 else 1.0), lo


def int8_scale(values) -> float:
    """Symmetric per-tensor scale ``max|v| / 127`` (1.0 when all are zero)."""
    return _scale_and_min(np.asarray(values, dtype=np.float64))[0]


def quantize_int8(values, scale: float | None = None) -> Int8Tensor:
    """Quantize real values to two's-complement int8.

    With ``scale=None`` a symmetric per-tensor scale ``max|v| / 127`` is
    chosen. ``values / scale`` rounds half away from zero into [-128, 127].
    """
    values = np.asarray(values, dtype=np.float64)
    auto, lo = _scale_and_min(values)
    scale = auto if scale is None else scale
    if not (scale > 0):
        raise ValueError(f"scale must be positive, got {scale}")
    raw = np.empty(values.shape, dtype=np.int8)
    src, dst = values.reshape(-1), raw.reshape(-1)
    y, mag = np.empty((2, min(src.size, BLOCK)))
    for start in range(0, src.size, BLOCK):
        stop = min(start + BLOCK, src.size)
        yb = np.divide(src[start:stop], scale, out=y[: stop - start])
        if lo >= 0:  # every y >= 0 (or -0.0), where |y| = y and no clamp at -128
            yb += 0.5
            dst[start:stop] = np.minimum(np.floor(yb, out=yb), INT8_MAX, out=yb)
        else:
            mb = np.abs(yb, out=mag[: stop - start])
            mb += 0.5
            np.copysign(np.floor(mb, out=mb), yb, out=mb)
            dst[start:stop] = np.clip(mb, INT8_MIN, INT8_MAX, out=mb)
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
