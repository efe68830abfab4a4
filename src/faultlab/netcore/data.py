"""Dataset ingestion: IDX container parsing and a synthetic stand-in.

The synthetic generator renders seeded Gaussian blobs to 28x28 grayscale
images so the whole suite runs without downloading MNIST; real IDX files
(optionally gzipped) are parsed bit-exactly when available.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..yamlio import naming

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
BLOCK = 128  # samples synthetic_blobs renders at once: about 4 MB at 28x28


class IdxError(ValueError):
    """A malformed IDX file."""


@dataclass(frozen=True)
class LabeledDataset:
    """Grayscale images (N, H, W) as bytes 0-255 with integer labels 0-9."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 3:
            raise ValueError(f"images must be (N, H, W), got shape {self.images.shape}")
        if self.images.dtype != np.uint8:
            raise ValueError(f"images must be uint8, got {self.images.dtype}")
        if len(self.images) != len(self.labels):
            raise ValueError(f"{len(self.images)} images but {len(self.labels)} labels")
        if len(self.labels) and not (
            (self.labels >= 0).all() and (self.labels <= 9).all()
        ):
            raise ValueError("labels must be in [0, 9]")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, n: int | None) -> "LabeledDataset":
        """The first n samples (all of them when n is None); a ValueError
        names an n above the set's size."""
        if n is not None and n > len(self):
            raise ValueError(f"cannot take {n} samples from a set of {len(self)}")
        return LabeledDataset(self.images[:n], self.labels[:n])


def _read_bytes(path) -> bytes:
    data = Path(path).read_bytes()
    try:
        return gzip.decompress(data) if Path(path).suffix == ".gz" else data
    except (OSError, EOFError, zlib.error) as err:  # a damaged or cut gzip stream
        raise IdxError(f"{path}: not a whole gzip file: {err}") from None


def _parse_idx(data: bytes, path, expected_magic: int, expected_dims: int):
    header = 4 + 4 * expected_dims
    if len(data) < header:
        raise IdxError(f"{path}: shorter than its {header}-byte header")
    magic = struct.unpack(">i", data[:4])[0]
    if magic != expected_magic:
        raise IdxError(f"{path}: wrong magic 0x{magic:08x}, "
                       f"expected 0x{expected_magic:08x}")
    dims = struct.unpack(f">{expected_dims}i", data[4:header])
    if min(dims) < 0:
        raise IdxError(f"{path}: negative dimension in shape {dims}")
    payload = math.prod(dims)
    if len(data) - header < payload:
        raise IdxError(f"{path}: payload has {len(data) - header} bytes, "
                       f"expected {payload}")
    body = np.frombuffer(data[header : header + payload], dtype=np.uint8)
    return dims, body


def load_idx(image_path, label_path) -> LabeledDataset:
    """Parse a big-endian IDX image/label file pair."""
    (n_img, h, w), pixels = _parse_idx(
        _read_bytes(image_path), image_path, IDX_IMAGE_MAGIC, 3
    )
    (n_lbl,), labels = _parse_idx(_read_bytes(label_path), label_path, IDX_LABEL_MAGIC, 1)
    if n_img != n_lbl:
        raise IdxError(f"{label_path}: {n_lbl} labels for the {n_img} images "
                       f"of {image_path}")
    images = pixels.reshape(n_img, h, w)
    with naming(label_path):  # a label above 9
        return LabeledDataset(images=images, labels=labels.astype(np.int64))


def synthetic_blobs(
    n: int,
    classes: int = 10,
    size: int = 28,
    seed: int = 0,
    template_seed: int = 2718,
    blobs_per_class: int = 3,
    center_jitter: float = 1.2,
    amplitude_jitter: float = 0.25,
    pixel_noise: float = 12.0,
    sigma_min_frac: float = 0.08,
    sigma_max_frac: float = 0.16,
) -> LabeledDataset:
    """Render Gaussian class blobs to grayscale images.

    Each class owns a fixed arrangement of blobs drawn from
    ``template_seed`` (shared between train and test splits); ``seed``
    drives the per-sample draw, which jitters blob centers and amplitudes
    and adds pixel noise, so the task is learnable to high but not perfect
    accuracy.

    The ``seed`` stream is fixed: the n labels, then per sample ``3B +
    size**2`` normals (B = ``blobs_per_class``) in order: (B, 2) center
    jitters, B gains, pixel noise, each ``0.0 + scale * z`` as
    ``Generator.normal`` makes it. ``BLOCK`` samples draw theirs in one call
    and sum each image in one order (zeros, + blob 0, ..., + noise).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 1 <= classes <= 10:
        raise ValueError("classes must be in [1, 10]")
    trng = np.random.default_rng(template_seed)
    margin = size * 0.18
    centers = trng.uniform(margin, size - margin, size=(classes, blobs_per_class, 2))
    sigmas = trng.uniform(size * sigma_min_frac, size * sigma_max_frac,
                          size=(classes, blobs_per_class))
    amps = trng.uniform(150.0, 235.0, size=(classes, blobs_per_class))
    # a scalar's ** 2 is libm's pow, at times a bit off an array's square: keep it
    den = np.array([[2.0 * s ** 2 for s in row] for row in sigmas])

    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    images = np.empty((n, size, size), dtype=np.uint8)
    nb = blobs_per_class
    for start in range(0, n, BLOCK):
        c = labels[start:start + BLOCK]
        z = rng.standard_normal((len(c), 3 * nb + size * size))
        jitter = (0.0 + center_jitter * z[:, :2 * nb]).reshape(len(c), nb, 2)
        gains = 1.0 + (0.0 + amplitude_jitter * z[:, 2 * nb:3 * nb])
        img = np.zeros((len(c), size, size))
        for b in range(nb):  # r2[i, j] = (i - cy)**2 + (j - cx)**2, squared per row, column
            d2 = (np.arange(size) - (centers[c, b] + jitter[:, b])[:, :, None]) ** 2
            r2 = d2[:, 0, :, None] + d2[:, 1, None, :]
            img += ((amps[c, b] * gains[:, b])[:, None, None]
                    * np.exp(-r2 / den[c, b][:, None, None]))
        img += (0.0 + pixel_noise * z[:, 3 * nb:]).reshape(img.shape)
        images[start:start + len(c)] = np.clip(img, 0.0, 255.0).astype(np.uint8)
    return LabeledDataset(images=images, labels=labels.astype(np.int64))
