"""The synthetic blob renderer one sample at a time, kept as a reference.

``netcore.synthetic_blobs`` used to draw and render each sample on its own:
its jitters and gains through ``Generator.normal``, its blobs summed on its
own grid, then its pixel noise. It now draws a block of samples' normals
at once and renders the block together; tests check that it gives these
images and labels byte for byte.
"""

import numpy as np

from faultlab.netcore.data import LabeledDataset


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

    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    images = np.empty((n, size, size), dtype=np.uint8)
    for i, c in enumerate(labels):
        img = np.zeros((size, size), dtype=np.float64)
        jitter = rng.normal(0.0, center_jitter, size=(blobs_per_class, 2))
        gains = 1.0 + rng.normal(0.0, amplitude_jitter, size=blobs_per_class)
        for b in range(blobs_per_class):
            cy, cx = centers[c, b] + jitter[b]
            r2 = (yy - cy) ** 2 + (xx - cx) ** 2
            img += amps[c, b] * gains[b] * np.exp(-r2 / (2.0 * sigmas[c, b] ** 2))
        img += rng.normal(0.0, pixel_noise, size=img.shape)
        images[i] = np.clip(img, 0.0, 255.0).astype(np.uint8)
    return LabeledDataset(images=images, labels=labels.astype(np.int64))
