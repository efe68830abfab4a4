"""Per-run seeds derived from a campaign's master seed."""

import hashlib

import numpy as np


def derive_seed(master: int, kind: str, tag) -> int:
    """31-bit seed of a run's master seed, experiment kind and tag (SHA-256)."""
    digest = hashlib.sha256(f"{master}:{kind}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


def derived_seed(master: int, *tags: int) -> int:
    """32-bit seed of the SeedSequence over the master seed and integer tags."""
    return int(np.random.SeedSequence(entropy=[int(master), *map(int, tags)])
               .generate_state(1)[0])
