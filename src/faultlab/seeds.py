"""Per-run seeds derived from a campaign's master seed."""

import numpy as np


def derived_seed(master: int, *tags: int) -> int:
    """32-bit seed of the SeedSequence over the master seed and integer tags."""
    return int(np.random.SeedSequence(entropy=[int(master), *map(int, tags)])
               .generate_state(1)[0])
