"""Frozen per-PE fault seeding: one signature built per PE.

This is the original implementation of ``seed_fault_map``, kept verbatim
as the reference the array-native seeding must reproduce for every seed:
the same rng draws in the same order (indexed in column-major PE order)
and the same signature per PE.
"""

from __future__ import annotations

import numpy as np

from faultlab.macfault.array import per_column_fault_count
from faultlab.macfault.faults import PRODUCT_WIDTH


def _sample_signatures(pes, mix, rng, fmt):
    n = len(pes)
    width = PRODUCT_WIDTH[fmt]
    lsb = min(mix.lsb_bits, width)
    critical = rng.random(n) < mix.critical_fraction
    counts = rng.integers(1, lsb + 1, size=n)
    bit_order = np.argsort(rng.random((n, lsb)), axis=1)
    high_bits = rng.integers(lsb, width, size=n) if lsb < width else np.zeros(n, int)
    extra_low = rng.random(n) < 0.5
    low_bits = rng.integers(0, lsb, size=n)
    stuck = rng.random((n, width)) < mix.stuck_one_bias
    carry = rng.random(n) < mix.carry_fraction

    faults = {}
    for i, pe in enumerate(pes):
        if critical[i] and lsb < width:
            bits = [int(high_bits[i])]
            if extra_low[i]:
                bits.append(int(low_bits[i]))
        else:
            bits = [int(b) for b in bit_order[i, : counts[i]]]
        cone = tuple((b, int(stuck[i, b])) for b in sorted(set(bits)))
        faults[pe] = (sum(1 << b for b, v in cone if v == 0),
                      sum(1 << b for b, v in cone if v == 1), bool(carry[i]))
    return faults


def seed_fault_map(config, fr_percent, mix, seed):
    """dict (row, col) -> (stuck0, stuck1, carry), in column-major insertion order."""
    k = per_column_fault_count(fr_percent, config.n_row)
    if k == 0:
        return {}
    rng = np.random.default_rng(seed)
    scores = rng.random((config.n_col, config.n_row))
    picked = np.argpartition(scores, k - 1, axis=1)[:, :k]
    pes = [
        (int(row), int(col))
        for col in range(config.n_col)
        for row in sorted(picked[col])
    ]
    return _sample_signatures(pes, mix, rng, config.fmt)
