"""Fault map file: a YAML dump of a seeded array's faults and its FSR.

``deactivate`` runs write one per seed. The file is an output, documented
for external tooling; faultlab does not read it back.

Schema (faultlab-faultmap/1):
  format: faultlab-faultmap/1
  config: {n_row, n_col, fmt}
  seed: int or null
  fr_max_non_crit: float or null
  faults: [{row, col, cone_bits: [[bit, stuck], ...], carry: bool}]
  fsr: [{row, col, criticality}]          # present when an FSR was dumped
"""

from __future__ import annotations

from ..yamlio import write_document
from .array import ArrayConfig, FaultStatusRegister
from .faults import CRITICAL, NON_CRITICAL, PRODUCT_WIDTH, FaultMap

FORMAT_TAG = "faultlab-faultmap/1"


def cone_bits(stuck0: int, stuck1: int) -> tuple:
    """((bit, stuck value), ...) of a FaultMap's disjoint masks, as a file lists them."""
    bits = stuck0 | stuck1
    return tuple((b, stuck1 >> b & 1) for b in range(bits.bit_length()) if bits >> b & 1)


def cone_masks(pairs) -> tuple:
    """(stuck0, stuck1) of ((bit, stuck value), ...); inverts ``cone_bits``."""
    masks, widest = [0, 0], max(PRODUCT_WIDTH.values())
    for bit, value in pairs:
        if not (0 <= bit < widest and value in (0, 1)) or (masks[0] | masks[1]) >> bit & 1:
            raise ValueError(f"cone bit {[bit, value]}: expected a bit below {widest}, "
                             "listed once and stuck at 0 or 1")
        masks[value] |= 1 << bit
    return tuple(masks)


def save_fault_map(path, config: ArrayConfig, fault_map: FaultMap,
                   fsr: FaultStatusRegister | None = None, seed: int | None = None):
    doc = {
        "format": FORMAT_TAG,
        "config": {"n_row": config.n_row, "n_col": config.n_col, "fmt": config.fmt},
        "seed": seed,
        "fr_max_non_crit": None if fsr is None else fsr.fr_max_non_crit,
        "faults": [
            {"row": r, "col": c, "cone_bits": [list(b) for b in cone_bits(zeros, ones)],
             "carry": carry}
            for r, c, zeros, ones, carry in fault_map.entries()
        ],
    }
    if fsr is not None:
        doc["fsr"] = [
            {"row": r, "col": c, "criticality": CRITICAL if crit else NON_CRITICAL}
            for r, c, crit in zip(fsr.rows.tolist(), fsr.cols.tolist(),
                                  fsr.critical.tolist())
        ]
    write_document(path, doc)
