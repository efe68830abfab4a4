"""Fault map file: a YAML document of a seeded array's faults and its FSR.

``deactivate`` runs write one per seed. The file is an output, documented
for external tooling; faultlab does not read it back. ``save_fault_map``
writes this fixed schema line by line, the bytes ``yaml.safe_dump`` would
write for it (block style, keys in schema order).

Schema (faultlab-faultmap/1):
  format: faultlab-faultmap/1
  config: {n_row, n_col, fmt}
  seed: int or null
  fr_max_non_crit: float or null
  faults: [{row, col, cone_bits: [[bit, stuck], ...], carry: bool}]
  fsr: [{row, col, criticality}]          # present when an FSR was dumped
"""

from __future__ import annotations

from pathlib import Path

from ..yamlio import scalar_text
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
    lines = [f"format: {FORMAT_TAG}", "config:", f"  n_row: {config.n_row}",
             f"  n_col: {config.n_col}", f"  fmt: {config.fmt}", f"seed: {scalar_text(seed)}",
             f"fr_max_non_crit: {scalar_text(fsr and fsr.fr_max_non_crit)}",
             "faults:" + ("" if len(fault_map) else " []")]
    for r, c, zeros, ones, carry in fault_map.entries():  # no signature is empty
        lines += [f"- row: {r}", f"  col: {c}", "  cone_bits:"]
        lines += [f"  - - {bit}\n    - {value}" for bit, value in cone_bits(zeros, ones)]
        lines.append(f"  carry: {scalar_text(carry)}")
    if fsr is not None:
        lines.append("fsr:" + ("" if len(fault_map) else " []"))
        lines += [f"- row: {r}\n  col: {c}\n  criticality: "
                  f"{CRITICAL if crit else NON_CRITICAL}"
                  for (r, c), crit in zip(fault_map, fsr.critical.tolist(), strict=True)]
    Path(path).write_text("\n".join(lines) + "\n")
