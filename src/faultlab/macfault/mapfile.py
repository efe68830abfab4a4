"""Fault map file format: YAML document with config, faults, and FSR dump.

Schema (faultlab-faultmap/1):
  format: faultlab-faultmap/1
  config: {n_row, n_col, fmt}
  seed: int or null
  fr_max_non_crit: float or null
  faults: [{row, col, cone_bits: [[bit, stuck], ...], carry: bool}]
  fsr: [{row, col, criticality}]          # present when an FSR was dumped
"""

from __future__ import annotations

import numpy as np

from ..yamlio import naming, read_document, write_document
from .array import ArrayConfig, ArrayState, FaultStatusRegister
from .faults import CRITICAL, NON_CRITICAL, PRODUCT_WIDTH, FaultMap

FORMAT_TAG = "faultlab-faultmap/1"


def cone_bits(stuck0: int, stuck1: int) -> tuple:
    """((bit, stuck value), ...) of a FaultMap's disjoint masks, as a file lists them."""
    bits = stuck0 | stuck1
    return tuple((b, stuck1 >> b & 1) for b in range(bits.bit_length()) if bits >> b & 1)


def cone_masks(pairs) -> tuple:
    """(stuck0, stuck1) of a file's ((bit, stuck value), ...); inverts ``cone_bits``."""
    masks, widest = [0, 0], max(PRODUCT_WIDTH.values())
    for bit, value in pairs:
        bit = int(bit)
        if not (0 <= bit < widest and value in (0, 1)) or (masks[0] | masks[1]) >> bit & 1:
            raise ValueError(f"cone bit {[bit, value]}: expected a bit below {widest}, "
                             "listed once and stuck at 0 or 1")
        masks[int(value)] |= 1 << bit
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


def load_fault_map(path):
    """Returns (config, fault_map, fsr_or_None, seed_or_None).

    A malformed entry, a fault outside the array and an FSR that does not
    list the map's PEs each raise ValueError naming the file and the entry.
    """
    doc = read_document(path, FORMAT_TAG)
    with naming(path):
        cfg = doc["config"]
    with naming(f"{path}: config"):
        config = ArrayConfig(n_row=cfg["n_row"], n_col=cfg["n_col"], fmt=cfg["fmt"])
    items = doc.get("faults", [])
    if not isinstance(items, list):
        raise ValueError(f"{path}: faults: expected a list")
    faults = []
    for i, item in enumerate(items):
        with naming(f"{path}: faults[{i}]"):
            if not isinstance(item["carry"], bool):
                raise ValueError(f"carry must be true or false, got {item['carry']!r}")
            faults.append((int(item["row"]), int(item["col"]),
                           *cone_masks(item["cone_bits"]), item["carry"]))
    with naming(path):
        fault_map = FaultMap.from_entries(sorted(faults))  # in any file order
        ArrayState(config=config, faults=fault_map)  # every fault inside the array
    fsr = None
    if "fsr" in doc:
        with naming(f"{path}: fsr"):
            entries = doc["fsr"]
            pes = np.array([(int(e["row"]), int(e["col"])) for e in entries],
                           dtype=np.intp).reshape(-1, 2)
            for e in entries:
                if e["criticality"] not in (CRITICAL, NON_CRITICAL):
                    raise ValueError(f"unknown criticality {e['criticality']!r}")
            fsr = FaultStatusRegister(
                rows=pes[:, 0], cols=pes[:, 1],
                critical=np.array([e["criticality"] == CRITICAL for e in entries], bool),
                fr_max_non_crit=float(doc["fr_max_non_crit"]),
            )
            fsr.check(fault_map)
    return config, fault_map, fsr, doc.get("seed")
