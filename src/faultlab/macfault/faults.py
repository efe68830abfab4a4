"""Logic-cone fault signatures on a multiplier output.

A fault is a set of stuck bits in the cone of the product's magnitude
bits, plus an optional worst-case carry perturbation one bit above the
highest stuck bit. For stuck bits up to and including position K the
error is bounded by sum_{i=0..K+1} 2^i = 2^(K+2) - 1 (the 2^(K+1) term
is the carry); without the carry it stays below 2^(K+1).

int8 products are treated in sign-magnitude form (16-bit magnitude);
bfloat16 faults act on the mantissa field of the bfloat16-rounded
product (7 stored mantissa bits).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..quantnum import bf16_decode_array, bf16_encode_array

PRODUCT_WIDTH = {"int8": 16, "bfloat16": 7}
NON_CRITICAL_LSBS = {"int8": 2, "bfloat16": 4}

CRITICAL = "critical"
NON_CRITICAL = "non-critical"

SIM = "sim"
WORST = "worst"


@dataclass(frozen=True)
class LogicConeFault:
    """One PE's permanent fault: stuck product bits plus a carry flag."""

    pe: tuple
    cone_bits: tuple  # ((bit_index, stuck_value), ...) sorted by bit
    carry_fault: bool = False

    def __post_init__(self):
        if not self.cone_bits:
            raise ValueError("a fault needs at least one cone bit")
        seen = set()
        for bit, val in self.cone_bits:
            if bit < 0:
                raise ValueError(f"negative bit index {bit}")
            if val not in (0, 1):
                raise ValueError(f"stuck value must be 0 or 1, got {val}")
            if bit in seen:
                raise ValueError(f"duplicate cone bit {bit}")
            seen.add(bit)
        object.__setattr__(
            self, "cone_bits", tuple(sorted((int(b), int(v)) for b, v in self.cone_bits))
        )

    @property
    def max_bit(self) -> int:
        return self.cone_bits[-1][0]


def cone_bits(stuck0: int, stuck1: int) -> tuple:
    """((bit, stuck value), ...) of the bits set in two disjoint masks."""
    bits = stuck0 | stuck1
    return tuple((b, stuck1 >> b & 1) for b in range(bits.bit_length()) if bits >> b & 1)


@dataclass(frozen=True, eq=False)
class FaultMap(Mapping):
    """The faulty PEs of one array, as parallel arrays in (row, col) order.

    PE i sticks the product bits set in ``stuck0[i]`` at 0 and those in
    ``stuck1[i]`` at 1 (disjoint masks, not both empty); ``carry[i]``
    flags a carry fault one bit above its highest stuck bit. As a mapping
    it reads ``(row, col) -> LogicConeFault``.
    """

    rows: np.ndarray
    cols: np.ndarray
    stuck0: np.ndarray
    stuck1: np.ndarray
    carry: np.ndarray

    def __post_init__(self):
        for a in (self.rows, self.cols, self.stuck0, self.stuck1, self.carry):
            a.setflags(write=False)

    @classmethod
    def from_faults(cls, faults) -> "FaultMap":
        """The map of scalar faults, each keyed by its ``pe``."""
        faults = sorted(faults, key=lambda f: f.pe)
        for a, b in zip(faults, faults[1:]):
            if a.pe == b.pe:
                raise ValueError(f"duplicate fault for PE {a.pe}")
        widest = max(PRODUCT_WIDTH.values())
        for f in faults:
            if f.max_bit >= widest:
                raise ValueError(f"cone bit {f.max_bit} outside every product width")
        pes = np.array([f.pe for f in faults], dtype=np.intp).reshape(-1, 2)
        masks = np.array([[sum((v == s) << b for b, v in f.cone_bits) for s in (0, 1)]
                          for f in faults], dtype=np.int64).reshape(-1, 2)
        return cls(rows=pes[:, 0], cols=pes[:, 1], stuck0=masks[:, 0],
                   stuck1=masks[:, 1],
                   carry=np.array([f.carry_fault for f in faults], dtype=bool))

    @property
    def max_bit(self) -> np.ndarray:
        """Highest stuck bit of each PE."""
        return np.frexp(self.stuck0 | self.stuck1)[1].astype(np.int64) - 1

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return zip(self.rows.tolist(), self.cols.tolist())

    def __getitem__(self, pe) -> LogicConeFault:
        hit = np.flatnonzero((self.rows == pe[0]) & (self.cols == pe[1]))
        if not len(hit):
            raise KeyError(pe)
        return self.at(hit[0])

    def at(self, i: int) -> LogicConeFault:
        """The fault of the map's i-th PE."""
        return LogicConeFault(
            pe=(int(self.rows[i]), int(self.cols[i])),
            cone_bits=cone_bits(int(self.stuck0[i]), int(self.stuck1[i])),
            carry_fault=bool(self.carry[i]),
        )


def worst_case_error(k: int) -> int:
    """Error bound for faults on bits <= k with carry: 2^(k+2) - 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return (1 << (k + 2)) - 1


def _check_width(max_bit: int, fmt: str):
    width = PRODUCT_WIDTH[fmt]
    if max_bit >= width:
        raise ValueError(f"cone bit {max_bit} outside {fmt} product width {width}")


def apply_fault_to_products(products, fault: LogicConeFault, fmt: str = "int8",
                            mode: str = SIM, rng=None):
    """Vectorized faulty product values for an array of exact products."""
    if mode not in (SIM, WORST):
        raise ValueError(f"mode must be '{SIM}' or '{WORST}'")
    _check_width(fault.max_bit, fmt)
    if fmt == "int8":
        return _apply_int8(np.asarray(products), fault, mode, rng)
    return _apply_bf16(np.asarray(products, dtype=np.float64), fault, mode, rng)


def _carry_signs(error, shape, mode, rng):
    if mode == WORST:
        # push the error further from zero; +1 on ties
        return np.where(error < 0, -1, 1)
    if rng is None:
        raise ValueError("simulation mode needs an rng for the carry sign")
    return rng.integers(0, 2, size=shape) * 2 - 1


def _apply_int8(p, fault, mode, rng):
    p = p.astype(np.int64)
    mag = np.abs(p)
    for bit, val in fault.cone_bits:
        mag = mag | (1 << bit) if val else mag & ~np.int64(1 << bit)
    q = np.where(p < 0, -mag, mag)
    if fault.carry_fault:
        carry = 1 << (fault.max_bit + 1)
        q = q + _carry_signs(q - p, p.shape, mode, rng) * carry
    return q


def _apply_bf16(p, fault, mode, rng):
    bits = bf16_encode_array(p).astype(np.int64)
    man = bits & 0x7F
    stuck = man.copy()
    for bit, val in fault.cone_bits:
        stuck = stuck | (1 << bit) if val else stuck & ~np.int64(1 << bit)
    if fault.carry_fault:
        carry = 1 << (fault.max_bit + 1)
        stuck = stuck + _carry_signs(stuck - man, man.shape, mode, rng) * carry
        stuck = np.clip(stuck, 0, 0x7F)
    out = (bits & ~np.int64(0x7F)) | stuck
    return bf16_decode_array(out.astype(np.uint16)).astype(np.float64)


def faulty_mac(x, w, fault: LogicConeFault | None = None, fmt: str = "int8",
               mode: str = SIM, rng=None):
    """Single multiply through a (possibly faulty) MAC; the scalar reference."""
    if fmt == "int8":
        product = int(x) * int(w)
        if fault is None:
            return product
        return int(apply_fault_to_products(np.array([product]), fault, fmt, mode, rng)[0])
    product = float(x) * float(w)
    if fault is None:
        return product
    return float(apply_fault_to_products(np.array([product]), fault, fmt, mode, rng)[0])
