"""Logic-cone fault signatures on a multiplier output.

A fault signature is three values: the masks ``stuck0`` and ``stuck1`` of
the product bits its logic cone sticks at 0 and at 1 (disjoint, not both
empty), and a ``carry`` flag for a worst-case carry perturbation one bit
above the highest stuck bit. For stuck bits up to and including position
K the error is bounded by sum_{i=0..K+1} 2^i = 2^(K+2) - 1 (the 2^(K+1)
term is the carry); without the carry it stays below 2^(K+1).

int8 products are treated in sign-magnitude form (16-bit magnitude);
bfloat16 faults act on the mantissa field of the bfloat16-rounded
product (7 stored mantissa bits).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from ..quantnum import bf16_decode_array, bf16_encode_array

PRODUCT_WIDTH = {"int8": 16, "bfloat16": 7}
NON_CRITICAL_LSBS = {"int8": 2, "bfloat16": 4}

CRITICAL = "critical"
NON_CRITICAL = "non-critical"

SIM = "sim"
WORST = "worst"


@dataclass(frozen=True, eq=False)
class FaultMap:
    """The faulty PEs of one array, as parallel arrays in (row, col) order.

    PE i has the signature ``(stuck0[i], stuck1[i], carry[i])``. A ValueError
    names the first PE that repeats or breaks the order, or whose masks
    overlap, are both empty or reach bit 16, the widest product. Iterating
    yields the PEs as ``(row, col)``.
    """

    rows: np.ndarray
    cols: np.ndarray
    stuck0: np.ndarray
    stuck1: np.ndarray
    carry: np.ndarray

    def __post_init__(self):
        for a in (self.rows, self.cols, self.stuck0, self.stuck1, self.carry):
            a.setflags(write=False)
        r, c = self.rows, self.cols
        ahead = np.where(r[1:] != r[:-1], r[1:] - r[:-1], c[1:] - c[:-1])
        bits = self.stuck0 | self.stuck1
        for bad, message in (
            (np.r_[False, ahead == 0], "duplicate fault for PE {pe}"),
            (np.r_[False, ahead < 0], "fault for PE {pe} out of (row, col) order"),
            (bits == 0, "empty fault signature for PE {pe}"),
            ((self.stuck0 & self.stuck1) != 0, "bits stuck at both 0 and 1 for PE {pe}"),
            ((bits >> max(PRODUCT_WIDTH.values())) != 0,
             "cone bit {bit} outside every product width for PE {pe}"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(message.format(pe=(int(r[i]), int(c[i])),
                                                bit=int(bits[i]).bit_length() - 1))

    @classmethod
    def from_entries(cls, entries) -> "FaultMap":
        """The map of ``(row, col, stuck0, stuck1, carry)`` entries."""
        rows, cols, stuck0, stuck1, carry = np.array(
            list(entries), dtype=np.int64).reshape(-1, 5).T
        return cls(rows=rows, cols=cols, stuck0=stuck0, stuck1=stuck1,
                   carry=carry.astype(bool))

    def entries(self) -> list:
        """``(row, col, stuck0, stuck1, carry)`` of each PE, as ``from_entries`` takes."""
        return list(zip(*(a.tolist() for a in astuple(self))))

    @property
    def max_bit(self) -> np.ndarray:
        """Highest stuck bit of each PE."""
        return np.frexp(self.stuck0 | self.stuck1)[1].astype(np.int64) - 1

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return zip(self.rows.tolist(), self.cols.tolist())


def worst_case_error(k: int) -> int:
    """Error bound for faults on bits <= k with carry: 2^(k+2) - 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return (1 << (k + 2)) - 1


def _check_width(max_bit: int, fmt: str):
    width = PRODUCT_WIDTH[fmt]
    if max_bit >= width:
        raise ValueError(f"cone bit {max_bit} outside {fmt} product width {width}")


def stick_bits(p, and_mask, or_mask):
    """``p`` with its magnitude ANDed with ``and_mask`` and ORed with ``or_mask``,
    sign kept (a zero turns ``+or_mask``); the one int8 stuck-bit formula."""
    stuck = (np.abs(p) & and_mask) | or_mask
    return np.where(p < 0, -stuck, stuck)


def apply_fault_to_products(products, stuck0: int, stuck1: int, carry: bool,
                            fmt: str = "int8", mode: str = SIM, rng=None):
    """Faulty values of an array of exact products under one PE's signature."""
    if mode not in (SIM, WORST):
        raise ValueError(f"mode must be '{SIM}' or '{WORST}'")
    top = int(stuck0 | stuck1).bit_length()  # one above the highest stuck bit
    _check_width(top - 1, fmt)
    carry_weight = 1 << top if carry else 0  # a carry fault perturbs bit ``top``
    if fmt == "int8":
        p = np.asarray(products).astype(np.int64)
        q = stick_bits(p, ~stuck0, stuck1)
        if carry_weight:
            q = q + _carry_signs(q - p, p.shape, mode, rng) * carry_weight
        return q
    bits = bf16_encode_array(np.asarray(products, dtype=np.float64)).astype(np.int64)
    man = bits & 0x7F
    stuck = man & ~stuck0 | stuck1
    if carry_weight:
        stuck = stuck + _carry_signs(stuck - man, man.shape, mode, rng) * carry_weight
        stuck = np.clip(stuck, 0, 0x7F)
    out = (bits & ~np.int64(0x7F)) | stuck
    return bf16_decode_array(out.astype(np.uint16)).astype(np.float64)


def _carry_signs(error, shape, mode, rng):
    if mode == WORST:
        # push the error further from zero; +1 on ties
        return np.where(error < 0, -1, 1)
    if rng is None:
        raise ValueError("simulation mode needs an rng for the carry sign")
    return rng.integers(0, 2, size=shape) * 2 - 1


def faulty_mac(x, w, fault: tuple | None = None, fmt: str = "int8",
               mode: str = SIM, rng=None):
    """Single multiply through a MAC with signature ``fault = (stuck0, stuck1,
    carry)``, or a fault-free one for None; the scalar reference."""
    cast = int if fmt == "int8" else float
    product = cast(x) * cast(w)
    if fault is None:
        return product
    return cast(apply_fault_to_products(np.array([product]), *fault, fmt, mode, rng)[0])
