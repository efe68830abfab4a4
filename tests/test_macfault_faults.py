"""Logic-cone fault semantics: bounds, classification, exhaustive sweeps."""

import itertools

import numpy as np
import pytest

from faultlab.macfault import (
    FaultMap,
    apply_fault_to_products,
    build_fsr,
    faulty_mac,
    worst_case_error,
)
from faultlab.macfault.mapfile import cone_masks


def _signatures(max_bit_incl, carry):
    """All stuck-bit signatures (stuck0, stuck1, carry) over bits {0..max_bit_incl}."""
    bits = range(max_bit_incl + 1)
    for r in range(1, max_bit_incl + 2):
        for subset in itertools.combinations(bits, r):
            for values in itertools.product((0, 1), repeat=r):
                yield (*cone_masks(zip(subset, values)), carry)


@pytest.fixture(scope="module")
def all_products():
    x = np.arange(-128, 128, dtype=np.int64)
    return np.multiply.outer(x, x).ravel()


def test_worst_case_error_values():
    assert worst_case_error(2) == 15
    assert worst_case_error(0) == 3
    assert worst_case_error(4) == 63
    with pytest.raises(ValueError):
        worst_case_error(-1)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_exhaustive_max_error_with_carry(all_products, k):
    # max |faulty - exact| over all int8 pairs and all signatures with
    # bits <= k, carry enabled, equals 2^(k+2) - 1 in worst-case mode
    worst = 0
    for fault in _signatures(k, carry=True):
        faulty = apply_fault_to_products(all_products, *fault, "int8", mode="worst")
        err = int(np.max(np.abs(faulty - all_products)))
        assert err <= worst_case_error(k)
        worst = max(worst, err)
    assert worst == worst_case_error(k)


@pytest.mark.parametrize("k", [1, 2])
def test_exhaustive_error_without_carry(all_products, k):
    # cone bits < k and no carry: every per-MAC error is below 2^k
    for fault in _signatures(k - 1, carry=False):
        faulty = apply_fault_to_products(all_products, *fault, "int8", mode="worst")
        assert int(np.max(np.abs(faulty - all_products))) < 2**k


def test_sim_mode_respects_bound(all_products, rng):
    for fault in _signatures(2, carry=True):
        faulty = apply_fault_to_products(all_products, *fault, "int8",
                                         mode="sim", rng=rng)
        assert int(np.max(np.abs(faulty - all_products))) <= worst_case_error(2)


def test_faulty_mac_examples():
    assert faulty_mac(6, 2) == 12
    stuck0 = (0, 0b1, False)  # bit 0 stuck at 1
    assert faulty_mac(6, 2, stuck0) == 13  # 0b1100 -> 0b1101


def test_fault_on_zero_product():
    stuck = (0, 0b11, False)  # bits 0 and 1 stuck at 1
    assert faulty_mac(0, 5, stuck) == 3


def test_classification_examples():
    def critical(fault, fmt):
        return bool(build_fsr(FaultMap.from_entries([(0, 0, *fault)]), fmt,
                              0.0).critical[0])

    # signatures (stuck0, stuck1, carry)
    non_crit = (0b10, 0b01, False)
    assert not critical(non_crit, "int8")
    crit = (0, 1 << 7, False)
    assert critical(crit, "int8")
    bf_ok = (0b1000, 0b0001, False)
    assert not critical(bf_ok, "bfloat16")
    bf_bad = (0, 1 << 4, False)
    assert critical(bf_bad, "bfloat16")
    # carry alone does not make a tolerated fault critical
    with_carry = (0, 0b10, True)
    assert not critical(with_carry, "int8")


def test_fault_validation():
    with pytest.raises(ValueError):
        FaultMap.from_entries([(0, 0, 0, 0, False)])  # no stuck bit
    with pytest.raises(ValueError):
        cone_masks(((0, 2),))
    with pytest.raises(ValueError):
        cone_masks(((0, 1), (0, 0)))
    wide = (0, 1 << 16, False)
    with pytest.raises(ValueError):
        apply_fault_to_products(np.zeros(1), *wide, "int8")
    bf_wide = (0, 1 << 7, False)
    with pytest.raises(ValueError):
        apply_fault_to_products(np.zeros(1), *bf_wide, "bfloat16")


def test_bf16_fault_touches_only_mantissa(rng):
    fault = (0b100, 0b001, False)  # bit 0 stuck at 1, bit 2 at 0
    products = rng.normal(0, 4, size=500)
    faulty = apply_fault_to_products(products, *fault, "bfloat16", mode="worst")
    from faultlab.quantnum import bf16_encode_array

    base = bf16_encode_array(products)
    out = bf16_encode_array(faulty)
    # sign and exponent fields are untouched
    assert np.array_equal(base & 0xFF80, out & 0xFF80)
    assert np.all((out & 0x1) == 1)  # bit 0 stuck at 1
    assert np.all((out & 0x4) == 0)  # bit 2 stuck at 0


def test_bf16_relative_error_bound(rng):
    # masking the 4 mantissa LSBs moves the value by < 2^-3 relative
    for fault in _signatures(3, carry=False):
        products = rng.normal(0, 10, size=200)
        faulty = apply_fault_to_products(products, *fault, "bfloat16", mode="worst")
        from faultlab.quantnum import bf16_round_array

        base = bf16_round_array(products).astype(np.float64)
        nonzero = np.abs(base) > 0
        rel = np.abs(faulty[nonzero] - base[nonzero]) / np.abs(base[nonzero])
        assert np.max(rel) < 2.0**-3 + 1e-12
