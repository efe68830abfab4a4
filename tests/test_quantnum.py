"""Numeric-format tests: int8 quantization, byte views and bfloat16."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import frozen_quant
from faultlab import quantnum as qn


def test_quantize_zero_maps_to_zero():
    assert qn.quantize_int8([0.0], scale=0.3).raw[0] == 0
    assert qn.quantize_int8([0.0]).raw[0] == 0


def test_quantize_full_scale_point():
    assert qn.quantize_int8([1.0], scale=1 / 127).raw[0] == 127


def test_quantize_saturates():
    # unclamped 10.0 / 0.05 = 200 -> clamped to 127
    assert qn.quantize_int8([10.0], scale=0.05).raw[0] == 127
    assert qn.quantize_int8([-10.0], scale=0.05).raw[0] == -128


def test_quantize_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            qn.quantize_int8([1.0, bad])


def test_quantize_auto_scale_symmetric():
    t = qn.quantize_int8([-2.0, 1.0, 0.5])
    assert t.scale == pytest.approx(2.0 / 127)
    assert t.raw[0] == -127


def test_quantize_range_and_reconstruction():
    rng = np.random.default_rng(7)
    values = rng.normal(0, 1.5, size=4000)
    t = qn.quantize_int8(values)
    assert t.raw.min() >= -128 and t.raw.max() <= 127
    # raw * scale within scale/2 of clamp(x)
    clamped = np.clip(values, -128 * t.scale, 127 * t.scale)
    assert np.max(np.abs(t.raw * t.scale - clamped)) <= t.scale / 2 + 1e-12


def test_quantize_rounds_half_away_from_zero():
    t = qn.quantize_int8([0.5, -0.5, 1.5, -1.5], scale=1.0)
    assert list(t.raw) == [1, -1, 2, -2]


def test_quantize_takes_scalars_and_rounds_half_away():
    for value, raw in ((2.5, 3), (-2.5, -3), (-0.4, 0), (0.5, 1), (-0.0, 0)):
        t = qn.quantize_int8(value, scale=1.0)
        assert t.raw.shape == () and t.raw == raw
    # the same ties inside a non-negative tensor and a mixed-sign one
    assert list(qn.quantize_int8([2.5, 0.4, 0.0], scale=1.0).raw) == [3, 0, 0]
    assert list(qn.quantize_int8([2.5, -2.5, -0.4], scale=1.0).raw) == [3, -3, 0]


def _outcome(quantize, values, scale):
    """What ``quantize`` gives: raw dtype, shape and bytes and the scale, or
    the error it raises."""
    try:
        t = quantize(values, scale)
    except ValueError as err:
        return "ValueError", str(err)
    return t.raw.dtype, t.raw.shape, t.raw.tobytes(), t.scale


# powers of two keep the quarter-integer ties exact; 1e-3 clamps; 0 and -1 raise
SCALES = st.none() | st.sampled_from([0.25, 0.5, 1.0, 2.0, 1e-3, 0.0, -1.0]) | st.floats(
    min_value=1e-4, max_value=50.0)


@st.composite
def _tensors(draw):
    """Small arbitrary tensors, or tensors whose size straddles the block edge
    built from integers / 4 (exact ties at power-of-two scales), each signed or
    non-negative, with -0.0 and non-finite values planted, in C order, F order
    or as a strided view."""
    if draw(st.booleans()):
        values = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, min_side=0, max_side=6),
                                 elements=st.floats(-1e6, 1e6) | st.sampled_from(
                                     [0.5, -0.5, 2.5, -2.5, -0.0, 127.5, -128.5]),
                                 fill=st.nothing()))
    else:
        n = draw(st.sampled_from([qn.BLOCK - 1, qn.BLOCK, qn.BLOCK + 1, 2 * qn.BLOCK + 3]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = rng.integers(-600, 600, size=n) / 4.0
    if draw(st.booleans()):
        values = np.abs(values)
    if values.size:
        flat = values.reshape(-1)
        for special in draw(st.lists(st.sampled_from([-0.0, -0.0, np.nan, np.inf, -np.inf]),
                                     max_size=2)):
            flat[draw(st.integers(0, flat.size - 1))] = special
    layout = draw(st.sampled_from(["C", "F", "strided", "reversed"]))
    if layout == "F" and values.ndim >= 2:
        values = np.asfortranarray(values)
    elif layout == "strided" and values.ndim >= 1:
        values = values[::2]
    elif layout == "reversed" and values.ndim >= 1:
        values = values[..., ::-1]
    return values


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=_tensors(), scale=SCALES)
@example(values=(np.arange(2 * qn.BLOCK + 1) % 600 - 300) / 2.0, scale=1.0)  # ties, clamps
@example(values=(np.arange(2 * qn.BLOCK + 1) % 600) / 2.0, scale=1.0)
def test_quantize_matches_frozen_whole_tensor_quantizer(values, scale):
    got = _outcome(qn.quantize_int8, values, scale)
    assert got == _outcome(frozen_quant.quantize_int8, values, scale)
    if scale is None and got[0] != "ValueError":
        assert got[3] == qn.int8_scale(values)


def test_int8_tensor_equality_is_by_value():
    raw = np.array([[1, -2, 3], [0, 127, -128]], dtype=np.int8)
    t = qn.Int8Tensor(raw, 0.5)
    assert t == t and t == qn.Int8Tensor(raw.copy(), 0.5)
    flipped = raw.copy()
    flipped[1, 2] = 0
    for other in (qn.Int8Tensor(flipped, 0.5), qn.Int8Tensor(raw, 0.25),
                  qn.Int8Tensor(raw.reshape(3, 2), 0.5)):
        assert t != other and not t == other
    with pytest.raises(TypeError):
        hash(t)


def test_int8_byte_views():
    raw = np.array([-128, -1, 0, 127], dtype=np.int8)
    as_bytes = qn.int8_to_byte(raw)
    assert list(as_bytes) == [0x80, 0xFF, 0x00, 0x7F]


def test_bf16_format_points():
    assert list(qn.bf16_decode_array([0x3F80, 0x0000])) == [1.0, 0.0]
    assert list(qn.bf16_encode_array([1.0, 0.0])) == [0x3F80, 0x0000]


def test_bf16_powers_of_two_roundtrip():
    x = 2.0 ** np.arange(-10, 11)
    for v in (x, -x):
        assert np.array_equal(qn.bf16_round_array(v), v)


def test_bf16_round_to_nearest_even():
    # 1 + 2^-8 sits exactly between 1.0 and the next bf16 value; ties go to
    # the even mantissa (1.0), while anything above rounds up.
    # 1 + 3*2^-8 ties between 0x3F81 and 0x3F82 -> even (0x3F82)
    bits = qn.bf16_encode_array([1.0 + 2.0**-8, 1.0 + 2.0**-8 + 2.0**-12,
                                 1.0 + 3 * 2.0**-8])
    assert list(bits) == [0x3F80, 0x3F81, 0x3F82]


def test_bf16_special_values():
    # float32 max overflows to infinity in bfloat16
    out = qn.bf16_round_array([np.inf, -np.inf, np.nan, 3.4028235e38])
    assert out[0] == np.inf and out[1] == -np.inf
    assert np.isnan(out[2])
    assert out[3] == np.inf


def test_bf16_mantissa_lsb_masking_bound():
    # masking the 4 mantissa LSBs moves the value by at most
    # 2^(e-127) * 15 / 2^7 for exponent field e
    rng = np.random.default_rng(3)
    values = rng.normal(0, 10, size=2000).astype(np.float32)
    bits = qn.bf16_encode_array(values)
    masked = bits & ~np.uint16(0x000F)
    delta = np.abs(
        qn.bf16_decode_array(bits).astype(np.float64)
        - qn.bf16_decode_array(masked).astype(np.float64)
    )
    exp_field = ((bits >> 7) & 0xFF).astype(np.float64)
    bound = 2.0 ** (exp_field - 127) * 15 / 2.0**7
    assert np.all(delta <= bound + 1e-30)


def test_bf16_roundtrip_is_identity_on_bf16_values():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 0x7F80, size=500, dtype=np.uint16)  # finite values
    vals = qn.bf16_decode_array(bits)
    assert np.array_equal(qn.bf16_encode_array(vals), bits)
