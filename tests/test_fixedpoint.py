"""Codec: grid rounding, range guards, the word budget."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from starfish import FixedPointCodec, RangeError
from starfish.fixedpoint import from_signed, to_signed

CODEC = FixedPointCodec()
ULP = 2.0 ** -CODEC.precision_p


def test_encode_known_values():
    assert CODEC.encode(1.5) == 12288
    assert CODEC.encode(0.0) == 0
    assert CODEC.encode(-0.25) == (1 << 64) - 2048


def test_decode_known_values():
    assert CODEC.decode(np.uint64(12288)) == 1.5
    assert CODEC.decode(np.uint64((1 << 64) - 2048)) == -0.25
    assert CODEC.decode(np.uint64(0)) == 0.0


def test_pi_roundtrip_within_half_ulp():
    assert abs(float(CODEC.decode(CODEC.encode(np.pi))) - np.pi) <= 2.0 ** -14


def test_rounds_half_away_from_zero():
    assert CODEC.decode(CODEC.encode(ULP / 2)) == ULP
    assert CODEC.decode(CODEC.encode(-ULP / 2)) == -ULP


def test_range_guard():
    top = CODEC.max_value
    for bad in (top, -top, top * 2, np.nan, np.inf):
        with pytest.raises(RangeError):
            CODEC.encode(bad)
    # the largest grid point is still representable
    assert CODEC.decode(CODEC.encode(top - ULP)) == top - ULP


def test_codec_parameter_budget():
    # a cross product of a 2^-2p numerator and a 2^-p norm must fit the word:
    # 3p + 2e <= 64
    assert 3 * CODEC.precision_p + 2 * CODEC.range_e == 63
    FixedPointCodec(precision_p=12, range_e=14)
    with pytest.raises(RangeError):
        FixedPointCodec(precision_p=14, range_e=12)
    with pytest.raises(RangeError):
        FixedPointCodec(precision_p=12, range_e=15)
    with pytest.raises(RangeError):
        FixedPointCodec(precision_p=0)


def test_quantize_idempotent():
    x = np.linspace(-5.0, 5.0, 1001)
    q = CODEC.quantize(x)
    assert np.array_equal(CODEC.quantize(q), q)


@given(st.floats(min_value=-2047.0, max_value=2047.0, allow_nan=False))
def test_roundtrip_half_ulp(x):
    assert abs(float(CODEC.decode(CODEC.encode(x))) - x) <= 2.0 ** -14


def test_ring_signed_roundtrip():
    vals = np.array([0, 1, -1, 2**62, -(2**62)], dtype=np.int64)
    assert np.array_equal(to_signed(from_signed(vals)), vals)
    assert from_signed(-1) == np.uint64(2**64 - 1)
    assert to_signed(np.uint64(2**63)) == -(2**63)
