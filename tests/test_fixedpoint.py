"""Codec: grid rounding, range guards, probabilistic share truncation."""

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
    with pytest.raises(RangeError):
        FixedPointCodec(precision_p=16, range_e=12, slack=14)
    with pytest.raises(RangeError):
        FixedPointCodec(precision_p=0)


def test_quantize_idempotent():
    x = np.linspace(-5.0, 5.0, 1001)
    q = CODEC.quantize(x)
    assert np.array_equal(CODEC.quantize(q), q)


def test_decode_at_double_scale():
    prod = np.multiply(CODEC.encode(1.5), CODEC.encode(2.0))
    assert CODEC.decode_at(prod, 2 * CODEC.precision_p) == 3.0


@given(st.floats(min_value=-2047.0, max_value=2047.0, allow_nan=False))
def test_roundtrip_half_ulp(x):
    assert abs(float(CODEC.decode(CODEC.encode(x))) - x) <= 2.0 ** -14


def test_share_truncation_monte_carlo():
    # split a double-scale product into random shares, truncate each side,
    # reconstruct: the result is floor(v / 2^p) or one above, never worse
    rng = np.random.default_rng(7)
    n = 100_000
    x = CODEC.quantize(rng.uniform(-4.0, 4.0, size=n))
    y = CODEC.quantize(rng.uniform(-4.0, 4.0, size=n))
    raw2p = np.multiply(CODEC.encode(x), CODEC.encode(y))
    s0 = rng.integers(0, 2**64, size=raw2p.shape, dtype=np.uint64)
    s1 = np.subtract(raw2p, s0)
    got = to_signed(np.add(CODEC.truncate_local(s0, 0), CODEC.truncate_local(s1, 1)))
    want = to_signed(raw2p) >> np.int64(CODEC.precision_p)
    diff = got - want
    assert set(np.unique(diff).tolist()) <= {0, 1}
    # the wrap event has probability ~2^-slack per trial; the rounding-up
    # carry is driven by the uniform low bits and sits near one half
    assert 0.3 < float(np.mean(diff == 1)) < 0.7


def test_truncation_exact_on_grid_multiples():
    # values whose low p bits are zero truncate with no error at all
    rng = np.random.default_rng(8)
    vals = CODEC.quantize(rng.uniform(-100.0, 100.0, size=1000))
    raw2p = from_signed((vals * CODEC.scale * CODEC.scale).astype(np.int64))
    s0 = rng.integers(0, 2**64, size=raw2p.shape, dtype=np.uint64)
    s1 = np.subtract(raw2p, s0)
    got = np.add(CODEC.truncate_local(s0, 0), CODEC.truncate_local(s1, 1))
    assert np.array_equal(CODEC.decode(got), vals)


def test_truncation_by_explicit_bit_count():
    # sec_mi truncates a 2p-scale product by 2p bits in one step
    rng = np.random.default_rng(9)
    vals = CODEC.quantize(rng.uniform(-100.0, 100.0, size=1000))
    raw4p = from_signed((vals * CODEC.scale).astype(np.int64) << np.int64(2 * CODEC.precision_p))
    s0 = rng.integers(0, 2**64, size=raw4p.shape, dtype=np.uint64)
    s1 = np.subtract(raw4p, s0)
    bits = 2 * CODEC.precision_p
    got = np.add(CODEC.truncate_local(s0, 0, bits), CODEC.truncate_local(s1, 1, bits))
    assert np.array_equal(CODEC.decode(got), vals)


def test_ring_signed_roundtrip():
    vals = np.array([0, 1, -1, 2**62, -(2**62)], dtype=np.int64)
    assert np.array_equal(to_signed(from_signed(vals)), vals)
    assert from_signed(-1) == np.uint64(2**64 - 1)
    assert to_signed(np.uint64(2**63)) == -(2**63)
