"""Codec: grid rounding, range guards, probabilistic share truncation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from starfish import FixedPointCodec, RangeError
from starfish.fixedpoint import Ring

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
        FixedPointCodec(precision_p=16, range_e=12, word_bits=64, slack=14)
    with pytest.raises(RangeError):
        FixedPointCodec(word_bits=128)
    with pytest.raises(RangeError):
        FixedPointCodec(precision_p=0)


def test_quantize_idempotent():
    x = np.linspace(-5.0, 5.0, 1001)
    q = CODEC.quantize(x)
    assert np.array_equal(CODEC.quantize(q), q)


def test_decode_at_double_scale():
    prod = CODEC.ring.mul(CODEC.encode(1.5), CODEC.encode(2.0))
    assert CODEC.decode_at(prod, 2 * CODEC.precision_p) == 3.0


@given(st.floats(min_value=-2047.0, max_value=2047.0, allow_nan=False))
def test_roundtrip_half_ulp(x):
    assert abs(float(CODEC.decode(CODEC.encode(x))) - x) <= 2.0 ** -14


def test_share_truncation_monte_carlo():
    # split a double-scale product into random shares, truncate each side,
    # reconstruct: the result is floor(v / 2^p) or one above, never worse
    ring = CODEC.ring
    rng = np.random.default_rng(7)
    n = 100_000
    x = CODEC.quantize(rng.uniform(-4.0, 4.0, size=n))
    y = CODEC.quantize(rng.uniform(-4.0, 4.0, size=n))
    raw2p = ring.mul(CODEC.encode(x), CODEC.encode(y))
    s0 = ring.rand(rng, raw2p.shape)
    s1 = ring.sub(raw2p, s0)
    got = ring.to_signed(ring.add(CODEC.truncate_local(s0, 0), CODEC.truncate_local(s1, 1)))
    want = ring.to_signed(raw2p) >> np.int64(CODEC.precision_p)
    diff = got - want
    assert set(np.unique(diff).tolist()) <= {0, 1}
    # the wrap event has probability ~2^-slack per trial; the rounding-up
    # carry is driven by the uniform low bits and sits near one half
    assert 0.3 < float(np.mean(diff == 1)) < 0.7


def test_truncation_exact_on_grid_multiples():
    # values whose low p bits are zero truncate with no error at all
    ring = CODEC.ring
    rng = np.random.default_rng(8)
    vals = CODEC.quantize(rng.uniform(-100.0, 100.0, size=1000))
    raw2p = ring.from_signed((vals * CODEC.scale * CODEC.scale).astype(np.int64))
    s0 = ring.rand(rng, raw2p.shape)
    s1 = ring.sub(raw2p, s0)
    got = ring.add(CODEC.truncate_local(s0, 0), CODEC.truncate_local(s1, 1))
    assert np.array_equal(CODEC.decode(got), vals)


def test_ring_signed_roundtrip():
    r = Ring(64)
    vals = np.array([0, 1, -1, 2**62, -(2**62)], dtype=np.int64)
    assert np.array_equal(r.to_signed(r.from_signed(vals)), vals)


def test_ring_wraparound():
    r = Ring(64)
    top = np.uint64(2**64 - 1)
    assert r.add(top, np.uint64(1)) == 0
    assert r.sub(np.uint64(0), np.uint64(1)) == top


def test_ring_rejects_odd_width():
    for bits in (32, 128):
        with pytest.raises(RangeError):
            Ring(bits)
