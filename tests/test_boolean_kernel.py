"""The packed boolean kernel against a bit-per-uint8 reference.

The reference keeps one bit per uint8, LSB first along the last axis, and
runs the same Kogge-Stone circuit in the clear. Every XOR-shared result of
the kernel reconstructs to a deterministic function of its inputs, so the
secure outputs must equal the reference exactly, for any input (division
by zero included, where both produce the same well-defined garbage).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import CODEC
from starfish import make_inproc_sessions, run_pair, sec_rec
from starfish import costs, gates
from starfish.transport import FRAME_OVERHEAD

LANES = (1, 63, 64, 65, 130)
WIDTH = 64
MASK = (1 << WIDTH) - 1

words64 = st.integers(min_value=0, max_value=MASK)


# -- reference circuit, one bit per uint8 -------------------------------------


def ref_bits(words) -> np.ndarray:
    arr = np.asarray(words, dtype=np.uint64)
    return ((arr[..., None] >> np.arange(WIDTH, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)


def ref_word(bits) -> np.ndarray:
    return (bits.astype(np.uint64) << np.arange(WIDTH, dtype=np.uint64)).sum(axis=-1, dtype=np.uint64)


def _shift_up(bits, s):
    out = np.zeros_like(bits)
    out[..., s:] = bits[..., :-s]
    return out


def ref_adder(x, y, cin):
    """Kogge-Stone sum bits and carry out; cin is a per-lane 0/1 array."""
    p = x ^ y
    g = x & y
    p_orig = p.copy()
    g[..., 0] ^= p[..., 0] & cin
    s = 1
    while s < WIDTH:
        g = g ^ (p & _shift_up(g, s))
        p = p & _shift_up(p, s)
        s <<= 1
    carry = np.zeros_like(x)
    carry[..., 1:] = g[..., :-1]
    carry[..., 0] = cin
    return p_orig ^ carry, g[..., -1]


def ref_negate_if(bits, sign):
    flipped = bits ^ sign[..., None]
    total, _ = ref_adder(flipped, np.zeros_like(bits), sign)
    return total


def ref_a2b(x0, x1):
    total, _ = ref_adder(ref_bits(x0), ref_bits(x1), np.zeros(np.shape(x0), np.uint8))
    return total


def ref_ge(su, sv):
    """[u >= v] from the shares: NOT the sign bit of the A2B of u - v."""
    total = ref_a2b(su[0] - sv[0], su[1] - sv[1])
    return (1 - total[..., -1]).astype(np.uint64)


def ref_div(u, v, p, iterations):
    bits_u = ref_bits(u)
    bits_v = ref_bits(v)
    s_u = bits_u[..., -1].copy()
    s_v = bits_v[..., -1].copy()
    au = ref_negate_if(bits_u, s_u)
    av = ref_negate_if(bits_v, s_v)
    dividend = np.zeros_like(au)
    dividend[..., p:] = au[..., : WIDTH - p]
    neg_av = 1 - av
    remainder = np.zeros_like(au)
    quot = np.zeros_like(au)
    one = np.ones_like(s_u)
    for i in range(iterations - 1, -1, -1):
        shifted = _shift_up(remainder, 1)
        shifted[..., 0] = dividend[..., i]
        diff, carry = ref_adder(shifted, neg_av, one)
        remainder = np.where(carry[..., None] == 1, diff, shifted)
        quot[..., i] = carry
    return ref_word(ref_negate_if(quot, s_u ^ s_v))


def test_reference_adder_is_addition():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2**64, size=50, dtype=np.uint64)
    y = rng.integers(0, 2**64, size=50, dtype=np.uint64)
    total, carry = ref_adder(ref_bits(x), ref_bits(y), np.zeros(50, np.uint8))
    assert np.array_equal(ref_word(total), x + y)
    expect = [(int(a) + int(b)) >> 64 for a, b in zip(x, y)]
    assert carry.tolist() == expect
    assert np.array_equal(ref_div(CODEC.encode([3.0]), CODEC.encode([-1.5]), 13, 37), CODEC.encode([-2.0]))


# -- harness -------------------------------------------------------------------


def _split(values, seed):
    full = np.asarray(values, dtype=np.uint64)
    s0 = np.random.default_rng(seed).integers(0, 2**64, size=full.shape, dtype=np.uint64)
    return {0: s0, 1: full - s0}


def _run_recorded(proto, seed=0):
    """Run proto on a pair; return party 0's result and its frame lengths."""
    sessions = make_inproc_sessions(seed)
    frames = []
    inner = sessions[0]._roundtrip

    def roundtrip(payload):
        frames.append(FRAME_OVERHEAD + len(payload))
        return inner(payload)

    sessions[0]._roundtrip = roundtrip
    r0, r1 = run_pair(proto, sessions)
    assert np.array_equal(r0, r1)
    return r0, frames


def _a2b_cost_list(lanes):
    return [costs.and_round(lanes * WIDTH)] + [costs.and_round(2 * lanes * WIDTH)] * 6


def _negate_cost_list(lanes):
    return [costs.and_round(lanes)] + [costs.and_round(2 * lanes * WIDTH)] * 6


def _bytes(estimates):
    return [e.online_bytes for e in estimates]


# -- kernel vs reference ---------------------------------------------------------


@pytest.mark.parametrize("lanes", LANES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a2b_matches_reference(lanes, data):
    x = np.array(data.draw(st.lists(words64, min_size=lanes, max_size=lanes)), dtype=np.uint64)
    seed = data.draw(st.integers(0, 2**32))
    shares = _split(x, seed)

    def proto(sess):
        bits = gates._a2b(sess, shares[sess.party])
        return bits ^ sess.exchange_bits(bits)

    words, frames = _run_recorded(proto, seed)
    assert np.array_equal(words, ref_word(ref_a2b(shares[0], shares[1])))
    assert np.array_equal(words, x)
    assert frames == _bytes(_a2b_cost_list(lanes)) + [FRAME_OVERHEAD + 8 * lanes]


@pytest.mark.parametrize("lanes", LANES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_sec_ge_matches_reference(lanes, data):
    u = np.array(data.draw(st.lists(words64, min_size=lanes, max_size=lanes)), dtype=np.uint64)
    v = np.array(data.draw(st.lists(words64, min_size=lanes, max_size=lanes)), dtype=np.uint64)
    if data.draw(st.booleans()):
        v[: lanes // 2] = u[: lanes // 2]  # ties
    seed = data.draw(st.integers(0, 2**32))
    su, sv = _split(u, seed), _split(v, seed + 1)

    def proto(sess):
        return sec_rec(sess, gates.sec_ge(sess, su[sess.party], sv[sess.party]))

    out, frames = _run_recorded(proto, seed)
    assert np.array_equal(out, ref_ge(su, sv))
    assert np.array_equal(out, ((u - v) < np.uint64(1 << 63)).astype(np.uint64))
    expected = _a2b_cost_list(lanes) + [costs.b2a_bits_cost(lanes)]
    assert frames[:-1] == _bytes(expected)  # the last frame is the reveal
    assert sum(frames[:-1]) == costs.ge_cost(lanes).online_bytes


@pytest.mark.parametrize("lanes", LANES)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_sec_div_matches_reference(lanes, data):
    reals = st.floats(min_value=-2047.0, max_value=2047.0, allow_nan=False)
    u = CODEC.encode(data.draw(st.lists(reals, min_size=lanes, max_size=lanes)))
    v = CODEC.encode(data.draw(st.lists(reals, min_size=lanes, max_size=lanes)))
    seed = data.draw(st.integers(0, 2**32))
    su, sv = _split(u, seed), _split(v, seed + 1)

    def proto(sess):
        return sec_rec(sess, gates.sec_div(sess, su[sess.party], sv[sess.party]))

    out, frames = _run_recorded(proto, seed)
    iterations = gates.div_iterations(CODEC)
    assert np.array_equal(out, ref_div(u, v, CODEC.precision_p, iterations))
    step = _a2b_cost_list(lanes) + [costs.and_round(lanes * WIDTH)]
    expected = (_a2b_cost_list(lanes) * 2 + _negate_cost_list(lanes) * 2 + step * iterations
                + _negate_cost_list(lanes) + [costs.b2a_bits_cost(lanes * WIDTH)])
    assert frames[:-1] == _bytes(expected)
    assert sum(frames[:-1]) == costs.div_cost(lanes, CODEC).online_bytes


# -- lane packing ----------------------------------------------------------------


@pytest.mark.parametrize("lanes", LANES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lane_packing_roundtrip_and_zero_pad(lanes, data):
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=lanes, max_size=lanes)), np.uint64)
    words = gates._pack_lanes(bits)
    assert words.dtype == np.uint64 and words.shape == (-(-lanes // 64),)
    for i, w in enumerate(words.tolist()):
        expect = sum(int(b) << k for k, b in enumerate(bits[64 * i : 64 * i + 64]))
        assert w == expect  # bit i of the sequence is bit i % 64 of word i // 64; pad is zero
    assert np.array_equal(gates._unpack_lanes(words, lanes), bits)


@pytest.mark.parametrize("lanes", LANES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_join_split_bits_roundtrip(lanes, data):
    def draw_words():
        bits = data.draw(st.lists(st.integers(0, 1), min_size=lanes, max_size=lanes))
        return gates._pack_lanes(np.array(bits, np.uint64))

    e, f = draw_words(), draw_words()
    msg = gates._join_bits(e, f, lanes)
    assert msg.size == -(-2 * lanes // 64)
    joined = gates._unpack_lanes(msg, 2 * lanes)
    assert np.array_equal(joined[:lanes], gates._unpack_lanes(e, lanes))
    assert np.array_equal(joined[lanes:], gates._unpack_lanes(f, lanes))
    e2, f2 = gates._split_bits(msg, lanes, e.shape)
    assert np.array_equal(e2, e) and np.array_equal(f2, f)


@pytest.mark.parametrize("lanes", LANES)
def test_lane_packed_and_matches_reference(lanes):
    rng = np.random.default_rng(lanes)
    x = rng.integers(0, 2, size=lanes, dtype=np.uint64)
    y = rng.integers(0, 2, size=lanes, dtype=np.uint64)
    masks = {k: rng.integers(0, 2, size=lanes, dtype=np.uint64) for k in "xy"}
    shares = {0: (masks["x"], masks["y"]), 1: (x ^ masks["x"], y ^ masks["y"])}

    def proto(sess):
        xs, ys = (gates._pack_lanes(s) for s in shares[sess.party])
        z = gates._bit_and(sess, xs, ys, nbits=lanes)
        return gates._unpack_lanes(z ^ sess.exchange_bits(z), 64 * z.size)

    out, frames = _run_recorded(proto, lanes)
    assert np.array_equal(out[:lanes], x & y)
    assert not out[lanes:].any()
    assert frames[0] == costs.and_round(lanes).online_bytes
