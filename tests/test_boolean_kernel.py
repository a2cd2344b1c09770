"""The packed boolean kernel and division against references in the clear.

The bit reference keeps one bit per uint8, LSB first along the last axis,
and runs the Kogge-Stone adder in the clear; the comparison reads the sign
bit of its full sum where the kernel runs a carry-only tree. The division
reference runs sec_div's restoring division on ring words as Python ints.
Every secure result reconstructs to a deterministic function of its inputs,
so it must equal the reference exactly, for any input (division by zero
and non-representable quotients included, where both saturate).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import CODEC
from starfish import make_inproc_sessions, run_pair, sec_rec
from starfish import costs, gates
from starfish.fixedpoint import from_signed, to_signed
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


def ref_a2b(x0, x1):
    total, _ = ref_adder(ref_bits(x0), ref_bits(x1), np.zeros(np.shape(x0), np.uint8))
    return total


def ref_ge(su, sv):
    """[u >= v] from the shares: NOT the sign bit of the A2B of u - v."""
    total = ref_a2b(su[0] - sv[0], su[1] - sv[1])
    return (1 - total[..., -1]).astype(np.uint64)


def ref_div(u, v, p, iterations):
    """sec_div step by step on ring words: sigma = +-1 from the sign bit,
    magnitudes by multiplying with it, one compare-and-subtract per quotient
    bit, where the comparison reads the sign bit of the ring difference,
    and the product of the sigmas applied last."""
    out = []
    for a, b in zip(np.asarray(u).tolist(), np.asarray(v).tolist()):
        sa, sb = (1 if x >> 63 == 0 else MASK for x in (a, b))
        au, av = a * sa & MASK, b * sb & MASK
        rem, quot = au << p & MASK, 0
        for i in range(iterations - 1, -1, -1):
            step = av << i & MASK
            if ((rem - step) & MASK) >> 63 == 0:
                rem = (rem - step) & MASK
                quot += 1 << i
        out.append(quot * sa * sb & MASK)
    return np.array(out, dtype=np.uint64)


def test_reference_adder_is_addition():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2**64, size=50, dtype=np.uint64)
    y = rng.integers(0, 2**64, size=50, dtype=np.uint64)
    total, carry = ref_adder(ref_bits(x), ref_bits(y), np.zeros(50, np.uint8))
    assert np.array_equal(ref_word(total), x + y)
    expect = [(int(a) + int(b)) >> 64 for a, b in zip(x, y)]
    assert carry.tolist() == expect


def test_reference_division_is_round_toward_zero():
    rng = np.random.default_rng(0)
    limit = 1 << (CODEC.precision_p + CODEC.range_e - 1)
    u = rng.integers(-limit + 1, limit, size=200)
    v = rng.integers(-limit + 1, limit, size=200)
    v[:100] = rng.integers(-300, 300, size=100) | 1
    q = [(abs(a) << CODEC.precision_p) // abs(b) * (1 if (a < 0) == (b < 0) else -1) for a, b in zip(u, v)]
    ok = np.abs(q) < limit
    got = ref_div(from_signed(u), from_signed(v), CODEC.precision_p, costs.div_iterations(CODEC))
    assert ok.sum() > 100
    assert to_signed(got)[ok].tolist() == np.array(q)[ok].tolist()


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


def _sign_cost_list(lanes):
    """The generate layer, six carry-only levels at 2^k lanes per word (g and
    p ANDs, the last level's g alone)."""
    levels = [costs.and_round((2 if k < 6 else 1) * WIDTH * -(-lanes // 2**k)) for k in range(1, 7)]
    return [costs.and_round(lanes * WIDTH), *levels]


def _ge_cost_list(lanes):
    """The sign circuit, then the B2A of its bits."""
    return [*_sign_cost_list(lanes), costs.b2a_bits_cost(lanes)]


def _bytes(estimates):
    return [e.online_bytes for e in estimates]


# -- kernel vs reference ---------------------------------------------------------


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
    assert frames[:-1] == _bytes(_ge_cost_list(lanes))  # the last frame is the reveal
    assert sum(frames[:-1]) == costs.ge_cost(lanes).online_bytes


# u - v at the sign boundary; on even lanes party 0's share of u - v is fixed
# so that the carry into bit 63 ripples through every position (all ones) or
# through none (zero)
EDGE_DIFFS = [0, 1, MASK, 1 << 63, (1 << 63) - 1]
EDGE_SHARES = [0, MASK, 1 << 63, 1]


@pytest.mark.parametrize("lanes", (1, 3, 63, 64, 65, 130))
def test_sec_ge_edge_values(lanes):
    rng = np.random.default_rng(lanes)
    u = rng.integers(0, 2**64, size=lanes, dtype=np.uint64)
    v = u - np.array([EDGE_DIFFS[i % 5] for i in range(lanes)], dtype=np.uint64)
    su, sv = _split(u, lanes), _split(v, lanes + 1)
    su[0][::2] = [EDGE_SHARES[i % 4] for i in range(0, lanes, 2)]
    sv[0][::2] = 0
    su[1], sv[1] = u - su[0], v - sv[0]

    def proto(sess):
        return sec_rec(sess, gates.sec_ge(sess, su[sess.party], sv[sess.party]))

    out, frames = _run_recorded(proto, lanes)
    assert np.array_equal(out, ref_ge(su, sv))
    assert out.tolist() == [int(EDGE_DIFFS[i % 5] < 1 << 63) for i in range(lanes)]
    assert frames[:-1] == _bytes(_ge_cost_list(lanes))


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
    step = _sign_cost_list(lanes) + [costs.inject_cost(lanes, 1)]
    expected = (_sign_cost_list(2 * lanes) + [costs.inject_cost(2 * lanes, 1)] + step * iterations
                + [costs.inject_cost(lanes, 1)])
    assert frames[:-1] == _bytes(expected)
    assert sum(frames[:-1]) == costs.div_cost(lanes, CODEC).online_bytes


def test_sec_div_saturates_outside_its_domain():
    top = (1 << (CODEC.precision_p + CODEC.range_e - 1)) - 1
    u = CODEC.encode([1.0, -1.0, 0.0, 2000.0, -2000.0, 3.0])
    v = CODEC.encode([0.0, 0.0, 0.0, 0.5, 0.5, -1.5])
    su, sv = _split(u, 1), _split(v, 2)

    def proto(sess):
        return sec_rec(sess, gates.sec_div(sess, su[sess.party], sv[sess.party]))

    out, _ = _run_recorded(proto)
    assert to_signed(out).tolist() == [top, -top, top, top, -top, -2 << CODEC.precision_p]


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
