"""The packed boolean kernel and division against references in the clear.

The bit reference keeps one bit per uint8, LSB first along the last axis,
and runs the Kogge-Stone adder in the clear; the comparison reads the sign
bit of its full sum. A second reference runs the sign circuit's algebra on
Python ints: the masked opening c = d + r, then [c mod 2^63 < r mod 2^63]
from 16 digits in groups of four. The division reference runs sec_div's
restoring division on ring words as Python ints. Every secure result
reconstructs to a deterministic function of its inputs, so it must equal
the reference exactly, for any input (division by zero and
non-representable quotients included, where both saturate).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import CODEC
from starfish import make_inproc_sessions, run_pair, sec_rec
from starfish import costs, gates, transport
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


def ref_digit_lt(c, r):
    """[c' < r'] for c' = c mod 2^63, r' = r mod 2^63 the way the sign
    circuit forms it: per digit (15 of 4 bits, a top one of 3) the bits
    [c_i < r_i] and [c_i = r_i], then LT = lt3 ^ eq3 lt2 ^ eq3 eq2 lt1 ^
    eq3 eq2 eq1 lt0 over each group of four digits (and EQ of the upper
    three groups), then the same over the four groups."""
    dc = [(c >> 4 * i) & (15 if i < 15 else 7) for i in range(16)]
    dr = [(r >> 4 * i) & (15 if i < 15 else 7) for i in range(16)]

    def combine(lt, eq):  # most significant first
        return lt[0] ^ eq[0] & lt[1] ^ eq[0] & eq[1] & lt[2] ^ eq[0] & eq[1] & eq[2] & lt[3]

    groups = [[4 * j + 3 - i for i in range(4)] for j in range(4)]
    lt = [combine([int(dc[i] < dr[i]) for i in g], [int(dc[i] == dr[i]) for i in g]) for g in groups]
    eq = [int(all(dc[i] == dr[i] for i in g)) for g in groups]
    return combine(lt[::-1], eq[::-1])


def test_reference_sign_from_a_masked_opening():
    # MSB(d) = MSB(c) ^ MSB(r) ^ [c' < r'] for c = d + r, on the whole ring
    rng = np.random.default_rng(3)
    r = rng.integers(0, 2**64, size=400, dtype=np.uint64).tolist()
    d = EDGE_DIFFS * 20 + rng.integers(0, 2**64, size=260, dtype=np.uint64).tolist()
    for dk, rk in zip(d, r):
        c = (dk + rk) & MASK
        assert ref_digit_lt(c, rk) == int(c % 2**63 < rk % 2**63)
        assert dk >> 63 == (c >> 63) ^ (rk >> 63) ^ ref_digit_lt(c, rk)


def ref_div(u, v, iterations):
    """sec_div step by step on ring words: sigma = +-1 from the sign bit,
    magnitudes by multiplying with it, one compare-and-subtract per quotient
    bit, where the comparison reads the sign bit of the ring difference,
    and the product of the sigmas applied last."""
    out = []
    for a, b in zip(np.asarray(u).tolist(), np.asarray(v).tolist()):
        sa, sb = (1 if x >> 63 == 0 else MASK for x in (a, b))
        au, av = a * sa & MASK, b * sb & MASK
        rem, quot = au, 0
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
    # numerators at 2^-2p, divisors and quotients at 2^-p
    limit = 1 << (CODEC.precision_p + CODEC.range_e - 1)
    u = rng.integers(-(limit << CODEC.precision_p) + 1, limit << CODEC.precision_p, size=200)
    v = rng.integers(-limit + 1, limit, size=200)
    v[:100] = rng.integers(-300, 300, size=100) | 1
    q = [abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1) for a, b in zip(u, v)]
    ok = np.abs(q) < limit
    got = ref_div(from_signed(u), from_signed(v), costs.div_iterations(CODEC))
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
    """The masked difference as a word per lane, then the two AND levels:
    27 masked wires per lane (six per group of four digits, and the lowest
    digit's [=] of the three upper groups), then 6 (of the groups)."""
    return [costs.words_round(lanes), costs.bits_round(27 * lanes), costs.bits_round(6 * lanes)]


def _ge_cost_list(lanes):
    """The sign circuit, then the B2A of its bits."""
    return [*_sign_cost_list(lanes), costs.bits_round(lanes)]


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


# u - v at the sign boundary: 0 and 2^63 open c' = r' (every digit equal),
# 1 and 2^63 + 1 open c' = r' + 1, 2^63 - 1 and 2^64 - 1 open c' = r' - 1
EDGE_DIFFS = [0, 1, 1 << 62, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, MASK]


@pytest.mark.parametrize("lanes", (1, 3, 63, 64, 65, 130, 8192))
def test_sec_ge_edge_values(lanes):
    rng = np.random.default_rng(lanes)
    u = rng.integers(0, 2**64, size=lanes, dtype=np.uint64)
    v = u - np.array([EDGE_DIFFS[i % 7] for i in range(lanes)], dtype=np.uint64)
    su, sv = _split(u, lanes), _split(v, lanes + 1)

    def proto(sess):
        return sec_rec(sess, gates.sec_ge(sess, su[sess.party], sv[sess.party]))

    out, frames = _run_recorded(proto, lanes)
    assert np.array_equal(out, ref_ge(su, sv))
    assert out.tolist() == [int(EDGE_DIFFS[i % 7] < 1 << 63) for i in range(lanes)]
    assert frames[:-1] == _bytes(_ge_cost_list(lanes))


@pytest.mark.parametrize("lanes", LANES)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_sec_div_matches_reference(lanes, data):
    reals = st.floats(min_value=-2047.0, max_value=2047.0, allow_nan=False)
    # the numerator at 2^-2p
    u = CODEC.encode(data.draw(st.lists(reals, min_size=lanes, max_size=lanes))) << np.uint64(CODEC.precision_p)
    v = CODEC.encode(data.draw(st.lists(reals, min_size=lanes, max_size=lanes)))
    seed = data.draw(st.integers(0, 2**32))
    su, sv = _split(u, seed), _split(v, seed + 1)

    def proto(sess):
        return sec_rec(sess, gates.sec_div(sess, su[sess.party], sv[sess.party]))

    out, frames = _run_recorded(proto, seed)
    iterations = gates.div_iterations(CODEC)
    assert np.array_equal(out, ref_div(u, v, iterations))
    step = _sign_cost_list(lanes) + [costs.inject_cost(lanes, 1)]
    expected = (_sign_cost_list(2 * lanes) + [costs.inject_cost(2 * lanes, 1)] + step * iterations
                + [costs.inject_cost(lanes, 1)])
    assert frames[:-1] == _bytes(expected)
    assert sum(frames[:-1]) == costs.div_cost(lanes, CODEC).online_bytes


def test_sec_div_saturates_outside_its_domain():
    top = (1 << (CODEC.precision_p + CODEC.range_e - 1)) - 1
    u = CODEC.encode([1.0, -1.0, 0.0, 2000.0, -2000.0, 3.0]) << np.uint64(CODEC.precision_p)
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
    words = transport._pack_lanes(bits)
    assert words.dtype == np.uint64 and words.shape == (-(-lanes // 64),)
    for i, w in enumerate(words.tolist()):
        expect = sum(int(b) << k for k, b in enumerate(bits[64 * i : 64 * i + 64]))
        assert w == expect  # bit i of the sequence is bit i % 64 of word i // 64; pad is zero
    assert np.array_equal(transport._unpack_lanes(words, lanes), bits)
