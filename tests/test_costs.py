"""Cost formulas must match the meter exactly, gate by gate."""

import numpy as np
import pytest

from helpers import CODEC, raw_share_pair, share_pair
from starfish.costs import (
    CostEstimate,
    comparator_calls,
    comparator_cost,
    ks_level_count,
    padded_size,
    predict_cost,
)
from starfish.errors import UnknownFunctionality
from starfish.gates import (
    ComparisonKey,
    comparator_pair,
    sec_add,
    sec_div,
    sec_ge,
    sec_max,
    sec_mul,
    sec_sel,
    sec_sp,
    sec_srt,
)
from starfish.sharing import sec_rec

RNG = np.random.default_rng(7)


def measured(op, proto, seed=0):
    # the proto's return value is a party-local share; only the meters matter
    from starfish import make_inproc_sessions, run_pair

    sessions = make_inproc_sessions(seed)
    run_pair(proto, sessions)
    st0 = sessions[0].meter.stats(op)
    st1 = sessions[1].meter.stats(op)
    assert (st0.rounds, st0.bytes_online) == (st1.rounds, st1.bytes_online)
    return (st0.rounds, st0.bytes_online)


def vals(n, key):
    return share_pair(CODEC.quantize(RNG.uniform(-2, 2, size=n)), key=key)


def test_cost_estimate_arithmetic():
    a = CostEstimate(1, 10)
    assert (a + a).as_tuple() == (2, 20)
    assert (a * 3).as_tuple() == (3, 30)


def test_unknown_functionality():
    with pytest.raises(UnknownFunctionality):
        predict_cost("sec_nope", (), CODEC)


def test_comparator_call_formula():
    assert comparator_calls(4) == 6
    assert comparator_calls(8) == 24
    assert comparator_calls(16) == 80
    assert comparator_calls(5) == comparator_calls(8)  # padded up


def test_padded_size_and_levels():
    assert padded_size(5) == 8
    assert padded_size(8) == 8
    assert ks_level_count(64) == 6


def test_sec_add_free():
    a, b = vals(8, 1), vals(8, 2)
    got = measured("sec_add", lambda s: sec_add(s, a[s.party], b[s.party]))
    assert got == predict_cost("sec_add", (8,), CODEC).as_tuple() == (0, 0)


def test_sec_mul_scalar_cost():
    a, b = vals(1, 3), vals(1, 4)
    got = measured("sec_mul", lambda s: sec_mul(s, a[s.party][0], b[s.party][0]))
    # one round carrying the two masked operands: frame + 2 words
    assert got == predict_cost("sec_mul", (), CODEC).as_tuple() == (1, 32)


def test_sec_mul_lanes_cost():
    a, b = vals(8, 5), vals(8, 6)
    got = measured("sec_mul", lambda s: sec_mul(s, a[s.party], b[s.party]))
    assert got == predict_cost("sec_mul", (8,), CODEC).as_tuple()


def test_sec_mul_matmul_cost():
    a = share_pair(CODEC.quantize(RNG.uniform(-1, 1, size=(4, 4))), key=7)
    b = share_pair(CODEC.quantize(RNG.uniform(-1, 1, size=(4, 4))), key=8)
    got = measured("sec_mul", lambda s: sec_mul(s, a[s.party], b[s.party], matmul=True))
    assert got == predict_cost("sec_mul", {"matmul": ((4, 4), (4, 4))}, CODEC).as_tuple()


def test_sec_sp_cost():
    a, b = vals(16, 12), vals(16, 13)
    got = measured("sec_sp", lambda s: sec_sp(s, a[s.party], b[s.party]))
    assert got == predict_cost("sec_sp", (16,), CODEC).as_tuple()


def test_sec_rec_cost():
    a = vals(8, 14)
    got = measured("sec_rec", lambda s: sec_rec(s, a[s.party]))
    assert got == predict_cost("sec_rec", (8,), CODEC).as_tuple()


def test_sec_sel_cost():
    a, b = vals(8, 15), vals(8, 16)
    bits = raw_share_pair(RNG.integers(0, 2, size=8).astype(np.uint64), key=17)
    got = measured("sec_sel", lambda s: sec_sel(s, a[s.party], b[s.party], bits[s.party]))
    assert got == predict_cost("sec_sel", (8,), CODEC).as_tuple()


def test_sec_ge_cost():
    a, b = vals(8, 18), vals(8, 19)
    got = measured("sec_ge", lambda s: sec_ge(s, a[s.party], b[s.party]))
    assert got == predict_cost("sec_ge", (8,), CODEC).as_tuple()


def test_sec_ge2_cost():
    # the pair sort order's comparator alone, outside any gate scope
    u1, v1, u2, v2 = vals(8, 20), vals(8, 21), vals(8, 22), vals(8, 23)
    got = measured(
        "other",
        lambda s: comparator_pair(s, {"u": u1[s.party], "v": v1[s.party]}, {"u": u2[s.party], "v": v2[s.party]}),
    )
    assert got == comparator_cost("pair", 8).as_tuple()


def test_sec_max_cost():
    a = share_pair(CODEC.quantize(RNG.uniform(-2, 2, size=(4, 8))), key=24)
    got = measured("sec_max", lambda s: sec_max(s, a[s.party]))
    assert got == predict_cost("sec_max", (4, 8), CODEC).as_tuple()


def test_sec_srt_cost():
    u = share_pair(CODEC.quantize(RNG.uniform(-2, 2, size=8)), key=25)
    v = share_pair(CODEC.quantize(RNG.uniform(0.5, 2, size=8)), key=26)
    payload = raw_share_pair(np.arange(8, dtype=np.uint64), key=27)

    def proto(sess):
        key = ComparisonKey(
            variant="pair",
            parts={"u": u[sess.party], "v": v[sess.party]},
            payload=payload[sess.party],
        )
        sec_srt(sess, key)
        return 0

    got = measured("sec_srt", proto)
    assert got == predict_cost("sec_srt", {"t": 8, "item_words": 3, "comparator": "pair"}, CODEC).as_tuple()


def test_sec_div_cost():
    u = share_pair(CODEC.quantize(RNG.uniform(-5, 5, size=4)), key=28)
    v = share_pair(CODEC.quantize(RNG.uniform(0.5, 5, size=4)), key=29)
    got = measured("sec_div", lambda s: sec_div(s, u[s.party], v[s.party]))
    assert got == predict_cost("sec_div", (4,), CODEC).as_tuple()


def test_mi_scalar_lane_convention():
    # scalar reciprocal lanes are the m=1 batch case
    want = predict_cost("sec_rec", (8,), CODEC) + predict_cost("sec_rec", (4,), CODEC)
    got = predict_cost("sec_mi", {"m": 1, "batch": 4}, CODEC)
    assert got.as_tuple() == (2, want.online_bytes)
