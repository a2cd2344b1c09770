"""Every gate against its exact oracle, at the published error budgets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import CODEC, both, raw_share_pair, reveal, reveal_bits, reveal_raw, share_pair
from starfish import gates, make_inproc_sessions, run_pair
from starfish.costs import comparator_calls, inject_cost, predict_cost, topk_layers, words_round
from starfish.errors import DivisionDomainError, ShapeError
from starfish.fixedpoint import from_signed, to_signed
from starfish.gates import (
    comparator,
    sec_div,
    sec_ge,
    sec_lut,
    sec_rank,
    sec_srt,
)
from starfish.oracle import ERROR_BUDGETS, exact_gate_oracle
from starfish.sharing import DealerTape

RNG = np.random.default_rng(42)


def grid(x):
    return CODEC.quantize(np.asarray(x, dtype=np.float64))


# -- multiplication ----------------------------------------------------------


@pytest.mark.parametrize("shape_x, shape_y", [((8,), (8,)), ((6, 1), (6, 5))], ids=["lanes", "broadcast"])
def test_beaver_mul_raw_shares(shape_x, shape_y):
    # full-ring words at scale 1: the shares sum to the exact ring product,
    # and party 0's share is c0 + d*b0 + a0*e + d*e from the same triple
    rng = np.random.default_rng(17)
    x = rng.integers(0, 2**64, size=shape_x, dtype=np.uint64)
    y = rng.integers(0, 2**64, size=shape_y, dtype=np.uint64)
    xs, ys = raw_share_pair(x, key=7), raw_share_pair(y, key=8)

    def proto(s):
        with s.op("beaver"):
            return gates._beaver_mul(s, xs[s.party], ys[s.party])

    z0, z1 = run_pair(proto, make_inproc_sessions(23))
    assert np.array_equal(np.add(z0, z1), x * y)
    (a0, b0, c0), (a1, b1, _) = (DealerTape(23, p).beaver(shape_x, shape_y) for p in (0, 1))
    d = np.add(np.subtract(xs[0], a0), np.subtract(xs[1], a1))
    e = np.add(np.subtract(ys[0], b0), np.subtract(ys[1], b1))
    three = np.add(np.add(c0, d * b0), np.add(a0 * e, d * e))
    assert np.array_equal(z0, three)


def test_sec_mul_column_times_matrix_at_operand_shapes():
    # the triple is drawn at the operands' shapes: d ships P words, e P*W
    p, w = 6, 5
    x = RNG.integers(-1000, 1000, size=(p, 1))
    y = RNG.integers(-1000, 1000, size=(p, w))
    a = raw_share_pair(x.astype(np.uint64), key=25)
    b = raw_share_pair(y.astype(np.uint64), key=26)

    def raw_product(s):
        with s.op("beaver"):
            z = gates._beaver_mul(s, a[s.party], b[s.party])
        return reveal_raw(s, z)

    got, sessions = both(raw_product)
    assert np.array_equal(got, x * y)
    st = sessions[0].meter.stats("beaver")
    assert (st.rounds, st.bytes_online) == words_round(p + p * w).as_tuple()
    assert st.bytes_offline == 8 * (p + p * w + p * w)  # a, b, and c = a * b


# -- selection and comparison ------------------------------------------------


def test_sec_ge_known_cases():
    x = share_pair(grid(1.0), key=25)
    y = share_pair(grid(-1.0), key=26)
    got, _ = both(lambda s: reveal_raw(s, sec_ge(s, x[s.party], x[s.party])))
    assert int(got) == 1  # x >= x
    got, _ = both(lambda s: reveal_raw(s, sec_ge(s, y[s.party], x[s.party])))
    assert int(got) == 0


def test_sec_ge_mass_agreement():
    x = grid(RNG.uniform(-2000, 2000, size=10_000))
    y = grid(RNG.uniform(-2000, 2000, size=10_000))
    y[:100] = x[:100]  # force exact ties
    a, b = share_pair(x, key=27), share_pair(y, key=28)
    got, _ = both(lambda s: reveal_raw(s, sec_ge(s, a[s.party], b[s.party])))
    assert np.array_equal(got, exact_gate_oracle("sec_ge", x, y))


def test_sec_ge2_ratio_cases():
    def ge2(nums):
        a = share_pair(grid([nums[:2]]), key=29)
        b = share_pair(grid([nums[2:]]), key=30)
        got, _ = both(lambda s: reveal_bits(s, comparator(s, a[s.party], b[s.party]), 1))
        return int(got[0])

    assert ge2((3.0, 4.0, 2.0, 3.0)) == 1   # 3/4 >= 2/3
    assert ge2((1.0, 2.0, 1.0, 2.0)) == 1   # equal ratios
    assert ge2((-1.0, 2.0, 1.0, 2.0)) == 0


def _ge_openings(diff, seeds, lanes=65):
    """Per dealer seed, every bit the sign circuit opens for u - v = diff in
    each lane, from the frames both parties send: the c words, then both AND
    levels' masked wires (27 and 6 per lane, pad bits cut). Returns the c
    words, each level's words with 64 live bits, and all live bits."""
    us = raw_share_pair(np.full(lanes, 7 + diff, dtype=np.uint64), key=140)
    vs = raw_share_pair(np.full(lanes, 7, dtype=np.uint64), key=141)
    opened = []
    for seed in seeds:
        sessions = make_inproc_sessions(seed)
        sent = {0: [], 1: []}
        for sess in sessions:
            send = sess.chan.send
            sess.chan.send = lambda frame, p=sess.party, send=send: (sent[p].append(frame), send(frame))
        run_pair(lambda s: gates._ge_bits(s, us[s.party], vs[s.party]), sessions)
        (c0, *m0), (c1, *m1) = ([np.frombuffer(f[16:], dtype="<u8") for f in sent[p]] for p in (0, 1))
        opened.append([np.add(c0, c1), *(a ^ b for a, b in zip(m0, m1))])
    c = np.array([o[0] for o in opened])
    levels = [np.array([o[k] for o in opened]) for k in (1, 2)]
    full = [m[:, : wires * lanes // 64] for m, wires in zip(levels, (27, 6))]
    bits = [np.unpackbits(c.view(np.uint8), axis=1, bitorder="little")]
    bits += [np.unpackbits(m.view(np.uint8), axis=1, bitorder="little")[:, : wires * lanes]
             for m, wires in zip(levels, (27, 6))]
    return c, full, np.concatenate(bits, axis=1)


def test_sign_circuit_openings_are_independent_of_the_inputs_and_fresh():
    # over a fixed set of dealer seeds, each live bit the circuit opens is set
    # as often for u - v = 0 as for u - v = 2^63 - 1 (the same sign), and no
    # opened word repeats across one input's runs and lanes. An r shared by
    # the lanes, or a mask shared by the lanes, fails the second
    seeds = range(300)
    (c0, full0, bits0), (c1, full1, bits1) = (_ge_openings(diff, seeds) for diff in (0, 2**63 - 1))
    n = len(seeds)
    pooled = (bits0.sum(axis=0) + bits1.sum(axis=0)) / (2 * n)
    spread = np.sqrt(2 * n * pooled * (1 - pooled))
    z = (bits0.sum(axis=0).astype(float) - bits1.sum(axis=0)) / np.where(spread > 0, spread, 1)
    assert spread.min() > 0 and np.abs(z).max() < 6
    for words in (c0, c1, *full0, *full1):
        assert len(np.unique(words)) == words.size


# -- bit injection ---------------------------------------------------------------


INJECT_X = [0, 1, int(from_signed(-1)), 1 << 63, 2**64 - 1]


def _bit_shares(bits, key):
    """Packed XOR shares of 0/1 bits, zero pad bits in both."""
    mask = np.random.default_rng(key).integers(0, 2, size=bits.size)
    return {0: gates._pack_lanes(mask), 1: gates._pack_lanes(mask ^ bits)}


@pytest.mark.parametrize("lanes", [1, 63, 64, 65, 8192])
@pytest.mark.parametrize("cols", [None, 3], ids=["1d", "rows"])
@pytest.mark.parametrize("pattern", ["zeros", "ones", "mixed"])
def test_bit_injection_is_exact_at_its_cost(lanes, cols, pattern):
    # b * x and the arithmetic share of b for edge-valued x, one bit per row
    bits = {"zeros": np.zeros(lanes, dtype=np.int64), "ones": np.ones(lanes, dtype=np.int64),
            "mixed": np.random.default_rng(lanes).integers(0, 2, size=lanes)}[pattern]
    shape = (lanes,) if cols is None else (lanes, cols)
    x = np.resize(np.array(INJECT_X, dtype=np.uint64), shape)
    xs, bs = raw_share_pair(x, key=120 + lanes), _bit_shares(bits, key=lanes)

    sessions = make_inproc_sessions(lanes)
    (z0, b0), (z1, b1) = run_pair(lambda s: gates._bit_inject(s, bs[s.party], xs[s.party]), sessions)
    col = bits.astype(np.uint64).reshape((lanes,) + (1,) * (len(shape) - 1))
    assert np.array_equal(np.add(z0, z1), np.multiply(col, x))
    assert np.array_equal(np.add(b0, b1), bits.astype(np.uint64))
    words = 1 if cols is None else cols
    st = sessions[0].meter.stats("other")
    assert (st.rounds, st.bytes_online) == inject_cost(lanes, words).as_tuple()
    # r in both domains, then a and c = r * a at x's shape
    assert st.bytes_offline == 8 * (-(-lanes // 64) + lanes + 2 * lanes * words)


def _inject_openings(bit, seeds, lanes=65, cols=2):
    """Per dealer seed, the opened t words (packed, pad bits cut) and e words
    of one injection of all-`bit` bits into a constant x, taken from the
    frames both parties send."""
    x = raw_share_pair(np.full((lanes, cols), 5, dtype=np.uint64), key=130)
    bs = _bit_shares(np.full(lanes, bit), key=131)
    nw = -(-lanes // 64)
    opened_t, opened_e = [], []
    for seed in seeds:
        sessions = make_inproc_sessions(seed)
        sent = {}
        for sess in sessions:
            send = sess.chan.send
            sess.chan.send = lambda frame, p=sess.party, send=send: (sent.setdefault(p, frame), send(frame))
        run_pair(lambda s: gates._bit_inject(s, bs[s.party], x[s.party]), sessions)
        words = [np.frombuffer(sent[p][16:], dtype="<u8") for p in (0, 1)]
        opened_t.append(words[0][:nw] ^ words[1][:nw])
        opened_e.append(np.add(words[0][nw:], words[1][nw:]))
    live = np.arange(64 * nw) < lanes
    t_bits = np.unpackbits(np.array(opened_t).view(np.uint8), axis=1, bitorder="little")[:, live]
    e_bits = np.unpackbits(np.array(opened_e).view(np.uint8), axis=1, bitorder="little")
    return np.array(opened_t), np.array(opened_e), np.concatenate([t_bits, e_bits], axis=1)


def test_bit_injection_openings_are_independent_of_the_bits_and_fresh():
    # over a fixed set of dealer seeds, each live bit of the opened t and e
    # words is set as often under all-zero bits as under all-one bits, and no
    # opened word repeats within one input's runs. A mask left out of t, or
    # a reused across rows, fails one of the two
    seeds = range(300)
    t0, e0, bits0 = _inject_openings(0, seeds)
    t1, e1, bits1 = _inject_openings(1, seeds)
    n = len(seeds)
    pooled = (bits0.sum(axis=0) + bits1.sum(axis=0)) / (2 * n)
    spread = np.sqrt(2 * n * pooled * (1 - pooled))
    z = (bits0.sum(axis=0).astype(float) - bits1.sum(axis=0)) / np.where(spread > 0, spread, 1)
    assert spread.min() > 0 and np.abs(z).max() < 6
    for t, e in ((t0, e0), (t1, e1)):
        assert len(np.unique(e)) == e.size
        assert len(np.unique(t[:, 0])) == len(t)  # the first word holds 64 live bits


# -- sorting -------------------------------------------------------------------


def _ratio_instance(t, key):
    # tie-free u/v pairs with positive denominators
    while True:
        u = grid(RNG.uniform(-3, 3, size=t))
        v = grid(RNG.uniform(0.5, 3, size=t))
        r = u / v
        if np.unique(r).size == t and np.min(np.abs(np.subtract.outer(r, r)[~np.eye(t, dtype=bool)])) > 1e-3:
            break
    return u, v, share_pair(u, key=key), share_pair(v, key=key + 1)


def test_sec_srt_sorts_and_counts_comparators():
    t = 16
    u, v, us, vs = _ratio_instance(t, key=44)
    payload = raw_share_pair(np.arange(t, dtype=np.uint64), key=46)

    def proto(sess):
        rows = np.stack([us[sess.party], vs[sess.party], payload[sess.party]], axis=1)
        return reveal_raw(sess, sec_srt(sess, rows, 2, t)[:, -1])

    got, sessions = both(proto)
    want = np.argsort(-(u / v), kind="stable")
    assert np.array_equal(got, want)
    assert sessions[0].meter.stats("comparator").invocations == comparator_calls(t, t)


def test_sec_srt_eight_items_cost_and_stability():
    t = 8
    vals = grid(np.arange(t, 0, -1, dtype=float))  # already descending
    vs = share_pair(vals, key=47)
    payload = raw_share_pair(np.arange(t, dtype=np.uint64), key=48)

    def proto(sess):
        rows = np.stack([vs[sess.party], payload[sess.party]], axis=1)
        return reveal_raw(sess, sec_srt(sess, rows, 1, t)[:, -1])

    got, sessions = both(proto)
    assert np.array_equal(got, np.arange(t))  # sorted input comes back unchanged
    assert sessions[0].meter.stats("comparator").invocations == comparator_calls(8, 8) == 24


def test_sec_srt_pads_odd_lengths():
    vals = grid(np.array([1.0, 3.0, 2.0, -1.0, 0.5]))
    vs = share_pair(vals, key=49)
    payload = raw_share_pair(np.arange(5, dtype=np.uint64), key=50)

    def proto(sess):
        rows = np.stack([vs[sess.party], payload[sess.party]], axis=1)
        return reveal_raw(sess, sec_srt(sess, rows, 1, 5)[:, -1])

    got, _ = both(proto)
    assert np.array_equal(got, np.argsort(-vals, kind="stable"))


# key widths: values, and (u, v) fractions ordered by u/v
KEY_WIDTHS = [pytest.param(1, id="plain"), pytest.param(2, id="pair")]


def _key(width, sign, x, y):
    # a (T, width) plaintext key of signed magnitudes x over denominators y,
    # and the score it orders by
    num = sign * x
    return (num[:, None], num) if width == 1 else (np.stack([num, y], axis=1), num / y)


def _order_instance(width, t):
    # a tie-free plaintext key
    rng = np.random.default_rng(61)
    w = rng.integers(0, 2, size=t)
    x = grid(rng.permutation(np.linspace(0.5, 2.5, t)))
    y = grid(rng.uniform(0.5, 2.0, size=t))
    return _key(width, np.where(w == 1, 1.0, -1.0), x, y)


@pytest.mark.parametrize("width", KEY_WIDTHS)
def test_every_sort_order_sorts_a_padded_instance_at_its_cost(width):
    t = 5  # padded to 8: three minus-infinity rows
    key, score = _order_instance(width, t)
    assert np.unique(score).size == t
    shares = share_pair(key, key=60)
    payload = raw_share_pair(np.arange(t, dtype=np.uint64), key=59)

    def proto(sess):
        rows = np.column_stack([shares[sess.party], payload[sess.party]])
        return reveal_raw(sess, sec_srt(sess, rows, width, t)[:, -1])

    got, sessions = both(proto)
    assert np.array_equal(got, np.argsort(-score, kind="stable"))
    want = predict_cost("sec_srt", {"t": t, "item_words": width + 1, "width": width, "count": t}, CODEC)
    st = sessions[0].meter.stats("sec_srt")
    assert (st.rounds, st.bytes_online) == want.as_tuple()


TOPK_GRID = sorted({(t, count) for t in (1, 2, 5, 8, 9, 33, 64, 100, 128) for count in (1, 2, 7, 8, t)})


@pytest.mark.parametrize("width", KEY_WIDTHS)
@pytest.mark.parametrize("t, count", TOPK_GRID)
def test_sec_srt_top_count_at_its_cost(width, t, count):
    key, score = _order_instance(width, t)
    assert np.unique(score).size == t
    shares = share_pair(key, key=62)
    payload = raw_share_pair(np.arange(t, dtype=np.uint64), key=63)

    def proto(sess):
        rows = np.column_stack([shares[sess.party], payload[sess.party]])
        return reveal_raw(sess, sec_srt(sess, rows, width, count)[:, -1])

    got, sessions = both(proto)
    assert np.array_equal(got, np.argsort(-score, kind="stable")[:count])
    shape = {"t": t, "item_words": width + 1, "width": width, "count": count}
    st = sessions[0].meter.stats("sec_srt")
    assert (st.rounds, st.bytes_online) == predict_cost("sec_srt", shape, CODEC).as_tuple()
    calls = sessions[0].meter.stats("comparator").invocations
    assert calls == comparator_calls(t, count)
    if count >= t:
        # the full bitonic sort: l(l+1)/2 stages of N/2 compare-exchanges at
        # N = 2^l, each a comparator's sign circuit (3 rounds, one more to
        # cross multiply width-2 keys) and one injection round
        ell = max(t - 1, 0).bit_length()
        stages = ell * (ell + 1) // 2
        assert (calls, st.rounds) == (stages * (1 << ell) // 2, stages * (3 + width))


@pytest.mark.parametrize("t", [5, 8, 13, 128])
@pytest.mark.parametrize("count", [1, 3, 7, "t"])
def test_sec_srt_walks_the_topk_layers(monkeypatch, t, count):
    # one comparator call per layer, over half the rows; a half-cleaner
    # (j = 0) keeps one row of each pair
    count = t if count == "t" else count
    calls = []

    def recording(sess, a, b):
        if sess.party == 0:
            calls.append(len(a))
        return comparator(sess, a, b)

    monkeypatch.setattr(gates, "comparator", recording)
    key, score = _order_instance(1, t)
    shares = share_pair(key, key=64)
    payload = raw_share_pair(np.arange(t, dtype=np.uint64), key=65)

    def proto(sess):
        rows = np.column_stack([shares[sess.party], payload[sess.party]])
        return reveal_raw(sess, sec_srt(sess, rows, 1, count)[:, -1])

    got, _ = both(proto)
    assert np.array_equal(got, np.argsort(-score, kind="stable")[:count])
    rows, want = 1 << max(t - 1, 0).bit_length(), []
    for _, j in topk_layers(t, count):
        want.append(rows // 2)
        if j == 0:
            rows //= 2
    assert calls == want
    assert sum(calls) == comparator_calls(t, count)


def _tied_instance(width, t, seed):
    # t items drawn with replacement from four rows of distinct scores, two
    # of each sign, so exact duplicates straddle most cutoffs
    sign = np.where(np.array([1, 0, 1, 0]) == 1, 1.0, -1.0)
    key, score = _key(width, sign, grid([1.5, 0.75, 0.5, 1.25]), grid([0.75, 1.5, 2.0, 1.0]))
    assert np.unique(score).size == 4
    pick = np.random.default_rng(seed).integers(0, 4, size=t)
    return key[pick], score[pick]


@pytest.mark.parametrize("width", KEY_WIDTHS)
@pytest.mark.parametrize("t", [2, 3, 5, 10, 12])
def test_sec_rank_selects_the_stable_top_set_at_its_cost(width, t):
    key, score = _tied_instance(width, t, seed=t)
    shares = share_pair(key, key=70)
    for count in sorted({1, (t + 1) // 2, t - 1}):

        def proto(sess):
            return sec_rank(sess, shares[sess.party], count)

        got, sessions = both(proto)
        want = np.sort(np.argsort(-score, kind="stable")[:count])
        assert np.array_equal(np.flatnonzero(got == 1), want), (count, got, score)
        # the comparator layer, then the lookup that reveals the flags
        meter = sessions[0].meter
        rounds = meter.stats("sec_rank").rounds + meter.stats("sec_lut").rounds
        shape = {"t": t, "width": width}
        assert (rounds, meter.total_online_bytes) == predict_cost("sec_rank", shape, CODEC).as_tuple()
        assert sessions[0].meter.stats("comparator").invocations == t * (t - 1) // 2


# -- table lookup ----------------------------------------------------------------


@pytest.mark.parametrize("size", [1, 2, 8, 64, 128])
@pytest.mark.parametrize("lanes", [1, 64, 65])
def test_sec_lut_is_exact_on_every_index_at_its_cost(size, lanes):
    # every x in [0, M), lanes per call; 128 entries span two table words,
    # and 65 lanes make the revealed bits cross a word
    table = np.random.default_rng(size).permutation(size) % 2
    xs = (np.arange(-(-size // lanes) * lanes) % size).reshape(-1, lanes)
    shares = raw_share_pair(xs, key=90 + lanes)

    got, sessions = both(lambda s: np.array([sec_lut(s, x, table) for x in shares[s.party]]))
    assert np.array_equal(got, table[xs])
    st = sessions[0].meter.stats("sec_lut")
    shape = {"lanes": (lanes,), "size": size}
    assert (st.rounds, st.bytes_online) == (predict_cost("sec_lut", shape, CODEC) * len(xs)).as_tuple()


def test_sec_lut_keeps_the_index_shape_and_rejects_other_table_sizes():
    x = raw_share_pair(np.array([[3, 0, 2], [1, 3, 3]]), key=96)
    got, _ = both(lambda s: sec_lut(s, x[s.party], [1, 0, 0, 1]))
    assert np.array_equal(got, [[1, 1, 0], [0, 1, 1]])
    with pytest.raises(ShapeError, match="power-of-two"):
        sec_lut(make_inproc_sessions(0)[0], x[0], np.ones(6))


# -- division --------------------------------------------------------------------


def numerator(x, key):
    """Shares of encoded values shifted to 2^-2p, sec_div's numerator scale."""
    return raw_share_pair(CODEC.encode(x) << np.uint64(CODEC.precision_p), key=key)


def test_sec_div_known_quotients():
    u, v = numerator(6.0, key=51), share_pair(grid(2.0), key=52)
    got, _ = both(lambda s: reveal(s, sec_div(s, u[s.party], v[s.party])))
    assert float(got) == 3.0

    x = grid(RNG.uniform(-10, 10, size=16))
    xs, ones = numerator(x, key=53), share_pair(grid(np.ones(16)), key=54)
    got, _ = both(lambda s: reveal(s, sec_div(s, xs[s.party], ones[s.party])))
    assert np.array_equal(got, x)

    u, v = numerator(1.0, key=55), share_pair(grid(3.0), key=56)
    got, _ = both(lambda s: reveal(s, sec_div(s, u[s.party], v[s.party])))
    assert abs(float(got) - 1.0 / 3.0) <= 2.0 ** -CODEC.precision_p


def test_sec_div_random_within_budget():
    n = 200
    u = grid(RNG.uniform(-30, 30, size=n))
    v = grid(RNG.uniform(0.5, 30, size=n) * RNG.choice([-1.0, 1.0], size=n))
    us, vs = numerator(u, key=57), share_pair(v, key=58)
    got, _ = both(lambda s: reveal(s, sec_div(s, us[s.party], vs[s.party])))
    err = np.abs(got - exact_gate_oracle("sec_div", u, v))
    assert float(err.max()) <= ERROR_BUDGETS["sec_div"]


def test_division_oracle_guards_zero():
    with pytest.raises(DivisionDomainError):
        exact_gate_oracle("sec_div", np.array([1.0]), np.array([0.0]))


# -- properties ------------------------------------------------------------------

floats = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(floats, floats), min_size=1, max_size=8))
def test_mul_property(pairs):
    # the raw product of two encoded operands is exact at 2^-2p
    x = CODEC.encode([a for a, _ in pairs])
    y = CODEC.encode([b for _, b in pairs])
    a, b = share_pair(CODEC.decode(x), key=80), share_pair(CODEC.decode(y), key=81)

    def proto(s):
        with s.op("beaver"):
            return reveal_raw(s, gates._beaver_mul(s, a[s.party], b[s.party]))

    got, _ = both(proto)
    assert np.array_equal(got, to_signed(x) * to_signed(y))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(floats, floats), min_size=1, max_size=8))
def test_ge_property(pairs):
    x = grid([a for a, _ in pairs])
    y = grid([b for _, b in pairs])
    a, b = share_pair(x, key=82), share_pair(y, key=83)
    got, _ = both(lambda s: reveal_raw(s, sec_ge(s, a[s.party], b[s.party])))
    assert np.array_equal(got, (x >= y).astype(np.int64))
