"""Cost formulas must match the meter exactly, gate by gate."""

import numpy as np
import pytest

from helpers import CODEC, compare, raw_share_pair, share_pair
from starfish.costs import (
    CostEstimate,
    comparator_calls,
    comparator_cost,
    SIGN_LEVEL_BITS,
    ge_cost,
    lut_cost,
    padded_size,
    predict_cost,
    rank_cost,
    ranks,
    sort_cost,
    topk_layers,
    words_round,
)
from starfish import gates
from starfish.errors import UnknownFunctionality
from starfish.gates import (
    sec_div,
    sec_ge,
    sec_srt,
)
from starfish.roundsel import SelectionInputs, SelectionParams, sec_rs
from starfish.sharing import sec_rec
from starfish.transport import bit_payload_bytes

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
    # count >= T: the full bitonic sort, (l^2 + l)/4 * T
    assert comparator_calls(4, 4) == 6
    assert comparator_calls(8, 8) == 24
    assert comparator_calls(16, 16) == 80
    assert comparator_calls(128, 128) == 1792
    assert comparator_calls(5, 5) == comparator_calls(8, 8) == comparator_calls(8, 100)  # padded up
    # top-k: blocks of K = padded_size(count) sorted, then per merge level of
    # n rows one half-cleaner (n/2) and log2 K merge stages (n/4 each)
    assert comparator_calls(32, 10) == 16 * 10 + (16 + 4 * 8) == 208
    assert comparator_calls(128, 7) == 64 * 6 + (64 + 3 * 32) + (32 + 3 * 16) + (16 + 3 * 8) + (8 + 3 * 4) == 684
    assert comparator_calls(8, 1) == 4 + 2 + 1 == 7


def test_topk_layers():
    # (k, j) stages; j = 0 marks a half-cleaner between blocks of k rows
    assert topk_layers(8, 8) == [(2, 1), (4, 2), (4, 1), (8, 4), (8, 2), (8, 1)]
    assert topk_layers(5, 100) == topk_layers(8, 8)
    assert topk_layers(8, 3) == [(2, 1), (4, 2), (4, 1), (4, 0), (4, 2), (4, 1)]
    assert topk_layers(8, 1) == [(1, 0)] * 3
    assert topk_layers(1, 1) == []


def test_ge_cost_bytes():
    # four frames: the masked difference as a word per lane, then 27 and 6
    # masked wires per lane packed across lanes, then the B2A's bit per lane
    for lanes in (1, 5, 64, 65, 8192):
        sent = 8 * lanes + sum(bit_payload_bytes(bits * lanes) for bits in (27, 6, 1))
        assert ge_cost(lanes).as_tuple() == (4, 4 * 16 + sent)
    assert ge_cost(1).as_tuple() == (4, 96)


def test_padded_size_and_levels():
    assert padded_size(5) == 8
    assert padded_size(8) == 8
    # the sign circuit's AND levels open the wires costs prices
    assert tuple(len(opened) for opened, *_ in gates._LEVELS) == SIGN_LEVEL_BITS


@pytest.mark.parametrize("size", [1, 2, 8, 128])
def test_lut_cost_opens_the_index_bits(size):
    # log2(size) packed bits per lane, then one looked-up bit per lane
    for lanes in (1, 5, 64, 70):
        assert lut_cost(lanes, size).as_tuple() == (
            2, 32 + bit_payload_bytes(lanes * (size.bit_length() - 1)) + bit_payload_bytes(lanes))


def test_sec_rec_cost():
    a = vals(8, 14)
    got = measured("sec_rec", lambda s: sec_rec(s, a[s.party]))
    assert got == predict_cost("sec_rec", (8,), CODEC).as_tuple()


def test_sec_ge_cost():
    a, b = vals(8, 18), vals(8, 19)
    got = measured("sec_ge", lambda s: sec_ge(s, a[s.party], b[s.party]))
    assert got == predict_cost("sec_ge", (8,), CODEC).as_tuple()


def test_sec_ge2_cost():
    # the comparator on width-2 (u, v) keys alone, outside any gate scope
    a = share_pair(CODEC.quantize(RNG.uniform(0.5, 2, size=(8, 2))), key=20)
    b = share_pair(CODEC.quantize(RNG.uniform(0.5, 2, size=(8, 2))), key=21)
    got = measured("other", lambda s: compare(s, a[s.party], b[s.party]))
    assert got == comparator_cost(2, 8).as_tuple()


def test_sec_srt_cost():
    u = share_pair(CODEC.quantize(RNG.uniform(-2, 2, size=8)), key=25)
    v = share_pair(CODEC.quantize(RNG.uniform(0.5, 2, size=8)), key=26)
    payload = raw_share_pair(np.arange(8, dtype=np.uint64), key=27)

    def proto(sess):
        sec_srt(sess, np.stack([u[sess.party], v[sess.party], payload[sess.party]], axis=1), 2, 8)
        return 0

    got = measured("sec_srt", proto)
    assert got == predict_cost("sec_srt", {"t": 8, "item_words": 3, "width": 2, "count": 8}, CODEC).as_tuple()


def test_sec_div_cost():
    u = share_pair(CODEC.quantize(RNG.uniform(-5, 5, size=4)), key=28)
    v = share_pair(CODEC.quantize(RNG.uniform(0.5, 5, size=4)), key=29)
    got = measured("sec_div", lambda s: sec_div(s, u[s.party], v[s.party]))
    assert got == predict_cost("sec_div", (4,), CODEC).as_tuple()


def test_selection_costs_match_the_meter_on_every_path():
    # kept in 2..40 crosses the non-monotone rank/sort rule several times;
    # odd kept adds one round whose public update is zero, and kept = 5
    # (mod 10) selects every kept round
    from starfish import make_inproc_sessions, run_pair

    m = 2
    rng = np.random.default_rng(17)
    paths = {1: set(), 2: set()}
    for kept in range(2, 41):
        t = kept + kept % 2
        t_prime = kept if kept % 10 == 5 else max(1, kept // 3)
        grads = CODEC.quantize(rng.uniform(0.3, 1.0, size=(t, m)) * rng.choice([-1.0, 1.0], size=(t, m)))
        deltas = rng.uniform(0.5, 1.0, size=(t, m))
        deltas[kept:] = 0.0
        gsh = share_pair(grads, key=100 + kept)
        nsh = share_pair(np.linalg.norm(grads, axis=1), key=200 + kept)
        params = SelectionParams(t=t, sigma=1.0, t_prime=t_prime)
        for method in (1, 2):
            def proto(sess):
                inputs = SelectionInputs(gsh[sess.party], deltas, nsh[sess.party])
                return sec_rs(sess, inputs, params, method=method).kept

            sessions = make_inproc_sessions(kept)
            got_kept, _ = run_pair(proto, sessions)
            assert got_kept.tolist() == list(range(kept))
            meter = sessions[0].meter
            assert "sec_ge" not in meter.per_op
            got = (sum(st.rounds for st in meter.per_op.values()), meter.total_online_bytes)
            shape = {"t": t, "t_prime": t_prime, "method": method, "kept": kept}
            assert got == predict_cost("sec_rs", shape, CODEC).as_tuple(), (kept, method)
            paths[method].add(next((op for op in ("sec_rank", "sec_srt") if meter.stats(op).rounds), None))
    assert paths[1] == paths[2] == {"sec_rank", "sec_srt", None}


def test_rank_rule_at_six_selected_rounds():
    # at T' = 6, ranks() picks ranking exactly where its comparator layer,
    # B2A and lookup ship no more bytes than the top-6 network over the key
    # plus a round index, with the T' indices it reveals. Ranking's pairs
    # grow with T^2, so it wins on every history from the smallest, T = 7,
    # up to the twenties and nowhere past the forties
    for width in (1, 2):
        network = [(sort_cost(t, width + 1, width, 6) + words_round(6)).online_bytes for t in range(7, 130)]
        ranked = [t for t, sort in zip(range(7, 130), network) if rank_cost(t, width).online_bytes <= sort]
        assert [t for t in range(7, 130) if ranks(t, 6, width)] == ranked
        assert set(range(7, 24)) <= set(ranked) and ranked[-1] < 45
