"""Shares, the simulated dealer, session metering, and the pair harness."""

import numpy as np
import pytest
import scipy.stats

from helpers import CODEC, share_pair
from starfish import (
    keyed_rng,
    make_inproc_sessions,
    reconstruct,
    run_pair,
    sec_rec,
    sec_share,
)
from starfish.errors import ProtocolError, ShapeError, TransportError
from starfish.gates import sec_ge, sec_mul, sec_sel
from starfish.sharing import DealerTape


def test_share_reconstruct_exact():
    rng = keyed_rng(0, 0)
    grid = CODEC.quantize(rng.uniform(-100, 100, size=10_000))
    sh0, sh1 = sec_share(grid, CODEC, rng)
    assert np.array_equal(CODEC.decode(reconstruct(sh0, sh1)), grid)


def test_share_of_zero_is_masked():
    rng = keyed_rng(1, 0)
    sh0, sh1 = sec_share(np.zeros(16), CODEC, rng)
    assert np.array_equal(np.add(sh0.value, sh1.value), np.zeros(16, np.uint64))
    assert np.any(sh0.value != 0)


def test_share_marginal_uniform():
    # one share alone looks uniform on the ring: chi-square over the top byte
    rng = keyed_rng(2, 0)
    sh0, _ = sec_share(np.full(100_000, 1.5), CODEC, rng)
    counts = np.bincount((sh0.value >> np.uint64(56)).astype(np.int64), minlength=256)
    assert scipy.stats.chisquare(counts).pvalue >= 0.01


def test_meter_matches_transport_totals():
    sessions = make_inproc_sessions(5)
    sent = {0: 0, 1: 0}
    for sess in sessions:
        orig = sess.chan.send
        def wrapped(frame, _orig=orig, _party=sess.party):
            sent[_party] += len(frame)
            return _orig(frame)
        sess.chan.send = wrapped

    shares = share_pair(np.linspace(-1.0, 1.0, 32), key=50)

    def proto(sess):
        x = shares[sess.party]
        y = sec_mul(sess, x, x)
        g = sec_ge(sess, x, y)
        return sess.codec.decode(sec_rec(sess, sec_sel(sess, x, y, g)))

    r0, r1 = run_pair(proto, sessions)
    assert np.array_equal(r0, r1)
    for sess in sessions:
        assert sess.meter.total_online_bytes == sent[sess.party]
        per_op = sum(st.bytes_online for st in sess.meter.per_op.values())
        assert per_op == sess.meter.total_online_bytes


def test_meter_snapshot_shape():
    sessions = make_inproc_sessions(6)
    def proto(sess):
        return sec_rec(sess, np.zeros(4, np.uint64))
    run_pair(proto, sessions)
    snap = sessions[0].meter.snapshot()
    assert snap["ops"]["sec_rec"]["rounds"] == 1
    assert snap["total_online_bytes"] == snap["ops"]["sec_rec"]["bytes_online"]


def test_dealer_triples_consistent():
    d0 = DealerTape(9, 0)
    d1 = DealerTape(9, 1)
    a0, b0, c0 = d0.beaver((4,), (4,))
    a1, b1, c1 = d1.beaver((4,), (4,))
    a = np.add(a0, a1)
    b = np.add(b0, b1)
    assert np.array_equal(np.add(c0, c1), np.multiply(a, b))


def test_dealer_matmul_triples_consistent():
    d0 = DealerTape(9, 0)
    d1 = DealerTape(9, 1)
    a0, b0, c0 = d0.beaver((2, 3), (3, 2), mode="matmul")
    a1, b1, c1 = d1.beaver((2, 3), (3, 2), mode="matmul")
    a = np.add(a0, a1)
    b = np.add(b0, b1)
    assert np.array_equal(np.add(c0, c1), np.matmul(a, b))


BEAVER_SHAPES = [
    ((8,), (8,), "mul"),
    ((6, 1), (6, 5), "mul"),
    ((19, 4, 4), (19, 4, 4), "matmul"),
    ((3,), (3,), "matmul"),
    ((2, 3), (3,), "matmul"),
    ((3,), (3, 2), "matmul"),
]


def _five_read_beaver(seed, party, shape_x, shape_y, mode):
    """The five-read rule: a and b, then one mask per array of the triple,
    each from its own tape read; party 1 keeps the array minus its mask.
    Returns the triple and the tape after it."""
    tape = DealerTape(seed, party)
    a = tape._words(shape_x)
    b = tape._words(shape_y)
    c = np.matmul(a, b) if mode == "matmul" else np.multiply(a, b)
    triple = []
    for full in (a, b, c):
        s0 = tape._words(np.shape(full))
        triple.append(s0 if party == 0 else np.subtract(full, s0))
    return triple, tape


@pytest.mark.parametrize("shape_x, shape_y, mode", BEAVER_SHAPES)
def test_dealer_beaver_one_read_matches_per_item_draws(shape_x, shape_y, mode):
    got = {}
    for party in (0, 1):
        tape = DealerTape(21, party)
        got[party] = tape.beaver(shape_x, shape_y, mode)
        ref, ref_tape = _five_read_beaver(21, party, shape_x, shape_y, mode)
        for g, r in zip(got[party], ref, strict=True):
            assert np.shape(g) == np.shape(r) and np.asarray(g).dtype == np.uint64
            assert np.array_equal(g, r)
        # both tapes stand at the same position afterwards
        assert np.array_equal(tape._words(8), ref_tape._words(8))
    a, b, c = (np.add(s0, s1) for s0, s1 in zip(got[0], got[1]))
    assert np.array_equal(c, np.matmul(a, b) if mode == "matmul" else np.multiply(a, b))


@pytest.mark.parametrize("shape_x, shape_y, mode", [
    ((4,), (4,), "dot"),
    ((2, 3), (2, 3), "matmul"),
    ((), (3,), "matmul"),
])
def test_dealer_beaver_rejects_bad_requests_before_reading(shape_x, shape_y, mode):
    tape = DealerTape(21, 0)
    with pytest.raises(ShapeError):
        tape.beaver(shape_x, shape_y, mode)
    assert np.array_equal(tape._words(8), DealerTape(21, 0)._words(8))


def _words_to_bits(words):
    """Reference unpack of packed words: bit i is bit i % 64 of word i // 64."""
    return [(int(words[i // 64]) >> (i % 64)) & 1 for i in range(64 * len(words))]


NBITS = 100  # not a multiple of 64: the last word carries 28 pad bits


def test_dealer_bit_triples_consistent():
    d0 = DealerTape(9, 0)
    d1 = DealerTape(9, 1)
    sizes = [2, 1, 3]
    trips0 = d0.bit_triples(sizes)
    trips1 = d1.bit_triples(sizes)
    assert len(trips0) == len(trips1) == len(sizes)
    for n, (a0, b0, c0), (a1, b1, c1) in zip(sizes, trips0, trips1):
        a, b, c = a0 ^ a1, b0 ^ b1, c0 ^ c1
        for words in (a, b, c, a0, b0, c0, a1, b1, c1):
            assert words.dtype == np.uint64 and words.shape == (n,)
        assert np.array_equal(c, a & b)
        # the draw is random: neither all zeros nor all ones
        assert 0 < sum(_words_to_bits(a)) < 64 * n
        assert 0 < sum(_words_to_bits(b)) < 64 * n


def test_dealer_shared_bit_domains_agree():
    d0 = DealerTape(9, 0)
    d1 = DealerTape(9, 1)
    xb0, xa0, _, _ = d0.injection((NBITS, 0))  # a B2A's bits
    xb1, xa1, _, _ = d1.injection((NBITS, 0))
    bits = _words_to_bits(xb0 ^ xb1)
    assert not any(bits[NBITS:]), "pad bits must be zero"
    assert xa0.shape == xa1.shape == (NBITS,)
    assert np.array_equal(np.add(xa0, xa1), np.array(bits[:NBITS], dtype=np.uint64))


def test_dealer_bit_draws_charge_packed_sizes():
    # offline bytes for bit material are the packed wire sizes: whole words
    s0, _ = make_inproc_sessions(4)
    with s0.op("sec_ge"):
        s0.draw_bit_triples([2])
    assert s0.meter.stats("sec_ge").bytes_offline == 3 * 16
    with s0.op("sec_div"):
        s0.draw_injection((NBITS, 0))
    assert s0.meter.stats("sec_div").bytes_offline == 16 + 8 * NBITS
    with s0.op("both"):
        s0.draw_bit_triples([1, 2])
        s0.draw_injection((65, 0))
    assert s0.meter.stats("both").bytes_offline == 3 * 8 + 3 * 16 + 16 + 8 * 65
    with s0.op("bit1"):
        s0.draw_injection((1, 0))
    assert s0.meter.stats("bit1").bytes_offline == 8 + 8
    # an injection into (65, 3) rows: r in both domains, then a and c at the rows' shape
    with s0.op("inject"):
        s0.draw_injection((65, 3))
    assert s0.meter.stats("inject").bytes_offline == 16 + 8 * 65 + 2 * 8 * 65 * 3


@pytest.mark.parametrize("shape", [(1,), (65,), (65, 3)])
def test_dealer_injection_material_is_consistent(shape):
    # r's XOR and arithmetic shares open to the same bits, one per row, pad
    # bits zero; a is uniform at the shape and c is each row of a times its bit
    (rb0, ra0, a0, c0), (rb1, ra1, a1, c1) = (DealerTape(15, p).injection(shape) for p in (0, 1))
    rows = shape[0]
    bits = _words_to_bits(rb0 ^ rb1)
    assert rb0.shape == ((rows + 63) // 64,) and not any(bits[rows:])
    r = np.add(ra0, ra1)
    assert r.tolist() == bits[:rows]
    a, c = np.add(a0, a1), np.add(c0, c1)
    assert a.shape == c.shape == shape
    assert np.array_equal(c, np.multiply(r.reshape((rows,) + (1,) * (len(shape) - 1)), a))
    assert len(np.unique(a)) == a.size


@pytest.mark.parametrize("size, lanes", [(2, 3), (8, 5), (64, 2), (128, 65)])
def test_dealer_lookup_shares_a_rotated_table(size, lanes):
    # the ring shares sum to r in [0, M) and the XOR shares to the table
    # rotated by r, entry j at bit j of the lane's words, pad bits zero
    table = np.random.default_rng(size).integers(0, 2, size=size)
    (r0, t0), (r1, t1) = (DealerTape(11, party).lookup(lanes, table) for party in (0, 1))
    r = np.add(r0, r1)
    assert r.shape == (lanes,) and np.all(r < size)
    for rk, words in zip(r.astype(np.int64), t0 ^ t1):
        assert words.shape == ((size + 63) // 64,)
        bits = _words_to_bits(words)
        assert bits[:size] == [int(table[(j - rk) % size]) for j in range(size)]
        assert not any(bits[size:])
    # one draw charges both shares: a word of r and the packed table per lane
    s0, _ = make_inproc_sessions(4)
    with s0.op("sec_lut"):
        s0.draw_lookup(lanes, table)
    assert s0.meter.stats("sec_lut").bytes_offline == 8 * lanes * (1 + (size + 63) // 64)


def _ge_triple_words(lanes):
    """Word counts of a comparison's AND triples: the generate layer over
    every lane, then the six carry levels, each on half the words of the
    previous one (g and p, the last level g only)."""
    widths = [lanes]
    for _ in range(6):
        widths.append(-(-widths[-1] // 2))
    return [widths[0]] + [2 * w for w in widths[1:6]] + [widths[6]]


def _per_item_draws(seed, party, triple_words, nbits):
    """The per-item rule, one tape read per item: a triple of n words is the
    words (a, b, a0, b0, c0) of one (5, n) read; nbits shared bits are r, r0
    (pad bits cleared) and s0 from one read of 2 * ceil(nbits / 64) + nbits
    words. Returns the material and the tape after it."""
    tape = DealerTape(seed, party)
    triples = []
    for n in triple_words:
        a, b, a0, b0, c0 = tape._words((5, n))
        triples.append((a0, b0, c0) if party == 0 else (a ^ a0, b ^ b0, (a & b) ^ c0))
    nw = (nbits + 63) // 64
    raw = tape._words(2 * nw + nbits)
    r, r0 = raw[: 2 * nw].reshape(2, nw)
    if nbits % 64:
        r[-1] &= np.uint64((1 << (nbits % 64)) - 1)
        r0[-1] &= np.uint64((1 << (nbits % 64)) - 1)
    s0 = raw[2 * nw :]
    if party == 0:
        return triples, (r0, s0), tape
    values = np.array(_words_to_bits(r)[:nbits], dtype=np.uint64)
    return triples, (r ^ r0, np.subtract(values, s0)), tape


@pytest.mark.parametrize("lanes", [1, 63, 64, 65, 200])
def test_dealer_one_read_matches_per_item_draws(lanes):
    sizes = _ge_triple_words(lanes)
    assert len(sizes) == 7
    for party in (0, 1):
        tape = DealerTape(13, party)
        triples, shared = tape.bit_triples(sizes), tape.injection((lanes, 0))[:2]
        ref_triples, ref_shared, _ = _per_item_draws(13, party, sizes, lanes)
        assert len(triples) == len(ref_triples)
        for got, ref in zip(triples, ref_triples):
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))
        assert all(np.array_equal(g, r) for g, r in zip(shared, ref_shared))


@pytest.mark.parametrize("lanes", [1, 63, 64, 65, 200])
def test_sec_ge_consumes_the_per_item_draws(lanes):
    # after one comparison both tapes stand where the per-item draws leave them
    sessions = make_inproc_sessions(13)
    x = share_pair(np.linspace(-3.0, 3.0, lanes))
    run_pair(lambda s: sec_ge(s, x[s.party], np.zeros(lanes, dtype=np.uint64)), sessions)
    for sess in sessions:
        _, _, ref = _per_item_draws(13, sess.party, _ge_triple_words(lanes), lanes)
        assert np.array_equal(sess.dealer._words(8), ref._words(8))


def test_keyed_rng_deterministic_and_keyed():
    a = keyed_rng(5, 1, 2).integers(0, 2**63, 4)
    b = keyed_rng(5, 1, 2).integers(0, 2**63, 4)
    c = keyed_rng(5, 1, 3).integers(0, 2**63, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_pair_reraises_the_real_error():
    def proto(sess):
        if sess.party == 0:
            raise ProtocolError("boom")
        sec_rec(sess, np.zeros(1, np.uint64))  # blocks until the peer closes

    with pytest.raises(ProtocolError, match="boom"):
        run_pair(proto, make_inproc_sessions(0))


def test_exchange_rejects_a_reply_of_another_length():
    words = {0: 4, 1: 5}

    def proto(sess):
        sess.exchange_words(np.zeros(words[sess.party], dtype=np.uint64))

    with pytest.raises(TransportError, match=r"expected [45] words"):
        run_pair(proto, make_inproc_sessions(0))
