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
from starfish.errors import ProtocolError, TransportError
from starfish import gates
from starfish.gates import sec_ge, sec_lut, sec_srt
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
        # word frames (sec_rec), packed bit frames (sec_ge's levels, sec_lut)
        # and injection frames of bits and words (sec_srt)
        x = shares[sess.party]
        y = np.add(x, x)
        flags = sec_lut(sess, sec_ge(sess, x, y), np.array([1, 0]))
        top = sec_srt(sess, np.stack([x, y], axis=1), 1, 4)
        return np.concatenate([flags, sess.codec.decode(sec_rec(sess, top)).ravel()])

    r0, r1 = run_pair(proto, sessions)
    assert np.array_equal(r0, r1)
    for sess in sessions:
        assert sess.meter.total_online_bytes == sent[sess.party]
        per_op = sum(st.bytes_online for st in sess.meter.per_op.values())
        assert per_op == sess.meter.total_online_bytes
        sending = {op for op, st in sess.meter.per_op.items() if st.bytes_online}
        assert sending == {"sec_ge", "sec_lut", "sec_srt", "sec_rec"}


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
    ((a0, b0, c0),) = d0.beaver([((4,), (4,))])
    ((a1, b1, c1),) = d1.beaver([((4,), (4,))])
    a = np.add(a0, a1)
    b = np.add(b0, b1)
    assert np.array_equal(np.add(c0, c1), np.multiply(a, b))


BEAVER_SHAPES = [((8,), (8,)), ((6, 1), (6, 5)), ((2, 1, 4), (3, 1))]


def _five_read_beaver(seed, party, shape_x, shape_y):
    """The five-read rule: a and b, then one mask per array of the triple,
    each from its own tape read; party 1 keeps the array minus its mask.
    Returns the triple and the tape after it."""
    tape = DealerTape(seed, party)
    a = tape._words(shape_x)
    b = tape._words(shape_y)
    c = np.multiply(a, b)
    triple = []
    for full in (a, b, c):
        s0 = tape._words(np.shape(full))
        triple.append(s0 if party == 0 else np.subtract(full, s0))
    return triple, tape


@pytest.mark.parametrize("shape_x, shape_y", BEAVER_SHAPES)
def test_dealer_beaver_one_read_matches_per_item_draws(shape_x, shape_y):
    got = {}
    for party in (0, 1):
        tape = DealerTape(21, party)
        (got[party],) = tape.beaver([(shape_x, shape_y)])
        ref, ref_tape = _five_read_beaver(21, party, shape_x, shape_y)
        for g, r in zip(got[party], ref, strict=True):
            assert np.shape(g) == np.shape(r) and np.asarray(g).dtype == np.uint64
            assert np.array_equal(g, r)
        # both tapes stand at the same position afterwards
        assert np.array_equal(tape._words(8), ref_tape._words(8))
    a, b, c = (np.add(s0, s1) for s0, s1 in zip(got[0], got[1]))
    assert np.array_equal(c, np.multiply(a, b))


def _words_to_bits(words):
    """Reference unpack of packed words: bit i is bit i % 64 of word i // 64."""
    return [(int(words[i // 64]) >> (i % 64)) & 1 for i in range(64 * len(words))]


NBITS = 100  # not a multiple of 64: the last word carries 28 pad bits


@pytest.mark.parametrize("lanes", [1, 65, 200])
def test_dealer_comparison_material_is_consistent(lanes):
    ((r0, m0, t0, l0),), ((r1, m1, t1, l1),) = (DealerTape(21, p).comparison([lanes], gates._DEALT) for p in (0, 1))
    _check_comparison(lanes, (r0, m0, t0, l0), (r1, m1, t1, l1))


def _check_comparison(lanes, share0, share1):
    """The ring shares sum to r; the MSB shares XOR to r's top bit; the table
    shares XOR to the one-hot vector of each digit of r mod 2^63 (15 of 4
    bits, then 3); each level's rows XOR to its masks, then to the AND of
    the masks each subset names; pad bits are zero."""
    (r0, m0, t0, l0), (r1, m1, t1, l1) = share0, share1
    r = np.add(r0, r1)
    assert len(np.unique(r)) == lanes
    msb = _words_to_bits(m0 ^ m1)
    assert msb[:lanes] == [int(x) >> 63 for x in r] and not any(msb[lanes:])
    tables = (t0 ^ t1).astype(np.int64).T
    assert tables.shape == (lanes, 16)
    for rk, row in zip(r.tolist(), tables.tolist()):
        want = [(rk >> 4 * i) & (15 if i < 15 else 7) for i in range(16)]
        assert row == [1 << d for d in want]
    # the top digit's table has 8 entries, every one of them masked
    assert not np.any(t0[15] >> 8)
    assert lanes < 65 or np.bitwise_or.reduce(t0[15]) == 0xFF
    for (k, subsets), s0, s1 in zip(gates._DEALT, l0, l1):
        full = s0 ^ s1
        assert full.shape == (k + len(subsets), (lanes + 63) // 64)
        bits = np.array([_words_to_bits(row) for row in full])
        assert not bits[:, lanes:].any()
        masks = bits[:k, :lanes]
        for row, subset in zip(bits[k:, :lanes], subsets):
            assert np.array_equal(row, np.bitwise_and.reduce(masks[[i for i in subset if i < k]], axis=0))
        assert 0 < masks.sum() < masks.size


def test_dealer_shared_bit_domains_agree():
    d0 = DealerTape(9, 0)
    d1 = DealerTape(9, 1)
    ((xb0, xa0, _, _),) = d0.injection([(NBITS, 0)])  # a B2A's bits
    ((xb1, xa1, _, _),) = d1.injection([(NBITS, 0)])
    bits = _words_to_bits(xb0 ^ xb1)
    assert not any(bits[NBITS:]), "pad bits must be zero"
    assert xa0.shape == xa1.shape == (NBITS,)
    assert np.array_equal(np.add(xa0, xa1), np.array(bits[:NBITS], dtype=np.uint64))


def test_dealer_bit_draws_charge_packed_sizes():
    # offline bytes for bit material are the packed wire sizes: whole words.
    # A comparison charges a word of r per lane and its 442 - 64 bits per
    # lane packed back to back: MSB(r), the 248 table bits and 129 level bits
    s0, _ = make_inproc_sessions(4)
    assert 1 + 248 + sum(k + len(subsets) for k, subsets in gates._DEALT) == 442 - 64
    with s0.op("sec_ge"):
        s0.draw_comparison([1], gates._DEALT)
    assert s0.meter.stats("sec_ge").bytes_offline == 8 + 8 * 6
    with s0.op("sec_div"):
        s0.draw_injection([(NBITS, 0)])
    assert s0.meter.stats("sec_div").bytes_offline == 16 + 8 * NBITS
    with s0.op("both"):
        s0.draw_comparison([65], gates._DEALT)
        s0.draw_injection([(65, 0)])
    assert s0.meter.stats("both").bytes_offline == 8 * 65 + 8 * -(-378 * 65 // 64) + 16 + 8 * 65
    with s0.op("bit1"):
        s0.draw_injection([(1, 0)])
    assert s0.meter.stats("bit1").bytes_offline == 8 + 8
    # an injection into (65, 3) rows: r in both domains, then a and c at the rows' shape
    with s0.op("inject"):
        s0.draw_injection([(65, 3)])
    assert s0.meter.stats("inject").bytes_offline == 16 + 8 * 65 + 2 * 8 * 65 * 3


@pytest.mark.parametrize("shape", [(1,), (65,), (65, 3)])
def test_dealer_injection_material_is_consistent(shape):
    ((rb0, ra0, a0, c0),), ((rb1, ra1, a1, c1),) = (DealerTape(15, p).injection([shape]) for p in (0, 1))
    _check_injection(shape, (rb0, ra0, a0, c0), (rb1, ra1, a1, c1))


def _check_injection(shape, share0, share1):
    """r's XOR and arithmetic shares open to the same bits, one per row, pad
    bits zero; a is uniform at the shape and c is each row of a times its bit."""
    (rb0, ra0, a0, c0), (rb1, ra1, a1, c1) = share0, share1
    rows = shape[0]
    bits = _words_to_bits(rb0 ^ rb1)
    assert rb0.shape == ((rows + 63) // 64,) and not any(bits[rows:])
    r = np.add(ra0, ra1)
    assert r.tolist() == bits[:rows]
    a, c = np.add(a0, a1), np.add(c0, c1)
    assert a.shape == c.shape == shape
    assert np.array_equal(c, np.multiply(r.reshape((rows,) + (1,) * (len(shape) - 1)), a))
    assert len(np.unique(a)) == a.size


# layers of several sizes in one draw: a lone lane, a whole word, words
# with pad bits, rows of words and a B2A's rows of none
LAYER_LANES = [1, 64, 65, 200, 3]
LAYER_SHAPES = [(1,), (64, 2), (65, 3), (70, 0), (3,)]
LAYER_BEAVER = [((8,), (8,)), ((2, 65), (2, 65)), ((6, 1), (6, 5)), ((2, 1, 4), (3, 1))]


def _reads(tape):
    """Count the tape reads of one dealer."""
    calls = []
    words = tape._words
    tape._words = lambda shape: calls.append(shape) or words(shape)
    return calls


def test_dealer_draws_every_layer_from_one_read():
    # each kind reads the tape once for all its layers, and every layer's
    # material is consistent on its own
    tapes = [DealerTape(17, p) for p in (0, 1)]
    reads = [_reads(tape) for tape in tapes]
    triples = [tape.beaver(LAYER_BEAVER) for tape in tapes]
    comparisons = [tape.comparison(LAYER_LANES, gates._DEALT) for tape in tapes]
    injections = [tape.injection(LAYER_SHAPES) for tape in tapes]
    assert [len(r) for r in reads] == [3, 3]
    for (shape_x, shape_y), share0, share1 in zip(LAYER_BEAVER, *triples, strict=True):
        assert [np.shape(m) for m in share0] == [shape_x, shape_y, np.broadcast_shapes(shape_x, shape_y)]
        a, b, c = (np.add(m0, m1) for m0, m1 in zip(share0, share1))
        assert np.array_equal(c, np.multiply(a, b))
    for lanes, share0, share1 in zip(LAYER_LANES, *comparisons, strict=True):
        _check_comparison(lanes, share0, share1)
    for shape, share0, share1 in zip(LAYER_SHAPES, *injections, strict=True):
        _check_injection(shape, share0, share1)
    # no two layers share material: the comparisons' r and the injections' a
    for kind, i in ((comparisons, 0), (injections, 2)):
        words = np.concatenate([layer[i].ravel() for layer in kind[0]])
        assert len(np.unique(words)) == words.size


def test_dealer_layer_charges_add_up():
    # a draw of several layers charges the sum of the layers' own charges
    together, apart = make_inproc_sessions(4)[0], make_inproc_sessions(4)[0]
    with together.op("x"):
        together.draw_beaver(LAYER_BEAVER)
        together.draw_comparison(LAYER_LANES, gates._DEALT)
        together.draw_injection(LAYER_SHAPES)
    with apart.op("x"):
        for pair in LAYER_BEAVER:
            apart.draw_beaver([pair])
        for lanes in LAYER_LANES:
            apart.draw_comparison([lanes], gates._DEALT)
        for shape in LAYER_SHAPES:
            apart.draw_injection([shape])
    assert together.meter.stats("x").bytes_offline == apart.meter.stats("x").bytes_offline > 0


def test_dealer_draws_no_layers():
    tape = DealerTape(3, 1)
    assert tape.beaver([]) == tape.comparison([], gates._DEALT) == tape.injection([]) == []


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


def _per_item_draws(seed, party, lanes):
    """The per-item rule, one tape read per item: a comparison's r, party 0's
    shares of r, MSB(r) (pad bits cleared) and the tables (four words of
    16-bit entries per lane, digit-major), then per level its masks and party 0's shares,
    each lane-packed; then a B2A's nbits = lanes shared bits, r and r0 (pad
    bits cleared) and s0. Returns the material and the tape after it."""
    tape = DealerTape(seed, party)
    nw = (lanes + 63) // 64

    def bit_words(n):
        words = tape._words((n, nw))
        if lanes % 64:
            words[:, -1] &= np.uint64((1 << (lanes % 64)) - 1)
        return words

    r, r0, msb0 = tape._words(lanes), tape._words(lanes), bit_words(1)[0]
    tables0 = np.array([(int(w) >> 16 * q) & 0xFFFF for w in tape._words(4 * lanes) for q in range(4)])
    tables0 = tables0.reshape(16, lanes)
    tables0[15] &= 0xFF
    levels = [(bit_words(k), bit_words(k + len(subsets))) for k, subsets in gates._DEALT]
    raw = tape._words(2 * nw + lanes)
    b, b0 = raw[: 2 * nw].reshape(2, nw)
    if lanes % 64:
        b[-1] &= np.uint64((1 << (lanes % 64)) - 1)
        b0[-1] &= np.uint64((1 << (lanes % 64)) - 1)
    s0 = raw[2 * nw :]
    if party == 0:
        return (r0, msb0, tables0, [share for _, share in levels]), (b0, s0), tape
    onehot = [[1 << ((int(x) >> 4 * i) & (15 if i < 15 else 7)) for i in range(16)] for x in r]
    msb = np.array(_words_to_bits_as_words([int(x) >> 63 for x in r]), dtype=np.uint64)
    full = []
    for (k, subsets), (masks, share) in zip(gates._DEALT, levels):
        products = [np.bitwise_and.reduce(masks[[i for i in subset if i < k]], axis=0) for subset in subsets]
        full.append(np.concatenate([masks, np.array(products).reshape(-1, nw)]) ^ share)
    values = np.array(_words_to_bits(b)[:lanes], dtype=np.uint64)
    comparison = (np.subtract(r, r0), msb0 ^ msb, tables0 ^ np.array(onehot).T, full)
    return comparison, (b ^ b0, np.subtract(values, s0)), tape


def _words_to_bits_as_words(bits):
    """Reference pack: bit i at bit i % 64 of word i // 64."""
    return [sum(b << (i % 64) for i, b in enumerate(bits) if i // 64 == w) for w in range(-(-len(bits) // 64))]


@pytest.mark.parametrize("lanes", [1, 63, 64, 65, 200])
def test_dealer_one_read_matches_per_item_draws(lanes):
    for party in (0, 1):
        tape = DealerTape(13, party)
        ((r, msb, tables, levels),) = tape.comparison([lanes], gates._DEALT)
        ((*shared, _, _),) = tape.injection([(lanes, 0)])
        (ref_r, ref_msb, ref_tables, ref_levels), ref_shared, _ = _per_item_draws(13, party, lanes)
        assert np.array_equal(r, ref_r) and np.array_equal(msb, ref_msb)
        assert np.array_equal(tables.astype(np.int64), ref_tables)
        assert len(levels) == len(ref_levels) == 2
        assert all(np.array_equal(g, w) for g, w in zip(levels, ref_levels))
        assert all(np.array_equal(g, w) for g, w in zip(shared, ref_shared))


@pytest.mark.parametrize("lanes", [1, 63, 64, 65, 200])
def test_sec_ge_consumes_the_per_item_draws(lanes):
    # after one comparison both tapes stand where the per-item draws leave them
    sessions = make_inproc_sessions(13)
    x = share_pair(np.linspace(-3.0, 3.0, lanes))
    run_pair(lambda s: sec_ge(s, x[s.party], np.zeros(lanes, dtype=np.uint64)), sessions)
    for sess in sessions:
        *_, ref = _per_item_draws(13, sess.party, lanes)
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
