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
from starfish.errors import DealerExhausted, ProtocolError
from starfish.fixedpoint import to_signed
from starfish.gates import sec_ge, sec_mul, sec_sel
from starfish.sharing import DealerTape, sec_ran_gen, zero_gen


def test_share_reconstruct_exact():
    rng = keyed_rng(0, 0)
    grid = CODEC.quantize(rng.uniform(-100, 100, size=10_000))
    sh0, sh1 = sec_share(grid, CODEC, rng)
    assert np.array_equal(CODEC.decode(reconstruct(sh0, sh1, CODEC)), grid)


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


def test_zero_gen_reconstructs_zero():
    for seed in (0, 1, 2):
        def proto(sess):
            return sess.codec.decode(sec_rec(sess, zero_gen(sess, (8,))))
        r0, r1 = run_pair(proto, make_inproc_sessions(seed))
        assert np.array_equal(r0, np.zeros(8))
        assert np.array_equal(r0, r1)


def test_sec_ran_gen_sum_uniform():
    def proto(sess):
        return sec_ran_gen(sess, (100_000,))
    s0, s1 = run_pair(proto, make_inproc_sessions(3))
    assert not np.array_equal(s0, s1)
    full = np.add(s0, s1)
    counts = np.bincount((full >> np.uint64(56)).astype(np.int64), minlength=256)
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
    d0 = DealerTape(9, 0, CODEC)
    d1 = DealerTape(9, 1, CODEC)
    a0, b0, c0 = d0.beaver((4,), (4,))
    a1, b1, c1 = d1.beaver((4,), (4,))
    a = np.add(a0, a1)
    b = np.add(b0, b1)
    assert np.array_equal(np.add(c0, c1), np.multiply(a, b))


def test_dealer_matmul_triples_consistent():
    d0 = DealerTape(9, 0, CODEC)
    d1 = DealerTape(9, 1, CODEC)
    a0, b0, c0 = d0.beaver((2, 3), (3, 2), mode="matmul")
    a1, b1, c1 = d1.beaver((2, 3), (3, 2), mode="matmul")
    a = np.add(a0, a1)
    b = np.add(b0, b1)
    assert np.array_equal(np.add(c0, c1), np.matmul(a, b))


def _words_to_bits(words):
    """Reference unpack of packed words: bit i is bit i % 64 of word i // 64."""
    return [(int(words[i // 64]) >> (i % 64)) & 1 for i in range(64 * len(words))]


NBITS = 100  # not a multiple of 64: the last word carries 28 pad bits


def test_dealer_bit_triples_consistent():
    d0 = DealerTape(9, 0, CODEC)
    d1 = DealerTape(9, 1, CODEC)
    a0, b0, c0 = d0.bit_triple(NBITS)
    a1, b1, c1 = d1.bit_triple(NBITS)
    a, b, c = a0 ^ a1, b0 ^ b1, c0 ^ c1
    for words in (a, b, c, a0, b0, c0, a1, b1, c1):
        assert words.dtype == np.uint64 and words.shape == (2,)
        assert not any(_words_to_bits(words)[NBITS:]), "pad bits must be zero"
    assert np.array_equal(c, a & b)
    # the draw is random: neither all zeros nor all ones
    assert 0 < sum(_words_to_bits(a)) < NBITS
    assert 0 < sum(_words_to_bits(b)) < NBITS


def test_dealer_shared_bit_domains_agree():
    d0 = DealerTape(9, 0, CODEC)
    d1 = DealerTape(9, 1, CODEC)
    xb0, xa0 = d0.shared_bit(NBITS)
    xb1, xa1 = d1.shared_bit(NBITS)
    bits = _words_to_bits(xb0 ^ xb1)
    assert not any(bits[NBITS:]), "pad bits must be zero"
    assert xa0.shape == xa1.shape == (NBITS,)
    assert np.array_equal(np.add(xa0, xa1), np.array(bits[:NBITS], dtype=np.uint64))


def test_dealer_bit_draws_charge_packed_sizes():
    # offline bytes for bit material are the packed wire sizes: whole words
    s0, _ = make_inproc_sessions(4)
    with s0.op("sec_ge"):
        s0.draw_bit_triple(NBITS)
    assert s0.meter.stats("sec_ge").bytes_offline == 3 * 16
    with s0.op("sec_div"):
        s0.draw_shared_bit(NBITS)
    assert s0.meter.stats("sec_div").bytes_offline == 16 + 8 * NBITS
    assert DealerTape.bit_triple_cost(64) == 24 and DealerTape.bit_triple_cost(65) == 48
    assert DealerTape.shared_bit_cost(1) == 16


def test_dealer_zero_share():
    d0 = DealerTape(9, 0, CODEC)
    d1 = DealerTape(9, 1, CODEC)
    assert np.array_equal(
        np.add(d0.zero_share((8,)), d1.zero_share((8,))),
        np.zeros(8, np.uint64),
    )


def test_dealer_inv_mask_scalar_never_zero():
    d0 = DealerTape(11, 0, CODEC)
    d1 = DealerTape(11, 1, CODEC)
    for _ in range(500):
        m = np.add(d0.inv_mask(1), d1.inv_mask(1))
        assert to_signed(m)[0, 0] != 0


def test_dealer_limit():
    d = DealerTape(9, 0, CODEC, limit=2)
    d.beaver((1,), (1,))
    d.beaver((1,), (1,))
    with pytest.raises(DealerExhausted):
        d.beaver((1,), (1,))


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
