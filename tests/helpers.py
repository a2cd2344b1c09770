"""Shared harness bits: SPMD pair runner and deterministic share builders."""

import numpy as np

from starfish import (
    FixedPointCodec,
    keyed_rng,
    make_inproc_sessions,
    run_pair,
    sec_rec,
    sec_share,
)
from starfish import gates
from starfish.fixedpoint import to_signed

CODEC = FixedPointCodec()


def both(proto, seed=0, codec=None):
    """Run proto(sess) on an in-process pair.

    Asserts the two public results agree and returns (party 0 result,
    sessions) so callers can inspect the meters afterwards.
    """
    sessions = make_inproc_sessions(seed, codec=codec)
    r0, r1 = run_pair(proto, sessions)
    assert np.array_equal(np.asarray(r0), np.asarray(r1)), "parties disagree on a public value"
    return r0, sessions


def share_pair(values, key=9000, codec=CODEC):
    """Both parties' shares of encoded values, keyed off the test seed."""
    rng = keyed_rng(key, 0)
    sh0, sh1 = sec_share(np.asarray(values, dtype=np.float64), codec, rng)
    return {0: sh0.value, 1: sh1.value}


def raw_share_pair(raw, key=9000, codec=CODEC):
    """Shares of already-raw ring words (bits at scale 1, double-scale values)."""
    rng = keyed_rng(key, 1)
    full = np.asarray(raw, dtype=np.uint64)
    s0 = rng.integers(0, 2**64, size=full.shape, dtype=np.uint64)
    return {0: s0, 1: np.subtract(full, s0)}


def reveal(sess, x):
    return sess.codec.decode(sec_rec(sess, x))


def reveal_raw(sess, x):
    return to_signed(sec_rec(sess, x))


def compare(sess, a, b):
    """gates.comparator on the rows of two key matrices, a lone layer with
    its own draw."""
    (material,) = gates._draw_comparators(sess, [len(a)], a.shape[1])
    return gates.comparator(sess, a, b, material)


def reveal_bits(sess, bits, nbits):
    """Open the first nbits of packed XOR-shared bits as 0/1 int64."""
    return gates._open_bits(sess, bits, nbits)
