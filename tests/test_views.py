"""What a party receives depends only on what is declared revealed.

A wrapper on the in-process channel records every frame each party sends
and receives. Each phase runs on two secret inputs with equal declared
outputs over a fixed set of dealer seeds, with the input shares fixed. The
words each party receives, and the values each round opens (a party's sent
and received shares combined, outside the declared reveal), are checked for

  input independence: every live bit is set about as often under one input
  as under the other (|z| <= 6), the pad bits of packed tensors excluded by
  position, from the cost model's bit counts;
  freshness: no two words are equal, or differ by a constant (in the ring
  or by XOR), in every seed, so no mask is frozen or reused.

The guarantee holds only while the dealer's seed is secret from both
parties, as it is for an in-process pair. The seeds are fixed, so the test
is deterministic.
"""

import numpy as np

from helpers import CODEC, raw_share_pair, share_pair
from starfish import make_inproc_sessions, run_pair
from starfish.costs import SIGN_LEVEL_BITS, _layer_pairs, padded_size, predict_cost
from starfish.gates import sec_rank, sec_srt
from starfish.transport import FRAME_OVERHEAD, bit_word_count

SEEDS = range(200)


def _words(n):
    """A frame of n ring words: every bit live."""
    return np.ones(64 * n, dtype=bool), np.zeros(n, dtype=bool)


def _bits(n):
    """A frame of n packed XOR-shared bits: the pad bits of the last word are not live."""
    words = bit_word_count(n)
    return np.arange(64 * words) < n, np.ones(words, dtype=bool)


def _comparator(width, lanes):
    """A comparator's frames: the cross products' masked operands at width
    2, the masked difference, then the two AND levels."""
    frames = [_words(4 * lanes)] if width == 2 else []
    return frames + [_words(lanes)] + [_bits(bits * lanes) for bits in SIGN_LEVEL_BITS]


def _inject(lanes, words):
    """An injection's frame: the masked bits, packed, then the masked rows."""
    return [tuple(map(np.concatenate, zip(_bits(lanes), _words(lanes * words))))]


def _srt_frames(t, width, count):
    return [f for pairs in _layer_pairs(t, count) for f in _comparator(width, pairs) + _inject(pairs, width + 1)]


def _rank_frames(t, width):
    """sec_rank's frames; the last one reveals the declared flags."""
    pairs, size = t * (t - 1) // 2, padded_size(t)
    return _comparator(width, pairs) + _inject(pairs, 0) + [_bits(t * (size.bit_length() - 1)), _bits(t)]


def _views(proto, inputs):
    """Per party, (seeds, words) arrays of every payload word it received
    and of every one it sent, in order; and party 0's received frames of
    the last seed."""
    got = {0: ([], []), 1: ([], [])}
    for seed in SEEDS:
        sessions = make_inproc_sessions(seed)
        frames = {0: ([], []), 1: ([], [])}
        for sess in sessions:
            recv, send, (got_p, sent_p) = sess.chan.recv, sess.chan.send, frames[sess.party]
            sess.chan.recv = lambda recv=recv, got_p=got_p: got_p.append(recv()) or got_p[-1]
            sess.chan.send = lambda frame, send=send, sent_p=sent_p: sent_p.append(frame) or send(frame)
        run_pair(lambda s: proto(s, inputs[s.party]), sessions)
        for p in (0, 1):
            for acc, fs in zip(got[p], frames[p]):
                acc.append(np.concatenate([np.frombuffer(f[FRAME_OVERHEAD:], dtype="<u8") for f in fs]))
    return {p: tuple(map(np.array, v)) for p, v in got.items()}, frames[0][0]


def _opened(received, sent, xor):
    """The public values a round opens: sent and received shares combined."""
    return np.where(xor, received ^ sent, np.add(received, sent))


def _check_bits(a, b, live, what):
    """Every live bit is set about as often under input a as under input b."""
    n = len(SEEDS)
    a, b = (np.unpackbits(v.view(np.uint8), axis=1, bitorder="little")[:, live].sum(axis=0) for v in (a, b))
    spread = np.sqrt(2 * n * ((a + b) / (2 * n)) * (1 - (a + b) / (2 * n)))
    assert spread.min() > 0, f"a live bit {what} never changes"
    z = np.abs(a.astype(float) - b) / spread
    assert z.max() <= 6, f"{what} depends on the input: |z| = {z.max():.1f}"


def _check_fresh(views, what):
    """No two words are equal or differ by a constant in every seed."""
    for diff in (np.subtract(views, views[0]), views ^ views[0]):
        assert len(np.unique(diff.T, axis=0)) == views.shape[1], f"{what} reuses a mask"


def _check(views_a, views_b, frames, declared=0):
    """Each party's received words, and the values it opens outside the
    last `declared` frames, are input independent and fresh."""
    live, xor = (np.concatenate(f) for f in zip(*frames))
    assert views_a[0][0].shape[1] * 64 == live.size
    hidden = xor.size - sum(f[1].size for f in frames[len(frames) - declared :])
    opened = {}
    for p in (0, 1):
        _check_bits(views_a[p][0], views_b[p][0], live, f"party {p} receives")
        for views in (views_a[p][0], views_b[p][0]):
            _check_fresh(views, f"party {p}'s view")
        opened[p] = [_opened(*v[p], xor)[:, :hidden] for v in (views_a, views_b)]
    assert all(np.array_equal(x, y) for x, y in zip(opened[0], opened[1]))
    _check_bits(*opened[0], live[: 64 * hidden], "an opening")
    for views in opened[0]:
        _check_fresh(views, "an opening")


def _cost_matches(frames, functionality, shape):
    want = predict_cost(functionality, shape, CODEC)
    assert (len(frames), sum(len(f) for f in frames)) == want.as_tuple()


def test_sec_srt_view_is_independent_of_the_rows():
    # the audit's pair row: T = 8 rows of (u, v) fractions and a payload
    # column, fully sorted; sec_srt reveals nothing
    t, width = 8, 2
    keys = [(np.linspace(1.75, -1.75, t), np.full(t, 0.5)),
            (np.linspace(-2.0, 1.5, t)[::-1] * np.tile([1, -1], t // 2), np.linspace(2.0, 0.25, t))]
    payload = raw_share_pair(np.arange(t, dtype=np.uint64), key=201)
    inputs = []
    for i, (u, v) in enumerate(keys):
        us, vs = share_pair(CODEC.quantize(u), key=202 + 2 * i), share_pair(CODEC.quantize(v), key=203 + 2 * i)
        inputs.append({p: np.stack([us[p], vs[p], payload[p]], axis=1) for p in (0, 1)})

    def proto(sess, rows):
        sec_srt(sess, rows, width, t)

    (views_a, frames), (views_b, _) = (_views(proto, rows) for rows in inputs)
    _cost_matches(frames, "sec_srt", {"t": t, "item_words": width + 1, "width": width, "count": t})
    _check(views_a, views_b, _srt_frames(t, width, t))


def test_sec_rank_view_depends_only_on_the_flags():
    # T = 12 (u, v) fractions, top 8: the same selected set from different
    # scores in a different order, so only the revealed flags agree
    t, width, count = 12, 2, 8
    scores = [np.linspace(1.5, -1.25, t), np.concatenate([np.linspace(0.25, 2.0, count), np.linspace(-0.5, -2.5, 4)])]
    denominators = [np.full(t, 0.75), np.linspace(0.5, 2.0, t)]
    inputs = []
    for i, (s, v) in enumerate(zip(scores, denominators)):
        inputs.append(share_pair(CODEC.quantize(np.stack([s * v, v], axis=1)), key=210 + i))
    flags = [np.argsort(-s, kind="stable")[:count] for s in scores]
    assert np.array_equal(np.sort(flags[0]), np.sort(flags[1]))

    def proto(sess, key):
        sec_rank(sess, key, count)

    (views_a, frames), (views_b, _) = (_views(proto, key) for key in inputs)
    _cost_matches(frames, "sec_rank", {"t": t, "width": width})
    _check(views_a, views_b, _rank_frames(t, width), declared=1)
