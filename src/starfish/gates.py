"""Two-party gates over additively shared ring tensors.

Arithmetic gates use Beaver triples from the dealer tape, drawn at the
operands' own shapes; numpy broadcasting forms the product. Independent
products can open in one round (sec_muls). Comparison runs
on XOR-shared bits where each party contributes its own share as one
addend. It needs only the sign of the sum, so it runs a carry-only prefix
tree that computes the carry into the top bit (the MSB extraction of ABY3
and SecureNN): as many rounds as a Kogge-Stone adder, about a quarter of its
AND gates. That sign circuit is the only boolean circuit. Its XOR-shared
bits leave it in one more round: a B2A (sec_ge, sec_rank's wins), a bit
injection, which multiplies them straight into an arithmetic share
(sec_srt's selects, each quotient bit of sec_div's restoring division), or
a reveal (reveal_ge). A small integer in a public range [0, M) skips
the circuit: sec_lut looks it up in a one-time truth table in two rounds,
one masked opening and one reveal. Batched lanes share one round trip:
every gate here is vectorized, so "T comparisons in parallel" is one
circuit over T lanes.

Sort and rank keys are (T, width) share matrices, one row per item: width 1
holds values, width 2 holds fractions (u, v) with v > 0. One comparator
orders both, fractions by cross multiplication, and costs prices it by
width. sec_srt returns the top count rows best first through a bitonic
top-k network: bitonic-sorted blocks of padded_size(count) rows, merged
pairwise by half-cleaners that keep only each pair's max; at count >= T it
is the full bitonic sort. It moves whole rows by injecting each
comparator bit into the row difference, so a payload column rides along,
and pads to a power of two with minus-infinity rows (the most
negative numerator, 1 in a denominator column, -1 in payload columns).
sec_rank uses the same comparator for constant-round selection: one
comparator layer over all pairs yields each item's rank, and only
[rank < count] is looked up and revealed, never the order.

Boolean kernel representation: an XOR-shared bit tensor is held in its
wire form, the packed words described in transport. A full-width tensor has
one word per lane, bit k of the value at bit k of the word, so a ring word
is its own bit decomposition and the carry tree's shifts and sign bits are
word shifts (x << s, x >> 63). A tensor with one bit per lane (comparison
bits) is lane-packed: 64 lanes per word, ceil(L/64) words. Level k of the
carry-only tree keeps 64/2^k live bits per lane and ships 2^k lanes per
word (see _ge_bits).

Scale conventions: encoded reals sit at 2^-p. Products of two encoded
operands land at 2^-2p and are truncated back unless the caller opts out
(bit-valued operands, exact cross multiplications). The comparator returns
lane-packed XOR-shared bits; sec_ge's outputs are arithmetic shares of
{0, 1} at scale 1.
"""

from __future__ import annotations

import numpy as np

from .costs import div_iterations, padded_size, topk_layers
from .errors import ShapeError
from .fixedpoint import from_signed
from .sharing import Session
from .transport import bit_word_count, pack_bit_words, pack_words, unpack_bit_words, unpack_words

ONE = np.uint64(1)

# -- local helpers ---------------------------------------------------------


def const_share(sess: Session, raw) -> np.ndarray:
    """Share of a public ring value: party 0 holds it, party 1 holds zero."""
    arr = np.asarray(raw, dtype=np.uint64)
    return arr if sess.party == 0 else np.zeros_like(arr)


def add_public(sess: Session, x, raw) -> np.ndarray:
    if sess.party == 0:
        return np.add(x, np.asarray(raw, dtype=np.uint64))
    return np.asarray(x, dtype=np.uint64)


def _exchange_concat(sess: Session, parts: list[np.ndarray]) -> list[np.ndarray]:
    """One round carrying several tensors, split back on arrival."""
    flats = [np.asarray(p).reshape(-1) for p in parts]
    joined = np.concatenate(flats) if len(flats) > 1 else flats[0]
    reply = sess.exchange_words(joined)
    out = []
    pos = 0
    for p in parts:
        n = np.asarray(p).size
        out.append(reply[pos : pos + n].reshape(np.asarray(p).shape))
        pos += n
    return out


# -- Beaver multiplication core ---------------------------------------------


def _beaver_muls(sess: Session, products, *, truncate: bool = True) -> list[np.ndarray]:
    """Independent Beaver products opened in one round, one per (x, y, matmul).

    Each draws a triple at its operands' own shapes, in order: d = x - a and
    e = y - b of every product ship lanes(x) + lanes(y) words in one frame,
    and numpy broadcasting forms c = a * b (or a @ b) and z.

    z = c + d*b + a*e, and party 0 adds d*e by taking d*(b + e) for d*b:
    two local products per party, the same words mod 2^64."""
    operands = [(np.asarray(x), np.asarray(y), matmul) for x, y, matmul in products]
    triples = [sess.draw_beaver(x.shape, y.shape, "matmul" if matmul else "mul")
               for x, y, matmul in operands]
    masked = []
    for (x, y, _), (a, b, _) in zip(operands, triples):
        masked += [np.subtract(x, a), np.subtract(y, b)]
    opened = _exchange_concat(sess, masked)
    out = []
    for k, ((_, _, matmul), (a, b, c)) in enumerate(zip(operands, triples)):
        product = np.matmul if matmul else np.multiply
        d = np.add(masked[2 * k], opened[2 * k])
        e = np.add(masked[2 * k + 1], opened[2 * k + 1])
        db = product(d, np.add(b, e) if sess.party == 0 else b)
        z = np.add(c, np.add(db, product(a, e)))
        out.append(sess.truncate(z) if truncate else z)
    return out


def _beaver_mul(sess: Session, x, y, *, matmul: bool = False, truncate: bool = True):
    """One Beaver product of x and y (see _beaver_muls)."""
    return _beaver_muls(sess, [(x, y, matmul)], truncate=truncate)[0]


# -- arithmetic gates ----------------------------------------------------------


def sec_add(sess: Session, x, y) -> np.ndarray:
    """Share-wise addition. Zero rounds, zero bytes."""
    with sess.op("sec_add", int(np.broadcast(np.asarray(x), np.asarray(y)).size)):
        return np.add(x, y)


def sec_mul(sess: Session, x, y, *, matmul: bool = False, truncate: bool = True) -> np.ndarray:
    """Beaver product of two shared tensors (one round)."""
    return sec_muls(sess, [(x, y, matmul)], truncate=truncate)[0]


def sec_muls(sess: Session, products, *, truncate: bool = True) -> list[np.ndarray]:
    """Independent Beaver products of (x, y, matmul) triples in one round; a
    matmul counts as one invocation, an elementwise product as its lanes."""
    n = sum(1 if matmul else int(np.broadcast(np.asarray(x), np.asarray(y)).size)
            for x, y, matmul in products)
    with sess.op("sec_mul", n):
        return _beaver_muls(sess, products, truncate=truncate)


def mul_public(sess: Session, x, raw, *, matmul: bool = False) -> np.ndarray:
    """Product with a public ring tensor: no triple, no communication."""
    with sess.op("sec_mul", 1 if matmul else int(np.asarray(x).size)):
        pub = np.asarray(raw, dtype=np.uint64)
        return sess.truncate(np.matmul(x, pub) if matmul else np.multiply(x, pub))


def sp_public(sess: Session, x, raw) -> np.ndarray:
    """Inner product with a public vector: local, zero communication."""
    x = np.asarray(x)
    with sess.op("sec_sp", int(x.size // x.shape[-1])):
        z = np.multiply(x, np.asarray(raw, dtype=np.uint64)).sum(axis=-1, dtype=np.uint64)
        return sess.truncate(z)


def sec_sel(sess: Session, v0, v1, b) -> np.ndarray:
    """Oblivious select v0 + b*(v1 - v0); b may broadcast against v0 and v1."""
    with sess.op("sec_sel", int(np.asarray(b).size)):
        # the Beaver output holds the dealer's fresh share of c, so the result
        # is already a fresh sharing: a zero share on top would re-randomize nothing
        return np.add(v0, _beaver_mul(sess, b, np.subtract(v1, v0), truncate=False))


# -- boolean kernel (representation: see the module docstring) ----------------


def _pack_lanes(bits: np.ndarray) -> np.ndarray:
    """Per-lane 0/1 words to a lane-packed tensor (zero pad bits)."""
    return unpack_words(pack_bit_words(bits), bit_word_count(bits.size))


def _unpack_lanes(words: np.ndarray, nbits: int) -> np.ndarray:
    """The first nbits bits of packed words as 0/1 words, one per bit."""
    return unpack_bit_words(pack_words(words), (nbits,)).astype(np.uint64)


def _bit_and(sess: Session, x: np.ndarray, y: np.ndarray, triple) -> np.ndarray:
    """AND on XOR-shared full-width packed bit tensors, from a triple of
    x.size words; one round for any batch shape. y may broadcast against x,
    whose shape is the result's."""
    a, b, c = triple.reshape((3,) + x.shape)
    ef_loc = np.concatenate([x ^ a, y ^ b])
    e, f = (ef_loc ^ sess.exchange_bits(ef_loc)).reshape((2,) + x.shape)
    z = c ^ (f & a) ^ (e & b)
    if sess.party == 0:
        z ^= e & f
    return z


def _open_bits(sess: Session, bits: np.ndarray, nbits: int) -> np.ndarray:
    """The public values of nbits packed XOR-shared bits as 0/1 int64."""
    return unpack_bit_words(pack_words(bits ^ sess.exchange_bits(bits)), (nbits,)).astype(np.int64)


def _bit_inject(sess: Session, bits: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """b * x for packed XOR-shared bits b, one per row of the arithmetic
    share x, and the arithmetic share of b (ABY3's bit injection).

    The dealer deals a random bit r per row in both domains, a uniform a at
    x's shape and c = r * a. One frame opens t = b XOR r as packed bits and
    e = x - a as words; with b = t + r - 2tr and r * x = r * e + c, each
    party forms t * x + (1 - 2t)(r * e + c) locally. The dealer's share of c
    makes the result a fresh sharing.
    """
    x = np.asarray(x)
    rows = len(x)
    r_bool, r_arith, a, c = sess.draw_injection(x.shape)
    t_loc, e_loc = bits ^ r_bool, np.subtract(x, a)
    t_peer, e_peer = _exchange_concat(sess, [t_loc, e_loc])
    t = _unpack_lanes(t_loc ^ t_peer, rows)
    col = t.reshape((rows,) + (1,) * (x.ndim - 1)) == 1
    y = np.add(np.multiply(r_arith.reshape(col.shape), np.add(e_loc, e_peer)), c)
    b = r_arith - ((t * r_arith) << ONE)  # t XOR r = t + r - 2tr
    if sess.party == 0:
        b += t
    return np.where(col, np.subtract(x, y), y), b


def _b2a_bits(sess: Session, bits: np.ndarray, nbits: int) -> np.ndarray:
    """nbits packed XOR-shared bits to arithmetic shares of their 0/1 values,
    in bit order: an injection into rows of no words, whose frame opens only
    the masked bits."""
    return _bit_inject(sess, bits, np.empty((nbits, 0), dtype=np.uint64))[1]


def _bool_not(sess: Session, words: np.ndarray) -> np.ndarray:
    return ~words if sess.party == 0 else words


# -- comparison gates ---------------------------------------------------------


# (s, mask of the upper s bits of every 2s-bit block) for the six carry levels
_CARRY_LEVELS = [(np.uint64(s), np.uint64(sum(1 << q for q in range(64) if q & s)))
                 for s in (1, 2, 4, 8, 16, 32)]
_LANE_SHIFTS = np.arange(64, dtype=np.uint64)


def _merge_pairs(words: np.ndarray, s: np.uint64, upper: np.uint64) -> np.ndarray:
    """Pairs of words along the last axis to one: the upper s bits of each
    2s-bit block of the first, the same bits of the second shifted into the
    lower s. An odd last word stays alone."""
    kept = words & upper
    merged = kept[..., ::2]
    merged[..., : kept.shape[-1] // 2] |= kept[..., 1::2] >> s
    return merged


def _ge_bits(sess: Session, u, v) -> np.ndarray:
    """Packed XOR shares of [u >= v] via the sign bit of u - v, one bit per
    lane of the broadcast operands in flat order.

    The parties' shares d0, d1 of d = u - v are the addends of an XOR-shared
    sum whose bit 63 is d0_63 ^ d1_63 ^ c63, with c63 the carry out of
    (d0 << 1) + (d1 << 1). One full-width AND layer gives the generate bits g
    (the propagate bits p are local). Six carry-only levels follow: level s
    updates (g, p) <- (g ^ p & g<<s, p & p<<s) only at the bits -1 mod 2s,
    the prefix nodes the top carry needs. Those are the upper s bits of each
    2s-bit block once the earlier levels' shifts are undone, so merging word
    pairs packs the level's live bits, 2s lanes per word, lane t of a group
    at t places right of its own bit positions. The last level (s = 32) ANDs
    only g.

    All AND triples come from one tape read: the level widths halve from
    the lane count, so every triple's size is known up front.
    """
    flat = np.asarray(np.subtract(u, v)).reshape(-1)
    widths = [flat.size]
    for _ in _CARRY_LEVELS:
        widths.append((widths[-1] + 1) // 2)
    triples = sess.draw_bit_triples([widths[0], *(2 * w for w in widths[1:-1]), widths[-1]])
    mine = flat << ONE
    zeros = np.zeros_like(mine)
    g = _bit_and(sess, *((mine, zeros) if sess.party == 0 else (zeros, mine)), triples[0])
    gp = np.array([g, mine])
    for (s, upper), triple in zip(_CARRY_LEVELS, triples[1:]):
        merged = _merge_pairs(np.concatenate([gp, gp << s]), s, upper)  # g, p, g<<s, p<<s
        # the last level updates only g: nothing reads its p
        gp = _bit_and(sess, merged[2:3] if s == 32 else merged[2:], merged[1], triple)
        gp[0] ^= merged[0]
    # lane t of each 64-lane word sits t places right of bit 63
    top = (gp[0][:, None] << _LANE_SHIFTS).reshape(-1)[: flat.size]
    return _pack_lanes(_bool_not(sess, flat ^ top) >> 63)


def sec_ge(sess: Session, u, v) -> np.ndarray:
    """Exact signed comparison; output is a shared {0,1} at scale 1: the sign
    bits, then their B2A."""
    lanes = np.broadcast(np.asarray(u), np.asarray(v))
    with sess.op("sec_ge", lanes.size):
        return _b2a_bits(sess, _ge_bits(sess, u, v), lanes.size).reshape(lanes.shape)


def reveal_ge(sess: Session, u, v) -> np.ndarray:
    """Public [u >= v] as 0/1 int64 at the broadcast shape: the sign bits are
    XOR-revealed in the round where sec_ge converts them, at sec_ge's cost."""
    lanes = np.broadcast(np.asarray(u), np.asarray(v))
    with sess.op("sec_ge", lanes.size):
        return _open_bits(sess, _ge_bits(sess, u, v), lanes.size).reshape(lanes.shape)


def sec_lut(sess: Session, x, table) -> np.ndarray:
    """The public bits table[x] of shared integers 0 <= x < M, for a public
    bit table of M entries, M a power of two; 0/1 int64 at x's shape.

    A one-time truth table (Ishai et al., TCC 2013): the dealer deals shares
    of r, uniform in Z_M, and XOR shares of the table rotated by r. M
    divides 2^64, so each party reduces its ring share mod M locally. One
    round opens c = (x + r) mod M, which is uniform, and a second XOR-reveals
    bit c of each party's table share.
    """
    table = np.asarray(table)
    size = table.size
    if size == 0 or size & (size - 1):
        raise ShapeError(f"a lookup table needs a power-of-two size, got {size}")
    x = np.asarray(x)
    flat = x.reshape(-1)
    with sess.op("sec_lut", flat.size):
        r, rotated = sess.draw_lookup(flat.size, table)
        mask = np.uint64(size - 1)
        mine = np.add(flat, r) & mask
        c = np.add(mine, sess.exchange_words(mine)) & mask
        bits = _pack_lanes((rotated[np.arange(flat.size), c >> np.uint64(6)] >> (c & np.uint64(63))) & ONE)
        return _open_bits(sess, bits, flat.size).reshape(x.shape)


# -- oblivious sort and rank ----------------------------------------------------


def comparator(sess: Session, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Packed XOR shares of [a >= b] per row of two (L, width) key matrices.

    Width 1 compares values. Width 2 compares fractions u/v with positive
    denominators: both exact cross products u_a*v_b and u_b*v_a come from
    one Beaver round.
    """
    sess.meter.invoke("comparator", len(a))
    if a.shape[1] == 1:
        return _ge_bits(sess, a[:, 0], b[:, 0])
    lhs, rhs = _beaver_mul(sess, np.array([a[:, 0], b[:, 0]]), np.array([b[:, 1], a[:, 1]]), truncate=False)
    return _ge_bits(sess, lhs, rhs)


def sec_srt(sess: Session, rows: np.ndarray, width: int, count: int) -> np.ndarray:
    """The top count rows of a (T, W) matrix, best first, by a bitonic top-k network.

    Rows are ordered descending by their first width columns, the key; the
    other columns (round indices here) ride along. A non-power-of-two T is
    padded to N rows with minus-infinity rows that sink to the tail: the
    most negative numerator, 1 in any further key column, -1 in every
    payload column. With K = padded_size(count) capped at N, the bitonic
    stages up to blocks of K leave blocks sorted alternately descending and
    ascending. Each merge level then keeps the max of rows i and i + K of
    each block pair, the top K of 2K as a bitonic block, and re-sorts the
    blocks with log2 K merge stages (Shanbhag, Pirk & Madden, SIGMOD 2018).
    At count >= T the network is the full bitonic sort. The layers are
    costs.topk_layers(T, count); comparator calls are
    costs.comparator_calls(T, count). Returns min(count, T) rows.
    """
    with sess.op("sec_srt"):
        rows = np.array(rows, dtype=np.uint64)
        t, cols = rows.shape
        size = padded_size(t)
        if size != t:
            pad = np.full(cols, from_signed(-1), dtype=np.uint64)
            # -2^(e-1), below every encodable value
            pad[0] = from_signed(-(1 << (sess.codec.precision_p + sess.codec.range_e - 1)))
            pad[1:width] = sess.codec.encode(1.0)
            rows = np.concatenate([rows, np.broadcast_to(const_share(sess, pad), (size - t, cols))])
        for k, j in topk_layers(t, count):
            # row i against row i + span for each i with bit span clear: a
            # stage compares at distance j, a half-cleaner (j = 0) row i of
            # each descending block of k against row i of the ascending one
            span = j or k
            idx = np.arange(len(rows))
            hi_idx = idx[(idx & span) == 0]
            lo_idx = hi_idx + span
            hi, lo = rows[hi_idx], rows[lo_idx]
            b = comparator(sess, hi[:, :width], lo[:, :width])
            # positions sorting ascending flip the comparator bit locally; a
            # half-cleaner always keeps the max (every hi_idx has bit k clear)
            if sess.party == 0:
                b = b ^ _pack_lanes((hi_idx & k) != 0)
            top = np.add(lo, _bit_inject(sess, b, np.subtract(hi, lo))[0])
            if j:
                rows[hi_idx] = top
                rows[lo_idx] = np.subtract(hi + lo, top)
            else:
                rows = top
        return rows[: min(count, t)]


def sec_rank(sess: Session, key: np.ndarray, count: int) -> np.ndarray:
    """Public [rank < count] flags of the T rows of a (T, width) key, in row order.

    Constant rounds: one comparator layer over all T(T-1)/2 pairs i < j,
    where item i beats item j iff [i >= j] (the earlier item wins ties, as
    in a stable descending sort), each item's losses summed locally, then
    one lookup [losses < count] over losses in [0, T). Only the membership
    of the top count is revealed, not their order.
    """
    t = len(key)
    with sess.op("sec_rank", t):
        i, j = np.triu_indices(t, 1)
        wins = _b2a_bits(sess, comparator(sess, key[i], key[j]), len(i))
        # an item loses to each earlier item that beats it (its column sum)
        # and to each later item it does not beat (T-1-index minus its row sum)
        beats = np.zeros((t, t), dtype=np.uint64)
        beats[i, j] = wins
        net = np.subtract(beats.sum(axis=0, dtype=np.uint64), beats.sum(axis=1, dtype=np.uint64))
        losses = add_public(sess, net, t - 1 - np.arange(t))
        return sec_lut(sess, losses, np.arange(padded_size(t)) < count)


# -- division ------------------------------------------------------------------


def sec_div(sess: Session, u, v) -> np.ndarray:
    """Fixed-point quotient round toward zero of (u << p) / v.

    Restoring division on arithmetic shares. One batched sign circuit gives
    the bits b = [x >= 0] of u and v, and one injection the magnitudes
    |x| = 2bx - x. Then for each of the div_iterations quotient bits i, high
    to low, a sign circuit gives c = [R >= |v| << i] and one injection both
    c * (|v| << i), which R loses, and c's arithmetic share, with R starting
    at |u| << p. The quotient q = sum(c << i) is negative where exactly one
    of u and v is: one last injection of b_u XOR b_v gives q - 2q there.

    Exact for v != 0 and a representable quotient, |q| < 2^(e-1). Outside
    that domain (v = 0 included) the magnitude saturates at every quotient
    bit set, so the result is +-(2^(p+e-1) - 1) raw with the sign of u / v
    (of u when v = 0). Callers guard the domain at the plaintext level.
    """
    u, v = np.broadcast_arrays(u, v)
    with sess.op("sec_div", int(u.size)):
        lanes = u.size
        x = np.concatenate([u.reshape(-1), v.reshape(-1)])  # one injection row per lane
        nonneg = _ge_bits(sess, x, np.zeros_like(x))
        au, av = np.split(np.subtract(_bit_inject(sess, nonneg, x)[0] << ONE, x), 2)
        remainder = au << np.uint64(sess.codec.precision_p)
        quot = np.zeros_like(au)
        for i in range(div_iterations(sess.codec) - 1, -1, -1):
            step = av << np.uint64(i)
            c_step, c = _bit_inject(sess, _ge_bits(sess, remainder, step), step)
            remainder = np.subtract(remainder, c_step)
            quot = np.add(quot, c << np.uint64(i))
        signs = _unpack_lanes(nonneg, 2 * lanes)
        negated = _bit_inject(sess, _pack_lanes(signs[:lanes] ^ signs[lanes:]), quot)[0]
        return np.subtract(quot, negated << ONE).reshape(u.shape)
