"""Two-party gates over additively shared ring tensors.

Addition of shares is local: np.add. A product uses one Beaver triple from
the dealer tape, drawn at the operands' own shapes; numpy broadcasting
forms it. Comparison takes the sign of d = u - v in three rounds
(_ge_bits): a masked opening c = d + r, then two levels of multi-input ANDs
over the bits that compare c's digits with the dealer's one-hot digit
tables of r. That sign circuit is the only boolean circuit. Its XOR-shared
bits leave it in one more round: a B2A (sec_ge, sec_rank's wins) or a bit
injection, which multiplies them straight into an arithmetic share
(sec_srt's selects, each quotient bit of sec_div's restoring division). A
small integer in a public range [0, M) skips the circuit: sec_lut looks it
up in a one-time truth table in two rounds, one masked opening and one
reveal. Batched lanes share one round trip: every gate here is vectorized,
so "T comparisons in parallel" is one circuit over T lanes.

Every layer's shapes follow from public sizes, so a gate draws all of its
dealer material at entry, one tape read per kind (see sharing), and hands
each layer its slice: _beaver_mul, _bit_inject, _ge_bits and comparator
take their material as an argument. sec_srt reads its layers' rows and
flip bits from a plan cached per (T, count).

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
wire form, the packed words described in transport. A tensor with one bit
per lane (comparison bits) is lane-packed: 64 lanes per word, ceil(L/64)
words. The sign circuit holds each of its wires as one lane-packed row, so
an AND of wires is a word AND over 64 lanes; a round that opens several
rows ships them as one bit tensor of rows * L bits, without pad bits
between rows.

Scale conventions (see fixedpoint): encoded reals sit at 2^-p and no gate
truncates. A product keeps the scale of its factors: sec_div takes its
numerator at 2^-2p and returns a quotient at 2^-p, and the comparator's
cross multiplications keep the raw product. The comparator returns
lane-packed XOR-shared bits; sec_ge's outputs are arithmetic shares of
{0, 1} at scale 1.
"""

from __future__ import annotations

import functools

import numpy as np

from .costs import div_iterations, padded_size, topk_layers
from .errors import ShapeError
from .fixedpoint import from_signed
from .sharing import Session, digits
from .transport import _pack_lanes, _planes, _unpack_lanes, pack_words, unpack_bit_words

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


def _beaver_mul(sess: Session, x, y, triple) -> np.ndarray:
    """The raw Beaver product x * y in one round, broadcast as numpy does.

    The triple (a, b, c) is dealt at the operands' own shapes: d = x - a and
    e = y - b ship lanes(x) + lanes(y) words in one frame. z = c + d*b + a*e,
    and party 0 adds d*e by taking d*(b + e) for d*b: two local products per
    party, the same words mod 2^64."""
    x, y = np.asarray(x), np.asarray(y)
    a, b, c = triple
    d_loc, e_loc = np.subtract(x, a), np.subtract(y, b)
    d_peer, e_peer = _exchange_concat(sess, [d_loc, e_loc])
    d, e = np.add(d_loc, d_peer), np.add(e_loc, e_peer)
    db = np.multiply(d, np.add(b, e) if sess.party == 0 else b)
    return np.add(c, np.add(db, np.multiply(a, e)))


# -- boolean kernel (representation: see the module docstring) ----------------


def _bytes(words: np.ndarray) -> np.ndarray:
    """The little-endian bytes of packed words, along their last axis."""
    return np.asarray(words, dtype="<u8").view(np.uint8)


def _open_bits(sess: Session, bits: np.ndarray, nbits: int) -> np.ndarray:
    """The public values of nbits packed XOR-shared bits as 0/1 int64."""
    return unpack_bit_words(pack_words(bits ^ sess.exchange_bits(bits)), (nbits,)).astype(np.int64)


def _bit_inject(sess: Session, bits: np.ndarray, x, material) -> tuple[np.ndarray, np.ndarray]:
    """b * x for packed XOR-shared bits b, one per row of the arithmetic
    share x, and the arithmetic share of b (ABY3's bit injection).

    The material, drawn at x's shape, is a random bit r per row in both
    domains, a uniform a at x's shape and c = r * a. One frame opens t = b
    XOR r as packed bits and e = x - a as words; with b = t + r - 2tr and
    r * x = r * e + c, each party forms t * x + (1 - 2t)(r * e + c) locally.
    The dealer's share of c makes the result a fresh sharing.
    """
    x = np.asarray(x)
    rows = len(x)
    r_bool, r_arith, a, c = material
    t_loc, e_loc = bits ^ r_bool, np.subtract(x, a)
    t_peer, e_peer = _exchange_concat(sess, [t_loc, e_loc])
    t = _unpack_lanes(t_loc ^ t_peer, rows)
    col = t.reshape((rows,) + (1,) * (x.ndim - 1)) == 1
    y = np.add(np.multiply(r_arith.reshape(col.shape), np.add(e_loc, e_peer)), c)
    b = r_arith - ((t * r_arith) << ONE)  # t XOR r = t + r - 2tr
    if sess.party == 0:
        b += t
    return np.where(col, np.subtract(x, y), y), b


def _b2a_bits(sess: Session, bits: np.ndarray, nbits: int, material) -> np.ndarray:
    """nbits packed XOR-shared bits to arithmetic shares of their 0/1 values,
    in bit order: an injection into rows of no words, drawn at (nbits, 0),
    whose frame opens only the masked bits."""
    return _bit_inject(sess, bits, np.empty((nbits, 0), dtype=np.uint64), material)[1]


# -- comparison gates ---------------------------------------------------------


def _level(terms) -> tuple:
    """Index tables of one AND level, whose output row t is the XOR of the
    monomials of terms[t], each a tuple of input rows (ABY2.0's multi-input
    AND, Patra et al., USENIX Security 2021).

    A monomial of one row enters unopened. Every row of a longer monomial
    opens as m = x ^ lam under its own fresh mask lam, and the dealer deals
    the mask product lam_S of each subset S of two or more of its rows, so
    that x_A = XOR over S of lam_S * m_{A - S}, where party 0 holds the empty
    product lam_{} = 1: a share is local once m is public. Returns (opened
    rows, subsets, unopened rows, pairs, term starts). A subsets row indexes
    the masks of one dealt product, padded with k, the opened count. Each
    pair is one lam_S * m_{A - S}: the row of lam_S in [masks, products,
    party 0's one, unopened rows], then the rows of m_{A - S} in [opened
    values, ones], padded to four.
    """
    col = {w: i for i, w in enumerate(sorted({w for t in terms for a in t if len(a) > 1 for w in a}))}
    k = len(col)
    linear = [a[0] for t in terms for a in t if len(a) == 1]
    splits, starts = [], []
    for t in terms:
        starts.append(len(splits))
        for a in t:
            if len(a) == 1:
                splits.append((None, ()))
                continue
            pos = [col[w] for w in a]
            for bits in range(1 << len(pos)):
                splits.append((tuple(p for i, p in enumerate(pos) if bits >> i & 1),
                               tuple(p for i, p in enumerate(pos) if not bits >> i & 1)))
    products = sorted({s for s, _ in splits if s and len(s) > 1}, key=lambda s: (len(s), s))
    row = {s: k + i for i, s in enumerate(products)} | {(p,): p for p in range(k)} | {(): k + len(products)}
    unopened = iter(range(k + len(products) + 1, k + len(products) + 1 + len(linear)))
    pair_rows = [next(unopened) if s is None else row[s] for s, _ in splits]
    pair_mono = [rest + (k,) * (4 - len(rest)) for _, rest in splits]
    return (np.array(sorted(col)), np.array([s + (k,) * (4 - len(s)) for s in products]).reshape(-1, 4),
            np.array(linear, dtype=np.int64), np.array(pair_rows), np.array(pair_mono), np.array(starts))


def _lt_term(eq: list, lt: list) -> list:
    """The monomials of [x < y] over digits, most significant first, from
    their [x_i < y_i] rows lt and [x_i = y_i] rows eq: lt_0 ^ eq_0 lt_1 ^
    eq_0 eq_1 lt_2 ^ eq_0 eq_1 eq_2 lt_3 (the terms exclude each other)."""
    return [tuple(eq[:i]) + (lt[i],) for i in range(len(lt))]


# level 1 reads the rows eq_0..eq_15, lt_0..lt_15 of the digits and returns
# LT_0..LT_3 and EQ_1..EQ_3 of the four groups of four; level 2 combines them
_GROUPS = [[4 * j + 3 - i for i in range(4)] for j in range(4)]  # most significant first
_LEVELS = [
    _level([_lt_term(g, [16 + d for d in g]) for g in _GROUPS] + [[tuple(g)] for g in _GROUPS[1:]]),
    _level([_lt_term([6, 5, 4], [3, 2, 1, 0])]),
]
_DEALT = [(len(opened), subsets) for opened, subsets, *_ in _LEVELS]
# per digit: the table entry at c_i ([c_i = r_i]) and the entries above it ([c_i < r_i])
_ENTRY_MASKS = np.array([1, 0xFFFE], dtype=np.uint16).reshape(2, 1, 1)


def _open_planes(sess: Session, planes: np.ndarray, lanes: int) -> np.ndarray:
    """The public values of XOR-shared lane-packed rows, opened in one round
    as one bit tensor of rows * lanes bits (no pad bits between rows)."""
    if lanes % 64 == 0:
        return planes ^ sess.exchange_bits(planes)
    bits = np.unpackbits(_bytes(planes), axis=1, count=lanes, bitorder="little")
    theirs = np.unpackbits(_bytes(sess.exchange_bits(_pack_lanes(bits))), count=bits.size, bitorder="little")
    return _planes(bits ^ theirs.reshape(bits.shape))


def _and_level(sess: Session, wires: np.ndarray, material: np.ndarray, level: tuple, lanes: int) -> np.ndarray:
    """One round of multi-input ANDs (see _level) on lane-packed XOR-shared rows."""
    opened, _, linear, pair_rows, pair_mono, starts = level
    values = _open_planes(sess, wires[opened] ^ material[: len(opened)], lanes)
    ones = np.full((1, values.shape[1]), ~np.uint64(0))
    own = ones if sess.party == 0 else np.zeros_like(ones)
    masks = np.concatenate([material, own, wires[linear]])
    monomials = np.bitwise_and.reduce(np.concatenate([values, ones])[pair_mono], axis=1)
    return np.bitwise_xor.reduceat(masks[pair_rows] & monomials, starts, axis=0)


def _ge_bits(sess: Session, u, v, material) -> np.ndarray:
    """Packed XOR shares of [u >= v] via the sign bit of d = u - v, one bit
    per lane of the broadcast operands in flat order, from the material of
    a comparison of that many lanes.

    One round opens c = d + r for a uniform dealt r, the masked opening of
    Rabbit (Makri et al., FC 2021). Then MSB(d) = MSB(c) ^ MSB(r) ^ [c' < r'],
    with c' and r' the words mod 2^63, exact on the whole ring. The dealer
    deals XOR shares of the one-hot vector of each digit of r' (see
    sharing.digits); each party reads its own share at c's public digit c_i:
    the entry there is its share of [c_i = r_i], the XOR of the entries above
    it its share of [c_i < r_i]. Two AND levels (_LEVELS) combine the digits
    in groups of four, then the groups, into [c' < r'].
    """
    flat = np.asarray(np.subtract(u, v)).reshape(-1)
    lanes = flat.size
    r, msb, tables, levels = material
    mine = np.add(flat, r)
    c = np.add(mine, sess.exchange_words(mine))
    entries = tables & (_ENTRY_MASKS << digits(c))
    wires = _planes(np.bitwise_count(entries).reshape(-1, lanes) & 1)  # eq rows, then lt rows
    for level, m in zip(_LEVELS, levels):
        wires = _and_level(sess, wires, m, level, lanes)
    out = wires[0] ^ msb
    # [u >= v] = NOT MSB(d); party 0 adds the public NOT MSB(c)
    return out ^ _pack_lanes(~c >> np.uint64(63)) if sess.party == 0 else out


# no protocol phase calls this; perfbench/gategrid.py times it and the audit prices it
def sec_ge(sess: Session, u, v) -> np.ndarray:
    """Exact signed comparison; output is a shared {0,1} at scale 1: the sign
    bits, then their B2A."""
    lanes = np.broadcast(np.asarray(u), np.asarray(v))
    with sess.op("sec_ge", lanes.size):
        (comparison,) = sess.draw_comparison([lanes.size], _DEALT)
        (injection,) = sess.draw_injection([(lanes.size, 0)])
        return _b2a_bits(sess, _ge_bits(sess, u, v, comparison), lanes.size, injection).reshape(lanes.shape)


def sec_lut(sess: Session, x, table) -> np.ndarray:
    """The public bits table[x] of shared integers 0 <= x < M, for a public
    bit table of M entries, M a power of two; 0/1 int64 at x's shape.

    A one-time truth table (Ishai et al., TCC 2013): the dealer deals shares
    of r, uniform in Z_M, and XOR shares of the table rotated by r. M
    divides 2^64, so each party reduces its ring share mod M locally. One
    round opens c = (x + r) mod M, which is uniform, each party sending its
    share mod M as log2(M) packed bits, and a second XOR-reveals bit c of
    each party's table share.
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
        shifts = np.arange(size.bit_length() - 1, dtype=np.uint64)
        theirs = sess.exchange_bits(_pack_lanes((mine[:, None] >> shifts) & ONE))
        theirs = _unpack_lanes(theirs, mine.size * shifts.size).reshape(mine.size, shifts.size) << shifts
        c = np.add(mine, theirs.sum(axis=1, dtype=np.uint64)) & mask
        bits = _pack_lanes((rotated[np.arange(flat.size), c >> np.uint64(6)] >> (c & np.uint64(63))) & ONE)
        return _open_bits(sess, bits, flat.size).reshape(x.shape)


# -- oblivious sort and rank ----------------------------------------------------


def _draw_comparators(sess: Session, lanes: list[int], width: int) -> list[tuple]:
    """The material of one comparator layer of lanes[i] rows of
    width-column keys for each i, from one tape read per kind: the Beaver
    triple of the cross products at width 2 (None at width 1), then the
    comparison's."""
    triples = sess.draw_beaver([((2, n), (2, n)) for n in lanes]) if width == 2 else [None] * len(lanes)
    return list(zip(triples, sess.draw_comparison(lanes, _DEALT)))


def comparator(sess: Session, a: np.ndarray, b: np.ndarray, material: tuple) -> np.ndarray:
    """Packed XOR shares of [a >= b] per row of two (L, width) key matrices,
    from one layer of _draw_comparators.

    Width 1 compares values. Width 2 compares fractions u/v with positive
    denominators: both exact cross products u_a*v_b and u_b*v_a come from
    one Beaver round.
    """
    sess.meter.invoke("comparator", len(a))
    triple, comparison = material
    if a.shape[1] == 1:
        return _ge_bits(sess, a[:, 0], b[:, 0], comparison)
    lhs, rhs = _beaver_mul(sess, np.array([a[:, 0], b[:, 0]]), np.array([b[:, 1], a[:, 1]]), triple)
    return _ge_bits(sess, lhs, rhs, comparison)


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
            # -2^(e-1) at 2^-2p, below every numerator and every quotient
            pad[0] = from_signed(-(1 << (2 * sess.codec.precision_p + sess.codec.range_e - 1)))
            pad[1:width] = sess.codec.encode(1.0)
            rows = np.concatenate([rows, np.broadcast_to(const_share(sess, pad), (size - t, cols))])
        plan = _topk_plan(t, count)
        pairs = [len(hi_idx) for hi_idx, *_ in plan]
        layers = zip(plan, _draw_comparators(sess, pairs, width), sess.draw_injection([(n, cols) for n in pairs]))
        for (hi_idx, lo_idx, flips, cleaner), compare, inject in layers:
            hi, lo = rows[hi_idx], rows[lo_idx]
            b = comparator(sess, hi[:, :width], lo[:, :width], compare)
            if sess.party == 0:
                b = b ^ flips
            top = np.add(lo, _bit_inject(sess, b, np.subtract(hi, lo), inject)[0])
            if cleaner:
                rows = top
            else:
                rows[hi_idx] = top
                rows[lo_idx] = np.subtract(hi + lo, top)
        return rows[: min(count, t)]


@functools.lru_cache(maxsize=64)
def _topk_plan(t: int, count: int) -> tuple:
    """Per layer of topk_layers(t, count): the rows it compares, hi_idx
    against lo_idx, the packed comparator bits that flip, and whether it is
    a half-cleaner, which keeps only the hi rows.

    Row i meets row i + span for each i with bit span clear: a stage
    compares at distance j, a half-cleaner (j = 0) row i of each descending
    block of k against row i of the ascending one. Positions sorting
    ascending flip the comparator bit; a half-cleaner always keeps the max
    (every hi_idx has bit k clear).
    """
    plan, size = [], padded_size(t)
    for k, j in topk_layers(t, count):
        idx = np.arange(size)
        hi_idx = idx[(idx & (j or k)) == 0]
        layer = (hi_idx, hi_idx + (j or k), _pack_lanes((hi_idx & k) != 0))
        for arr in layer:
            arr.flags.writeable = False
        plan.append((*layer, not j))
        if not j:
            size //= 2
    return tuple(plan)


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
        (compare,) = _draw_comparators(sess, [len(i)], key.shape[1])
        (inject,) = sess.draw_injection([(len(i), 0)])
        wins = _b2a_bits(sess, comparator(sess, key[i], key[j], compare), len(i), inject)
        # an item loses to each earlier item that beats it (its column sum)
        # and to each later item it does not beat (T-1-index minus its row sum)
        beats = np.zeros((t, t), dtype=np.uint64)
        beats[i, j] = wins
        net = np.subtract(beats.sum(axis=0, dtype=np.uint64), beats.sum(axis=1, dtype=np.uint64))
        losses = add_public(sess, net, t - 1 - np.arange(t))
        return sec_lut(sess, losses, np.arange(padded_size(t)) < count)


# -- division ------------------------------------------------------------------


def sec_div(sess: Session, u, v) -> np.ndarray:
    """Fixed-point quotient round toward zero of u / v, for a numerator u at
    2^-2p and a divisor v at 2^-p: the quotient sits at 2^-p.

    Restoring division on arithmetic shares. One batched sign circuit gives
    the bits b = [x >= 0] of u and v, and one injection the magnitudes
    |x| = 2bx - x. Then for each of the div_iterations quotient bits i, high
    to low, a sign circuit gives c = [R >= |v| << i] and one injection both
    c * (|v| << i), which R loses, and c's arithmetic share, with R starting
    at |u|. The quotient q = sum(c << i) is negative where exactly one
    of u and v is: one last injection of b_u XOR b_v gives q - 2q there.

    Exact for v != 0 and a representable quotient, |q| < 2^(e-1). Outside
    that domain (v = 0 included) the magnitude saturates at every quotient
    bit set, so the result is +-(2^(p+e-1) - 1) raw with the sign of u / v
    (of u when v = 0). Callers guard the domain at the plaintext level.
    """
    u, v = np.broadcast_arrays(u, v)
    with sess.op("sec_div", int(u.size)):
        lanes, bits = u.size, div_iterations(sess.codec)
        compares = sess.draw_comparison([2 * lanes] + [lanes] * bits, _DEALT)
        injects = sess.draw_injection([(2 * lanes,)] + [(lanes,)] * (bits + 1))
        x = np.concatenate([u.reshape(-1), v.reshape(-1)])  # one injection row per lane
        nonneg = _ge_bits(sess, x, np.zeros_like(x), compares[0])
        au, av = np.split(np.subtract(_bit_inject(sess, nonneg, x, injects[0])[0] << ONE, x), 2)
        remainder, quot = au, np.zeros_like(au)
        for i, compare, inject in zip(range(bits - 1, -1, -1), compares[1:], injects[1:]):
            step = av << np.uint64(i)
            c_step, c = _bit_inject(sess, _ge_bits(sess, remainder, step, compare), step, inject)
            remainder = np.subtract(remainder, c_step)
            quot = np.add(quot, c << np.uint64(i))
        signs = _unpack_lanes(nonneg, 2 * lanes)
        negated = _bit_inject(sess, _pack_lanes(signs[:lanes] ^ signs[lanes:]), quot, injects[-1])[0]
        return np.subtract(quot, negated << ONE).reshape(u.shape)
