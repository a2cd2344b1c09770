"""Two-party gates over additively shared ring tensors.

Arithmetic gates use Beaver triples from the dealer tape, drawn at the
operands' own shapes; numpy broadcasting forms the product. Comparison runs
on XOR-shared bits where each party contributes its own share as one
addend. It needs only the sign of the sum, so it runs a carry-only prefix
tree that computes the carry into the top bit (the MSB extraction of ABY3
and SecureNN): as many rounds as a Kogge-Stone adder, about a quarter of its
AND gates. That sign circuit is the only boolean circuit: division is
restoring division on arithmetic shares, one comparison and one Beaver
product per quotient bit. Batched lanes share one round trip: every gate
here is vectorized, so "T comparisons in parallel" is one circuit over T
lanes.

Sort and rank keys are (T, width) share matrices, one row per item: width 1
holds values, width 2 holds fractions (u, v) with v > 0. One comparator
orders both, fractions by cross multiplication, and costs prices it by
width. sec_srt returns the top count rows best first through a bitonic
top-k network: bitonic-sorted blocks of padded_size(count) rows, merged
pairwise by half-cleaners that keep only each pair's max; at count >= T it
is the full bitonic sort. It moves whole rows, so a payload column rides
along, and pads to a power of two with minus-infinity rows (the most
negative numerator, 1 in a denominator column, -1 in payload columns).
sec_rank uses the same comparator for constant-round selection: one
comparator layer over all pairs yields each item's rank, and only
[rank < count] is computed, never the order.

Boolean kernel representation: an XOR-shared bit tensor is held in its
wire form, the packed words described in transport. A full-width tensor has
one word per lane, bit k of the value at bit k of the word, so a ring word
is its own bit decomposition and the carry tree's shifts and sign bits are
word shifts (x << s, x >> 63). A tensor with one bit per lane (comparison
bits) is lane-packed: 64 lanes per word, ceil(L/64) words. Level k of the
carry-only tree keeps 64/2^k live bits per lane and ships 2^k lanes per
word (see _ge_core).

Scale conventions: encoded reals sit at 2^-p. Products of two encoded
operands land at 2^-2p and are truncated back unless the caller opts out
(bit-valued operands, exact cross multiplications). Comparison outputs are
arithmetic shares of {0, 1} at scale 1.
"""

from __future__ import annotations

import numpy as np

from .costs import div_iterations, padded_size, topk_layers
from .errors import RangeError, ShapeError, SingularRevealError
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


def _open(sess: Session, x) -> np.ndarray:
    """Reveal inside the current gate scope (attributed to that gate)."""
    theirs = sess.exchange_words(np.asarray(x))
    return np.add(x, theirs)


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


def _beaver_mul(sess: Session, x, y, *, matmul: bool = False, truncate: bool = True):
    """Beaver product of x and y from a triple at the operands' own shapes:
    d = x - a and e = y - b ship lanes(x) + lanes(y) words in one round, and
    numpy broadcasting forms c = a * b (or a @ b) and z.

    z = c + d*b + a*e, and party 0 adds d*e by taking d*(b + e) for d*b:
    two local products per party, the same words mod 2^64."""
    x = np.asarray(x)
    y = np.asarray(y)
    product = np.matmul if matmul else np.multiply
    a, b, c = sess.draw_beaver(x.shape, y.shape, "matmul" if matmul else "mul")
    d_loc = np.subtract(x, a)
    e_loc = np.subtract(y, b)
    d, e = _exchange_concat(sess, [d_loc, e_loc])
    d = np.add(d_loc, d)
    e = np.add(e_loc, e)
    db = product(d, np.add(b, e) if sess.party == 0 else b)
    z = np.add(c, np.add(db, product(a, e)))
    if truncate:
        z = sess.truncate(z)
    return z


# -- arithmetic gates ----------------------------------------------------------


def sec_add(sess: Session, x, y) -> np.ndarray:
    """Share-wise addition. Zero rounds, zero bytes."""
    with sess.op("sec_add", int(np.broadcast(np.asarray(x), np.asarray(y)).size)):
        return np.add(x, y)


def sec_mul(sess: Session, x, y, *, matmul: bool = False, truncate: bool = True) -> np.ndarray:
    """Beaver product of two shared tensors (one round)."""
    n = 1 if matmul else int(np.broadcast(np.asarray(x), np.asarray(y)).size)
    with sess.op("sec_mul", n):
        return _beaver_mul(sess, x, y, matmul=matmul, truncate=truncate)


def mul_public(sess: Session, x, raw, *, matmul: bool = False) -> np.ndarray:
    """Product with a public ring tensor: no triple, no communication."""
    with sess.op("sec_mul", 1 if matmul else int(np.asarray(x).size)):
        pub = np.asarray(raw, dtype=np.uint64)
        return sess.truncate(np.matmul(x, pub) if matmul else np.multiply(x, pub))


def sec_sp(sess: Session, x, y) -> np.ndarray:
    """Inner product along the last axis, one truncation of the summed terms."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape[-1] != y.shape[-1]:
        raise ShapeError(f"sec_sp shapes {x.shape} x {y.shape}")
    x, y = np.broadcast_arrays(x, y)
    with sess.op("sec_sp", int(x.size // x.shape[-1])):
        z = _beaver_mul(sess, x[..., None, :], y[..., :, None], matmul=True)
        return z[..., 0, 0]


def sp_public(sess: Session, x, raw) -> np.ndarray:
    """Inner product with a public vector: local, zero communication."""
    x = np.asarray(x)
    with sess.op("sec_sp", int(x.size // x.shape[-1])):
        z = np.multiply(x, np.asarray(raw, dtype=np.uint64)).sum(axis=-1, dtype=np.uint64)
        return sess.truncate(z)


def _select(sess: Session, v0, v1, b) -> np.ndarray:
    # the Beaver output holds the dealer's fresh share of c, so the result is
    # already a fresh sharing: a zero share on top would re-randomize nothing
    return np.add(v0, _beaver_mul(sess, b, np.subtract(v1, v0), truncate=False))


def sec_sel(sess: Session, v0, v1, b) -> np.ndarray:
    """Oblivious select v0 + b*(v1 - v0); b may broadcast against v0 and v1."""
    with sess.op("sec_sel", int(np.asarray(b).size)):
        return _select(sess, v0, v1, b)


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


def _b2a_bits(sess: Session, bits: np.ndarray, shared) -> np.ndarray:
    """Packed XOR-shared bits to arithmetic shares of their 0/1 values, in
    bit order, from shared random bits (r_bool, r_arith) of the same count."""
    r_bool, r_arith = shared
    t_loc = bits.reshape(-1) ^ r_bool
    t = _unpack_lanes(t_loc ^ sess.exchange_bits(t_loc), r_arith.size)
    out = r_arith - ((t * r_arith) << ONE)  # r XOR t = r + t - 2tr
    if sess.party == 0:
        out += t
    return out


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


def _ge_core(sess: Session, u, v) -> np.ndarray:
    """Arithmetic share of [u >= v] via the sign bit of u - v.

    The parties' shares d0, d1 of d = u - v are the addends of an XOR-shared
    sum whose bit 63 is d0_63 ^ d1_63 ^ c63, with c63 the carry out of
    (d0 << 1) + (d1 << 1). One full-width AND layer gives the generate bits g
    (the propagate bits p are local). Six carry-only levels follow: level s
    updates (g, p) <- (g ^ p & g<<s, p & p<<s) only at the bits -1 mod 2s,
    the prefix nodes the top carry needs. Those are the upper s bits of each
    2s-bit block once the earlier levels' shifts are undone, so merging word
    pairs packs the level's live bits, 2s lanes per word, lane t of a group
    at t places right of its own bit positions. The last level (s = 32) ANDs
    only g. One B2A turns the sign bits into arithmetic shares.

    All dealer material comes from one tape read: the level widths halve
    from the lane count, so every triple's size is known up front.
    """
    d = np.asarray(np.subtract(u, v))
    flat = d.reshape(-1)
    widths = [flat.size]
    for _ in _CARRY_LEVELS:
        widths.append((widths[-1] + 1) // 2)
    triples, shared = sess.draw_bit_material(
        [widths[0], *(2 * w for w in widths[1:-1]), widths[-1]], flat.size)
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
    ge = _bool_not(sess, flat ^ top) >> 63
    return _b2a_bits(sess, _pack_lanes(ge), shared).reshape(d.shape)


def sec_ge(sess: Session, u, v) -> np.ndarray:
    """Exact signed comparison; output is a shared {0,1} at scale 1."""
    with sess.op("sec_ge", int(np.broadcast(np.asarray(u), np.asarray(v)).size)):
        return _ge_core(sess, u, v)


# no protocol phase calls this; it stays while perfbench/run.py prices threshold_determination
def sec_max(sess: Session, vals) -> np.ndarray:
    """Oblivious max over the last axis (tournament of sec_ge/sec_sel)."""
    vals = np.asarray(vals)
    with sess.op("sec_max", int(vals.size // vals.shape[-1])):
        t = vals.shape[-1]
        size = padded_size(t)
        if size != t:
            pad_val = const_share(sess, _minus_infinity(sess))
            pad = np.broadcast_to(pad_val, vals.shape[:-1] + (size - t,)).copy()
            vals = np.concatenate([vals, pad], axis=-1)
        while vals.shape[-1] > 1:
            half = vals.shape[-1] // 2
            a = vals[..., :half]
            b = vals[..., half:]
            vals = _select(sess, b, a, _ge_core(sess, a, b))
        return vals[..., 0]


def _minus_infinity(sess: Session) -> np.ndarray:
    """-2^(e-1) as a ring word, below every encodable value."""
    codec = sess.codec
    return from_signed(-(1 << (codec.precision_p + codec.range_e - 1)))


# -- oblivious sort and rank ----------------------------------------------------


def comparator(sess: Session, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shared [a >= b] per row of two (L, width) key matrices.

    Width 1 compares values. Width 2 compares fractions u/v with positive
    denominators: both exact cross products u_a*v_b and u_b*v_a come from
    one Beaver round.
    """
    sess.meter.invoke("comparator", len(a))
    if a.shape[1] == 1:
        return _ge_core(sess, a[:, 0], b[:, 0])
    lhs, rhs = _beaver_mul(sess, np.array([a[:, 0], b[:, 0]]), np.array([b[:, 1], a[:, 1]]), truncate=False)
    return _ge_core(sess, lhs, rhs)


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
            pad[0] = _minus_infinity(sess)
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
            sess.meter.invoke("sec_sel", len(hi_idx))
            # positions sorting ascending flip the comparator bit locally; a
            # half-cleaner always keeps the max (every hi_idx has bit k clear)
            desc = (hi_idx & k) == 0
            s = np.multiply(b, from_signed(np.where(desc, 1, -1)))
            if sess.party == 0:
                s = np.add(s, from_signed(np.where(desc, 0, 1)))
            top = _select(sess, lo, hi, s[:, None])
            if j:
                rows[hi_idx] = top
                rows[lo_idx] = np.subtract(hi + lo, top)
            else:
                rows = top
        return rows[: min(count, t)]


def sec_rank(sess: Session, key: np.ndarray, count: int) -> np.ndarray:
    """Shared [rank < count] flags of the T rows of a (T, width) key, in row order.

    Constant rounds: one comparator layer over all T(T-1)/2 pairs i < j,
    where item i beats item j iff [i >= j] (the earlier item wins ties, as
    in a stable descending sort), each item's losses summed locally, then
    one comparison [count - 1 >= losses]. Only the membership of the top
    count is computed, not their order.
    """
    t = len(key)
    with sess.op("sec_rank", t):
        i, j = np.triu_indices(t, 1)
        wins = comparator(sess, key[i], key[j])
        # an item loses to each earlier item that beats it (its column sum)
        # and to each later item it does not beat (T-1-index minus its row sum)
        beats = np.zeros((t, t), dtype=np.uint64)
        beats[i, j] = wins
        net = np.subtract(beats.sum(axis=0, dtype=np.uint64), beats.sum(axis=1, dtype=np.uint64))
        losses = add_public(sess, net, t - 1 - np.arange(t))
        return _ge_core(sess, const_share(sess, count - 1), losses)


# -- division ------------------------------------------------------------------


def sec_div(sess: Session, u, v) -> np.ndarray:
    """Fixed-point quotient round toward zero of (u << p) / v.

    Restoring division on arithmetic shares. One batched comparison gives
    the signs of u and v, one Beaver round the magnitudes and the product of
    the signs. Then for each of the div_iterations quotient bits i, high to
    low, c = [R >= |v| << i] and R -= c * (|v| << i), with R starting at
    |u| << p; one last Beaver round applies the sign to sum(c << i).

    Exact for v != 0 and a representable quotient, |q| < 2^(e-1). Outside
    that domain (v = 0 included) the magnitude saturates at every quotient
    bit set, so the result is +-(2^(p+e-1) - 1) raw with the sign of u / v
    (of u when v = 0). Callers guard the domain at the plaintext level.
    """
    u, v = np.broadcast_arrays(u, v)
    with sess.op("sec_div", int(u.size)):
        # s = 2 [x >= 0] - 1: +1 on non-negative x, -1 on negative
        ge = _ge_core(sess, np.stack([u, v]), np.zeros_like(u))
        s_u, s_v = add_public(sess, ge << ONE, from_signed(-1))
        au, av, sign = _beaver_mul(sess, np.stack([u, v, s_u]), np.stack([s_u, s_v, s_v]), truncate=False)
        remainder = au << np.uint64(sess.codec.precision_p)
        quot = np.zeros_like(au)
        for i in range(div_iterations(sess.codec) - 1, -1, -1):
            step = av << np.uint64(i)
            c = _ge_core(sess, remainder, step)
            remainder = np.subtract(remainder, _beaver_mul(sess, c, step, truncate=False))
            quot = np.add(quot, c << np.uint64(i))
        return _beaver_mul(sess, quot, sign, truncate=False)


# -- masked inversion ------------------------------------------------------------

# sec_mi draws a fresh mask this many times before giving up, and rejects a
# revealed product whose condition number exceeds MI_MAX_COND.
MI_TRIES = 8
MI_MAX_COND = 1e8


def _invert_longdouble(n: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverses of a (B, m, m) batch at extended precision.

    Partial pivoting; each column step pivots, scales and eliminates in every
    matrix of the batch at once. The pivot row is eliminated with a zero
    factor, which leaves it as it is.
    """
    a = n.astype(np.longdouble)
    inv = np.broadcast_to(np.eye(n.shape[-1], dtype=np.longdouble), a.shape).copy()
    batch = np.arange(len(a))
    for col in range(a.shape[-1]):
        piv = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
        if np.any(a[batch, piv, col] == 0):
            raise SingularRevealError("masked matrix is singular")
        if np.any(piv != col):
            for t in (a, inv):
                t[batch, col], t[batch, piv] = t[batch, piv], t[batch, col]
        scale = a[:, col, col, None].copy()
        a[:, col] /= scale
        inv[:, col] /= scale
        f = a[:, :, col, None].copy()
        f[:, col] = 0
        a -= f * a[:, None, col]
        inv -= f * inv[:, None, col]
    return inv


def sec_mi(sess: Session, x) -> np.ndarray:
    """Masked inverse (Bar-Ilan & Beaver): reveal N = X*R, invert in the
    clear, return R * N^-1.

    One shape rule: a tensor of rank < 2 is a batch of 1x1 matrices (the
    reciprocals used for curvature scalars), anything else is (..., m, m).
    Each try draws one dealer mask per matrix, with entries on [-1, 1), opens
    every masked product in one round and checks all their condition numbers
    at once; an exactly singular product reads inf. If any exceeds
    MI_MAX_COND every mask is redrawn. The clear-side inverses are computed at
    extended precision and re-encoded at 2p, so the final public product
    needs only one truncation.
    """
    arr = np.asarray(x)
    with sess.op("sec_mi"):
        if arr.ndim >= 2 and arr.shape[-1] != arr.shape[-2]:
            raise ShapeError(f"sec_mi needs a square matrix, got {arr.shape}")
        m = arr.shape[-1] if arr.ndim >= 2 else 1
        mat = arr.reshape(-1, m, m)
        two_p = 2 * sess.codec.precision_p
        for _ in range(MI_TRIES):
            masks = np.stack([sess.draw_inv_mask(m) for _ in range(len(mat))])
            revealed = _open(sess, _beaver_mul(sess, mat, masks, matmul=True, truncate=False))
            dec = sess.codec.decode_at(revealed, two_p)
            if np.all(np.linalg.cond(dec) <= MI_MAX_COND):
                res = np.matmul(masks, _encode_at(_invert_longdouble(dec), two_p))
                # one shift by 2p rather than two by p: a single rounding event
                return sess.truncate(res, bits=two_p).reshape(arr.shape)
        raise SingularRevealError(f"masked product stayed singular after {MI_TRIES} draws")


def _encode_at(values: np.ndarray, scale_bits: int) -> np.ndarray:
    """Ring words of values at 2^-scale_bits, rounding half away from zero.

    The rounding is done at extended precision; an integer-valued longdouble
    below 2^63 then casts to int64 exactly, where a float64 cast would not.
    """
    vals = np.asarray(values, dtype=np.longdouble) * np.longdouble(2.0) ** scale_bits
    signed = np.copysign(np.floor(np.abs(vals) + 0.5), vals)
    if np.any(np.abs(signed) >= np.longdouble(2.0) ** 63):
        raise RangeError("value too large to re-encode at the extended scale")
    return from_signed(signed)
