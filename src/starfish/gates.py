"""Two-party gates over additively shared ring tensors.

Arithmetic gates use Beaver triples from the dealer tape. Comparison,
division and bit extraction run on XOR-shared bit tensors produced by an
A2B conversion (each party contributes its own share as one addend, a
Kogge-Stone adder recombines them). Batched lanes share one round trip:
every gate here is vectorized, so "T comparisons in parallel" is one
circuit over T lanes.

Boolean kernel representation: an XOR-shared bit tensor is held in its
wire form, little-endian uint64 words over the flat bit sequence with zero
pad bits. A full-width tensor has one word per lane, bit k of the value at
bit k of the word, so a ring word is its own bit decomposition and the
adder's shifts, sign bits and carry broadcasts are word shifts (x << s,
x >> 63, 0 - c). A tensor with one bit per lane (comparison bits, carry-in
folds) is lane-packed: 64 lanes per word, ceil(L/64) words. AND and XOR act
on 64 bits per machine operation either way, and a round ships the words as
they are (an AND layer whose bit count is not a multiple of 64 joins its two
operands at the bit level, as the wire format has always done).

Scale conventions: encoded reals sit at 2^-p. Products of two encoded
operands land at 2^-2p and are truncated back unless the caller opts out
(bit-valued operands, exact cross multiplications). Comparison outputs are
arithmetic shares of {0, 1} at scale 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .costs import div_iterations
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


def _broadcast(x, y):
    bx, by = np.broadcast_arrays(np.asarray(x), np.asarray(y))
    return bx.copy(), by.copy()


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
    x = np.asarray(x)
    y = np.asarray(y)
    if matmul:
        if x.shape[-1] != y.shape[-2 if y.ndim > 1 else 0]:
            raise ShapeError(f"matmul shapes {x.shape} x {y.shape}")
        product = np.matmul
    else:
        x, y = _broadcast(x, y)
        product = np.multiply
    a, b, c = sess.draw_beaver(x.shape, y.shape, "matmul" if matmul else "mul")
    d_loc = np.subtract(x, a)
    e_loc = np.subtract(y, b)
    d, e = _exchange_concat(sess, [d_loc, e_loc])
    d = np.add(d_loc, d)
    e = np.add(e_loc, e)
    z = np.add(c, np.add(product(d, b), product(a, e)))
    if sess.party == 0:
        z = np.add(z, product(d, e))
    if truncate:
        z = sess.truncate(z)
    return z


def _mul_public_core(sess: Session, x, raw, *, matmul: bool = False, truncate: bool = True):
    pub = np.asarray(raw, dtype=np.uint64)
    z = np.matmul(x, pub) if matmul else np.multiply(x, pub)
    if truncate:
        z = sess.truncate(z)
    return z


# -- arithmetic gates ----------------------------------------------------------


def sec_add(sess: Session, x, y) -> np.ndarray:
    """Share-wise addition. Zero rounds, zero bytes."""
    with sess.op("sec_add"):
        sess.meter.invoke("sec_add", int(np.broadcast(np.asarray(x), np.asarray(y)).size))
        return np.add(x, y)


def sec_mul(sess: Session, x, y, *, matmul: bool = False, truncate: bool = True) -> np.ndarray:
    """Beaver product of two shared tensors (one round)."""
    with sess.op("sec_mul"):
        n = 1 if matmul else int(np.broadcast(np.asarray(x), np.asarray(y)).size)
        sess.meter.invoke("sec_mul", n)
        return _beaver_mul(sess, x, y, matmul=matmul, truncate=truncate)


def mul_public(sess: Session, x, raw, *, matmul: bool = False, truncate: bool = True) -> np.ndarray:
    """Product with a public ring tensor: no triple, no communication."""
    with sess.op("sec_mul"):
        sess.meter.invoke("sec_mul", 1 if matmul else int(np.asarray(x).size))
        return _mul_public_core(sess, x, raw, matmul=matmul, truncate=truncate)


def sec_mul3(sess: Session, x, y, z, *, matmul: bool = False, truncate: bool = True) -> np.ndarray:
    """Three-operand product, staged as two sequential Beaver products.

    Two rounds instead of the single-round three-party construction; the
    cost table reflects this implementation.
    """
    with sess.op("sec_mul3"):
        sess.meter.invoke("sec_mul3")
        xy = _beaver_mul(sess, x, y, matmul=matmul, truncate=truncate)
        return _beaver_mul(sess, xy, z, matmul=matmul, truncate=truncate)


def sec_sp(sess: Session, x, y, *, truncate: bool = True) -> np.ndarray:
    """Inner product along the last axis, one truncation of the summed terms."""
    with sess.op("sec_sp"):
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape[-1] != y.shape[-1]:
            raise ShapeError(f"sec_sp shapes {x.shape} x {y.shape}")
        x, y = _broadcast(x, y)
        sess.meter.invoke("sec_sp", int(x.size // x.shape[-1]))
        xm = x[..., None, :]
        ym = y[..., :, None]
        z = _beaver_mul(sess, xm, ym, matmul=True, truncate=truncate)
        return z[..., 0, 0]


def sp_public(sess: Session, x, raw, *, truncate: bool = True) -> np.ndarray:
    """Inner product with a public vector: local, zero communication."""
    with sess.op("sec_sp"):
        x = np.asarray(x)
        sess.meter.invoke("sec_sp", int(x.size // x.shape[-1]))
        z = np.multiply(x, np.asarray(raw, dtype=np.uint64)).sum(axis=-1, dtype=np.uint64)
        if truncate:
            z = sess.truncate(z)
        return z


def sec_sel(sess: Session, v0, v1, b) -> np.ndarray:
    """Oblivious select v0 + b*(v1 - v0), re-randomized with a zero share."""
    with sess.op("sec_sel"):
        sess.meter.invoke("sec_sel", int(np.asarray(b).size))
        picked = _beaver_mul(sess, b, np.subtract(v1, v0), truncate=False)
        out = np.add(v0, picked)
        return np.add(out, sess.draw_zero(np.asarray(out).shape))


# -- boolean kernel (representation: see the module docstring) ----------------


def _pack_lanes(bits: np.ndarray) -> np.ndarray:
    """Per-lane 0/1 words to a lane-packed tensor (zero pad bits)."""
    return unpack_words(pack_bit_words(bits), bit_word_count(bits.size))


def _unpack_lanes(words: np.ndarray, nbits: int) -> np.ndarray:
    """The first nbits bits of packed words as 0/1 words, one per bit."""
    return unpack_bit_words(pack_words(words), (nbits,)).astype(np.uint64)


def _join_bits(e: np.ndarray, f: np.ndarray, nbits: int) -> np.ndarray:
    """Packed words of e's nbits bits followed by f's."""
    if nbits % 64 == 0:
        return np.concatenate([e.reshape(-1), f.reshape(-1)])
    return _pack_lanes(np.concatenate([_unpack_lanes(e, nbits), _unpack_lanes(f, nbits)]))


def _split_bits(msg: np.ndarray, nbits: int, shape) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of _join_bits."""
    if nbits % 64 == 0:
        e, f = msg.reshape((2,) + tuple(shape))
        return e, f
    bits = _unpack_lanes(msg, 2 * nbits)
    return _pack_lanes(bits[:nbits]), _pack_lanes(bits[nbits:])


def _bit_and(sess: Session, x: np.ndarray, y: np.ndarray, nbits: int | None = None) -> np.ndarray:
    """AND on XOR-shared packed bit tensors; one round for any batch shape.

    nbits is the logical bit count of a lane-packed operand; full-width
    operands carry 64 bits per word.
    """
    nbits = 64 * x.size if nbits is None else nbits
    a, b, c = (t.reshape(x.shape) for t in sess.draw_bit_triple(nbits))
    e_loc = x ^ a
    f_loc = y ^ b
    e_peer, f_peer = _split_bits(sess.exchange_bits(_join_bits(e_loc, f_loc, nbits)), nbits, x.shape)
    e = e_loc ^ e_peer
    f = f_loc ^ f_peer
    z = c ^ (f & a) ^ (e & b)
    if sess.party == 0:
        z ^= e & f
    return z


def _adder(
    sess: Session,
    x: np.ndarray,
    y: np.ndarray | None,
    *,
    cin_share: np.ndarray | None = None,
    cin_public: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Kogge-Stone addition of full-width XOR-shared words.

    Returns (sum words, per-lane carry out as 0/1 words). y=None means an
    all-zero addend, used for conditional negation where only a carry-in
    enters; cin_share holds per-lane 0/1 words.
    """
    if y is None:
        p = x
        g = np.zeros_like(x)
    else:
        p = x ^ y
        g = _bit_and(sess, x, y)
    if cin_share is not None:
        fold = _bit_and(sess, _pack_lanes(p & ONE), _pack_lanes(cin_share), nbits=p.size)
        g = g ^ _unpack_lanes(fold, p.size).reshape(p.shape)
    elif cin_public:
        g = g ^ (p & ONE)  # p0 AND 1 is local
    gp = np.stack([g, p])
    s = 1
    while s < 64:
        # one AND layer: (g, p) <- (g ^ p & g<<s, p & p<<s)
        res = _bit_and(sess, np.broadcast_to(gp[1], gp.shape), gp << s)
        res[0] ^= gp[0]
        gp = res
        s <<= 1
    g = gp[0]
    carry = g << ONE
    if cin_share is not None:
        carry |= cin_share
    elif cin_public and sess.party == 0:
        carry |= ONE
    return p ^ carry, g >> 63


def _a2b(sess: Session, x: np.ndarray) -> np.ndarray:
    """Arithmetic share to XOR-shared full-width words of the same value."""
    mine = np.asarray(x, dtype=np.uint64)
    zeros = np.zeros_like(mine)
    xa = mine if sess.party == 0 else zeros
    xb = zeros if sess.party == 0 else mine
    total, _ = _adder(sess, xa, xb)
    return total


def _b2a_bits(sess: Session, bits: np.ndarray, nbits: int) -> np.ndarray:
    """Packed XOR-shared bits to arithmetic shares of their 0/1 values, in bit order."""
    r_bool, r_arith = sess.draw_shared_bit(nbits)
    t_loc = bits.reshape(-1) ^ r_bool
    t = _unpack_lanes(t_loc ^ sess.exchange_bits(t_loc), nbits)
    out = r_arith - ((t * r_arith) << ONE)  # r XOR t = r + t - 2tr
    if sess.party == 0:
        out += t
    return out


def _b2a_word(sess: Session, words: np.ndarray) -> np.ndarray:
    """XOR-shared full-width words to one arithmetic share each (two's complement)."""
    arith = _b2a_bits(sess, words, 64 * words.size).reshape(words.shape + (64,))
    return (arith << np.arange(64, dtype=np.uint64)).sum(axis=-1, dtype=np.uint64)


def _bool_not(sess: Session, words: np.ndarray) -> np.ndarray:
    return ~words if sess.party == 0 else words


def _cond_negate(sess: Session, words: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Two's-complement negate where sign=1: (x XOR sign) + sign."""
    total, _ = _adder(sess, words ^ np.negative(sign), None, cin_share=sign)
    return total


# -- comparison gates ---------------------------------------------------------


def _ge_core(sess: Session, u, v) -> np.ndarray:
    """Arithmetic share of [u >= v] via the sign bit of u - v."""
    d = np.subtract(*_broadcast(u, v))
    ge = _bool_not(sess, _a2b(sess, d)) >> 63
    return _b2a_bits(sess, _pack_lanes(ge), ge.size).reshape(ge.shape)


def sec_ge(sess: Session, u, v) -> np.ndarray:
    """Exact signed comparison; output is a shared {0,1} at scale 1."""
    with sess.op("sec_ge"):
        sess.meter.invoke("sec_ge", int(np.broadcast(np.asarray(u), np.asarray(v)).size))
        return _ge_core(sess, u, v)


def sec_ge2(sess: Session, u1, v1, u2, v2) -> np.ndarray:
    """[u1/v1 >= u2/v2] for positive v1, v2 by exact cross multiplication."""
    with sess.op("sec_ge2"):
        sess.meter.invoke("sec_ge2", int(np.asarray(u1).size))
        return comparator_pair(sess, {"u": u1, "v": v1}, {"u": u2, "v": v2})


def sec_max(sess: Session, vals) -> np.ndarray:
    """Oblivious max over the last axis (tournament of sec_ge/sec_sel)."""
    with sess.op("sec_max"):
        vals = np.asarray(vals)
        lanes = int(vals.size // vals.shape[-1])
        sess.meter.invoke("sec_max", lanes)
        t = vals.shape[-1]
        size = 1 << (t - 1).bit_length()
        if size != t:
            pad_val = const_share(sess, _min_sentinel_raw(sess))
            pad = np.broadcast_to(pad_val, vals.shape[:-1] + (size - t,)).copy()
            vals = np.concatenate([vals, pad], axis=-1)
        while vals.shape[-1] > 1:
            half = vals.shape[-1] // 2
            a = vals[..., :half]
            b = vals[..., half:]
            g = _ge_core(sess, a, b)
            picked = _beaver_mul(sess, g, np.subtract(a, b), truncate=False)
            vals = np.add(b, picked)
        return vals[..., 0]


def _min_sentinel_raw(sess: Session) -> np.ndarray:
    codec = sess.codec
    return from_signed(-(1 << (codec.precision_p + codec.range_e - 1)))


# -- oblivious sort -----------------------------------------------------------


@dataclass
class ComparisonKey:
    """Sortable record: named shared components plus a swapped-along payload.

    Every component is an array whose leading axis indexes the T items.
    The comparator decides ordering from the components; the payload (round
    indices here) just rides along through the swaps.
    """

    variant: str
    parts: dict[str, np.ndarray]
    payload: np.ndarray | None = None

    def length(self) -> int:
        return next(iter(self.parts.values())).shape[0]


Comparator = Callable[[Session, dict, dict], np.ndarray]
SentinelFn = Callable[[Session], dict]


def comparator_plain(sess: Session, a: dict, b: dict) -> np.ndarray:
    return _ge_core(sess, a["v"], b["v"])


def sentinel_plain(sess: Session) -> dict:
    return {"v": _min_sentinel_raw(sess)}


def comparator_pair(sess: Session, a: dict, b: dict) -> np.ndarray:
    """Fraction order u1/v1 >= u2/v2 with positive denominators."""
    lhs_rhs = _beaver_mul(
        sess,
        np.stack(_broadcast(a["u"], b["u"])),
        np.stack(_broadcast(b["v"], a["v"])),
        truncate=False,
    )
    return _ge_core(sess, lhs_rhs[0], lhs_rhs[1])


def sentinel_pair(sess: Session) -> dict:
    return {"u": _min_sentinel_raw(sess), "v": sess.codec.encode(1.0)}


SORT_VARIANTS: dict[str, tuple[Comparator, SentinelFn]] = {
    "plain": (comparator_plain, sentinel_plain),
    "pair": (comparator_pair, sentinel_pair),
}


def sec_srt(
    sess: Session,
    key: ComparisonKey,
    comparator: Comparator | None = None,
    sentinel: SentinelFn | None = None,
) -> ComparisonKey:
    """Descending bitonic sort; (l^2+l)/4 * T comparator calls at T = 2^l.

    Items beyond a non-power-of-two length are padded with the variant's
    minus-infinity sentinel and sink to the tail.
    """
    with sess.op("sec_srt"):
        sess.meter.invoke("sec_srt")
        if comparator is None or sentinel is None:
            if key.variant not in SORT_VARIANTS:
                raise ShapeError(f"no default comparator for variant {key.variant!r}")
            comparator, sentinel = SORT_VARIANTS[key.variant]
        t = key.length()
        size = 1 << (t - 1).bit_length()
        # working copies: the network scatters in place
        parts = {k: np.array(v, copy=True) for k, v in key.parts.items()}
        payload = None if key.payload is None else np.array(key.payload, copy=True)
        if size != t:
            pads = sentinel(sess)
            for name in parts:
                pad_val = const_share(sess, pads[name])
                pad = np.broadcast_to(pad_val, (size - t,) + parts[name].shape[1:]).copy()
                parts[name] = np.concatenate([parts[name], pad], axis=0)
            if payload is not None:
                pad_val = const_share(sess, from_signed(-1))
                pad = np.broadcast_to(pad_val, (size - t,) + payload.shape[1:]).copy()
                payload = np.concatenate([payload, pad], axis=0)

        names = sorted(parts)
        k = 2
        while k <= size:
            j = k // 2
            while j >= 1:
                hi_idx, lo_idx, desc = _bitonic_stage(size, k, j)
                b = comparator(
                    sess,
                    {n: parts[n][hi_idx] for n in names},
                    {n: parts[n][lo_idx] for n in names},
                )
                sess.meter.invoke("comparator", len(hi_idx))
                sess.meter.invoke("sec_sel", len(hi_idx))
                # positions sorting ascending flip the comparator bit locally
                sign = np.where(desc, 1, -1)
                s = np.multiply(b, from_signed(sign))
                if sess.party == 0:
                    s = np.add(s, from_signed(np.where(desc, 0, 1)))
                cols = [parts[n][hi_idx].copy() for n in names]
                lows = [parts[n][lo_idx].copy() for n in names]
                if payload is not None:
                    cols.append(payload[hi_idx].copy())
                    lows.append(payload[lo_idx].copy())
                diffs = [np.subtract(c, lo) for c, lo in zip(cols, lows)]
                flat_diffs = np.concatenate([d.reshape(len(hi_idx), -1) for d in diffs], axis=1)
                picked = _beaver_mul(sess, s[:, None], flat_diffs, truncate=False)
                picked = np.add(picked, sess.draw_zero(flat_diffs.shape))
                pos = 0
                for idx, name in enumerate(names + (["__payload__"] if payload is not None else [])):
                    width = cols[idx].reshape(len(hi_idx), -1).shape[1]
                    chunk = picked[:, pos : pos + width].reshape(cols[idx].shape)
                    pos += width
                    new_hi = np.add(lows[idx], chunk)
                    new_lo = np.subtract(np.add(cols[idx], lows[idx]), new_hi)
                    if name == "__payload__":
                        payload[hi_idx] = new_hi
                        payload[lo_idx] = new_lo
                    else:
                        parts[name][hi_idx] = new_hi
                        parts[name][lo_idx] = new_lo
                j //= 2
            k *= 2
        return ComparisonKey(key.variant, parts, payload)


def _bitonic_stage(size: int, k: int, j: int):
    """Disjoint compare-exchange pairs for one (k, j) stage."""
    i = np.arange(size)
    l = i ^ j
    take = l > i
    hi = i[take]
    lo = l[take]
    desc = (hi & k) == 0  # these blocks keep the larger item on top
    return hi, lo, desc


# -- division ------------------------------------------------------------------


def sec_div(sess: Session, u, v) -> np.ndarray:
    """Fixed-point quotient round toward zero of (u << p) / v.

    Sign-magnitude long division on XOR-shared bits; exact given v != 0
    and a representable quotient. The circuit produces garbage on v = 0,
    so callers guard the domain at the plaintext level.
    """
    with sess.op("sec_div"):
        u, v = _broadcast(u, v)
        sess.meter.invoke("sec_div", int(u.size))
        p = sess.codec.precision_p

        bits_u = _a2b(sess, u)
        bits_v = _a2b(sess, v)
        s_u = bits_u >> 63
        s_v = bits_v >> 63
        au = _cond_negate(sess, bits_u, s_u)
        av = _cond_negate(sess, bits_v, s_v)

        # dividend = |u| << p, safe because |u| * 2^p < 2^63
        dividend = au << p
        neg_av = _bool_not(sess, av)
        remainder = np.zeros_like(au)
        quot = np.zeros_like(au)
        for i in range(div_iterations(sess.codec) - 1, -1, -1):
            shifted = (remainder << ONE) | ((dividend >> i) & ONE)
            diff, carry = _adder(sess, shifted, neg_av, cin_public=1)
            swap = _bit_and(sess, np.negative(carry), diff ^ shifted)
            remainder = shifted ^ swap
            quot |= carry << i
        signed_q = _cond_negate(sess, quot, s_u ^ s_v)
        return _b2a_word(sess, signed_q)


# -- random invertible draws and masked inversion --------------------------------


def sec_ran_gen_inv(sess: Session, shape=(), *, tries: int = 16, cond_bound: float = 1e8):
    """Shared random value accepted only if provably invertible.

    Scalar mode draws full-ring values and rejects on a zero revealed
    product. Matrix mode draws encode-grid entries and rejects when the
    revealed masked product is ill conditioned.
    """
    with sess.op("sec_ran_gen_inv"):
        sess.meter.invoke("sec_ran_gen_inv")
        matrix = len(shape) == 2
        for _ in range(tries):
            if matrix:
                u = sess.draw_inv_mask(shape[0])
                w = sess.draw_inv_mask(shape[0])
                prod = _beaver_mul(sess, u, w, matmul=True, truncate=False)
                revealed = _open(sess, prod)
                dec = sess.codec.decode_at(revealed, 2 * sess.codec.precision_p)
                if np.isfinite(np.linalg.cond(dec)) and np.linalg.cond(dec) < cond_bound:
                    return u
            else:
                u = sess.rng.integers(0, 2**64, size=shape, dtype=np.uint64)
                w = sess.rng.integers(0, 2**64, size=shape, dtype=np.uint64)
                prod = _beaver_mul(sess, u, w, truncate=False)
                revealed = _open(sess, prod)
                if np.all(np.asarray(revealed) != 0):
                    return u
        raise SingularRevealError(f"no invertible draw in {tries} tries")


def _invert_longdouble(n: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse at extended precision, partial pivoting."""
    m = n.shape[0]
    a = n.astype(np.longdouble).copy()
    inv = np.eye(m, dtype=np.longdouble)
    for col in range(m):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0:
            raise SingularRevealError("masked matrix is singular")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            inv[[col, piv]] = inv[[piv, col]]
        scale = a[col, col]
        a[col] /= scale
        inv[col] /= scale
        for row in range(m):
            if row != col:
                f = a[row, col]
                if f != 0:
                    a[row] -= f * a[col]
                    inv[row] -= f * inv[col]
    return inv


def sec_mi(sess: Session, x, *, tries: int = 8, cond_bound: float = 1e8) -> np.ndarray:
    """Masked inverse: reveal N = X*R, invert in the clear, return R * N^-1.

    The mask comes from the dealer with entries on [-1, 1); the clear-side
    inverse is computed at extended precision and re-encoded at 2p so the
    final public product only needs one truncation. Scalars are the 1x1
    case (the reciprocal used for curvature scalars).
    """
    with sess.op("sec_mi"):
        sess.meter.invoke("sec_mi")
        codec = sess.codec
        arr = np.asarray(x)
        scalar = arr.ndim == 0
        lanes = arr.ndim == 1
        if scalar:
            arr = arr.reshape(1)
        if arr.ndim == 1:
            m = 1
            mat = arr.reshape(-1, 1, 1)
        else:
            if arr.shape[-1] != arr.shape[-2]:
                raise ShapeError(f"sec_mi needs a square matrix, got {arr.shape}")
            m = arr.shape[-1]
            mat = arr.reshape((-1,) + arr.shape[-2:]) if arr.ndim > 2 else arr[None]

        two_p = 2 * codec.precision_p
        out = None
        for _ in range(tries):
            masks = np.stack([sess.draw_inv_mask(m) for _ in range(mat.shape[0])])
            prod = _beaver_mul(sess, mat, masks, matmul=True, truncate=False)
            revealed = _open(sess, prod)
            dec = codec.decode_at(revealed, two_p)
            ok = True
            for b in range(dec.shape[0]):
                cond = np.linalg.cond(dec[b]) if m > 1 else (np.inf if dec[b, 0, 0] == 0 else 1.0)
                if not np.isfinite(cond) or cond > cond_bound:
                    ok = False
                    break
            if not ok:
                continue
            inv_pub = np.stack([_invert_longdouble(dec[b]) for b in range(dec.shape[0])])
            res = np.matmul(masks, _encode_at(inv_pub, two_p))
            # one shift by 2p rather than two by p: a single rounding event
            out = sess.truncate(res, bits=two_p)
            break
        if out is None:
            raise SingularRevealError(f"masked product stayed singular after {tries} draws")
        if scalar:
            return out[0, 0, 0]
        if lanes:
            return out[:, 0, 0]
        return out.reshape(np.asarray(x).shape)


def _encode_at(values: np.ndarray, scale_bits: int) -> np.ndarray:
    vals = np.asarray(values, dtype=np.longdouble) * np.longdouble(2.0) ** scale_bits
    limit = np.longdouble(2.0) ** 63
    if np.any(np.abs(vals) >= limit):
        raise RangeError("value too large to re-encode at the extended scale")
    mag = np.floor(np.abs(vals) + 0.5)
    signed = np.where(vals < 0, -mag, mag)
    # int() on an integer-valued longdouble is exact; float64 casts are not
    flat = [int(v) % 2**64 for v in signed.reshape(-1)]
    return np.array(flat, dtype=np.uint64).reshape(signed.shape)
