"""Secure round selection.

Rank the training history by the target client's cosine similarity to the
global model update and pick the top T' rounds. Two equivalent orderings:

  Method 1 keeps the score as a (numerator, denominator) pair and lets the
  sort comparator cross-multiply, so no secure division ever runs.
  Method 2 divides once per round up front and sorts plain quotients.

Method 1 sends fewer bytes until T crosses switching_threshold; the auto
path picks accordingly. The alternate entry point works without the
precomputed gradient norms by ranking sign-adjusted squared ratios, which
is an order-preserving transform of the cosine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateRoundError
from .fixedpoint import WORD_BITS, from_signed, to_signed
from .gates import (
    ComparisonKey,
    _beaver_mul,
    _ge_core,
    add_public,
    const_share,
    mul_public,
    sec_div,
    sec_ge,
    sec_mul,
    sec_sp,
    sec_srt,
    sp_public,
)
from .sharing import Session, sec_rec

KAPPA = 128  # statistical security parameter of the method-switching formula


def switching_threshold(ell_q: int, kappa: int) -> int:
    """Largest T for which the cross-multiplication method is cheaper."""
    if ell_q <= 0 or kappa < 0:
        raise ConfigError("ell_q must be positive and kappa nonnegative")
    exponent = (math.sqrt(1 + 40 * ell_q + 4 * (kappa + 1)) - 1) / 2
    return math.floor(2.0 ** exponent)


@dataclass
class SelectionParams:
    t: int
    sigma: float
    t_prime: int | None = None
    t_delta: int | None = None

    def __post_init__(self):
        if not (0.0 < self.sigma <= 1.0):
            raise ConfigError(f"sigma must be in (0, 1], got {self.sigma}")
        if self.t < 1:
            raise ConfigError("need at least one round of history")
        if self.t_prime is None:
            self.t_prime = math.ceil(self.sigma * self.t)
        if not (1 <= self.t_prime <= self.t):
            raise ConfigError(f"t_prime {self.t_prime} outside [1, {self.t}]")
        if self.t_delta is None:
            self.t_delta = switching_threshold(WORD_BITS, KAPPA)


@dataclass
class SelectionInputs:
    """Per-round material for one target client, leading axis = round.

    target_grads and target_norms are this party's raw shares; deltas are
    the public global model updates M_i - M_{i-1}. norms may be None for
    the no-precomputation variant.
    """

    target_grads: np.ndarray
    deltas: np.ndarray
    target_norms: np.ndarray | None = None


@dataclass
class SelectionResult:
    indices: np.ndarray        # round indices, best similarity first
    method: int
    kept: np.ndarray           # rounds that survived the zero-norm filter

    def chronological(self) -> np.ndarray:
        return np.sort(self.indices)


# -- sign-aware comparators ----------------------------------------------------
#
# Plaintext rule for f = [item1 >= item2] on signed scores s_i = w_i * sqrt(b_i)
# (w in {0,1} encodes sign, b >= 0 the squared magnitude):
#   signs differ       -> the positive one wins
#   both positive      -> compare b
#   both negative      -> larger b loses
# With z = [b1 >= b2] all four cases collapse to f = 1 - w2 + z*(w1 + w2 - 1).


def _sign_aware_combine(sess: Session, w1, w2, z) -> np.ndarray:
    s = add_public(sess, np.add(w1, w2), from_signed(-1))  # w1 + w2 - 1
    zs = _beaver_mul(sess, z, s, truncate=False)
    return add_public(sess, np.subtract(zs, w2), 1)


def sec_ge3(sess: Session, w1, b1, w2, b2) -> np.ndarray:
    """Compare sign/ratio pairs; inputs share w in {0,1} and b = a/v >= 0."""
    with sess.op("sec_ge3"):
        sess.meter.invoke("sec_ge3", int(np.asarray(w1).size))
        return _comparator_ge3(sess, {"w": w1, "b": b1}, {"w": w2, "b": b2})


def sec_ge4(sess: Session, w1, a1, v1, w2, a2, v2) -> np.ndarray:
    """Same order as sec_ge3 with the ratios held as (a, v), v > 0."""
    with sess.op("sec_ge4"):
        sess.meter.invoke("sec_ge4", int(np.asarray(w1).size))
        return _comparator_ge4(sess, {"w": w1, "a": a1, "v": v1}, {"w": w2, "a": a2, "v": v2})


def _comparator_ge3(sess: Session, x: dict, y: dict) -> np.ndarray:
    z = _ge_core(sess, x["b"], y["b"])
    return _sign_aware_combine(sess, x["w"], y["w"], z)


def _sentinel_ge3(sess: Session) -> dict:
    codec = sess.codec
    # negative sign with a ratio above any representable real one
    big = 1 << (codec.precision_p + codec.range_e)
    return {"w": 0, "b": big}


def _comparator_ge4(sess: Session, x: dict, y: dict) -> np.ndarray:
    cross = _beaver_mul(
        sess, np.stack([x["a"], y["a"]]), np.stack([y["v"], x["v"]]), truncate=False
    )
    z = _ge_core(sess, cross[0], cross[1])
    return _sign_aware_combine(sess, x["w"], y["w"], z)


def _sentinel_ge4(sess: Session) -> dict:
    codec = sess.codec
    # a/v maximal at v = one raw unit; a*v stays far below the ring modulus
    big = 1 << (2 * codec.precision_p + codec.range_e)
    return {"w": 0, "a": big, "v": 1}


# -- selection pipeline --------------------------------------------------------


def _public_delta_norms(deltas: np.ndarray, codec) -> np.ndarray:
    norms = np.linalg.norm(np.asarray(deltas, dtype=np.float64), axis=-1)
    if np.any(codec.encode(norms) == 0):
        raise DegenerateRoundError("a global update has (near-)zero norm")
    return norms


def _keep_nonzero(sess: Session, magnitudes, cut: int = 1) -> np.ndarray:
    """Reveal [magnitude >= cut raw units] flags and return kept round indices."""
    flags = sec_ge(sess, magnitudes, const_share(sess, cut))
    revealed = to_signed(sec_rec(sess, flags))
    return np.flatnonzero(revealed == 1)


def _index_payload(sess: Session, indices: np.ndarray) -> np.ndarray:
    return const_share(sess, from_signed(indices))


def _reveal_selection(sess: Session, payload: np.ndarray, count: int) -> np.ndarray:
    raw = sec_rec(sess, payload[:count])
    out = to_signed(raw).astype(np.int64)
    # -1 marks a padding slot; it can only outrank a real item when truncation
    # noise zeroed that item's denominator, and such rounds carry no signal
    return out[out >= 0]


def sec_rs(
    sess: Session,
    inputs: SelectionInputs,
    params: SelectionParams,
    method: int | None = None,
) -> SelectionResult:
    """Select the T' most cosine-similar rounds for the target client.

    Zero-gradient rounds are filtered out through revealed flags before the
    oblivious part; they carry no signal worth unlearning. If fewer than T'
    rounds survive, all survivors are returned.
    """
    with sess.op("sec_rs"):
        sess.meter.invoke("sec_rs")
        if inputs.target_norms is None:
            raise ConfigError("sec_rs needs precomputed norms; use sec_rs_alt")
        if method is None:
            method = 1 if params.t <= params.t_delta else 2
        codec = sess.codec
        delta_norms = _public_delta_norms(inputs.deltas, codec)

        kept = _keep_nonzero(sess, inputs.target_norms)
        if kept.size == 0:
            return SelectionResult(indices=np.empty(0, np.int64), method=method, kept=kept)
        grads = inputs.target_grads[kept]
        norms = inputs.target_norms[kept]
        deltas = inputs.deltas[kept]

        u = sp_public(sess, grads, codec.encode(deltas))
        v = mul_public(sess, norms, codec.encode(delta_norms[kept]))
        payload = _index_payload(sess, kept)

        if method == 1:
            key = ComparisonKey(variant="pair", parts={"u": u, "v": v}, payload=payload)
            sorted_key = sec_srt(sess, key)
        else:
            tau = sec_div(sess, u, v)
            key = ComparisonKey(variant="plain", parts={"v": tau}, payload=payload)
            sorted_key = sec_srt(sess, key)

        count = min(params.t_prime, kept.size)
        indices = _reveal_selection(sess, sorted_key.payload, count)
        return SelectionResult(indices=indices, method=method, kept=kept)


def sec_rs_alt(
    sess: Session,
    inputs: SelectionInputs,
    params: SelectionParams,
    method: int | None = None,
) -> SelectionResult:
    """Round selection without precomputed norms.

    Scores rounds by sign(u) * u^2 / (<g,g>*|dM|^2), the squared-cosine
    order, so the selected set matches sec_rs on tie-free inputs.
    """
    with sess.op("sec_rs_alt"):
        sess.meter.invoke("sec_rs_alt")
        if method is None:
            method = 1 if params.t <= params.t_delta else 2
        codec = sess.codec
        delta_norms = _public_delta_norms(inputs.deltas, codec)

        gg = sec_sp(sess, inputs.target_grads, inputs.target_grads)
        # truncation can leave +-1 raw on an exact zero, so cut at 2 units
        kept = _keep_nonzero(sess, gg, cut=2)
        if kept.size == 0:
            return SelectionResult(indices=np.empty(0, np.int64), method=method, kept=kept)
        grads = inputs.target_grads[kept]
        deltas = inputs.deltas[kept]

        u = sp_public(sess, grads, codec.encode(deltas))
        v = mul_public(sess, gg[kept], codec.encode(delta_norms[kept] ** 2))
        w = sec_ge(sess, u, const_share(sess, 0))
        a = sec_mul(sess, u, u)
        payload = _index_payload(sess, kept)

        if method == 1:
            key = ComparisonKey(variant="ge4", parts={"w": w, "a": a, "v": v}, payload=payload)
            sorted_key = sec_srt(sess, key, comparator=_comparator_ge4, sentinel=_sentinel_ge4)
        else:
            b = sec_div(sess, a, v)
            key = ComparisonKey(variant="ge3", parts={"w": w, "b": b}, payload=payload)
            sorted_key = sec_srt(sess, key, comparator=_comparator_ge3, sentinel=_sentinel_ge3)

        count = min(params.t_prime, kept.size)
        indices = _reveal_selection(sess, sorted_key.payload, count)
        return SelectionResult(indices=indices, method=method, kept=kept)
