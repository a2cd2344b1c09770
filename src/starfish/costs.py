"""Closed-form online cost predictions for every functionality.

Each formula mirrors the implemented circuit exchange by exchange, so the
audit can demand exact equality between prediction and meter. The moving
parts are the frame overhead (16 bytes), the 64-bit ring word
(fixedpoint.WORD_BITS), the packed-bit payload rule (whole 64-bit words) and
the Kogge-Stone level count. Only division depends on the codec (its quotient
bit count), so only the formulas that reach sec_div take one.

Shape conventions per functionality are documented in predict_cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import UnknownFunctionality
from .fixedpoint import WORD_BITS, WORD_BYTES, FixedPointCodec
from .transport import FRAME_OVERHEAD, bit_payload_bytes


@dataclass(frozen=True)
class CostEstimate:
    rounds: int
    online_bytes: int

    def __add__(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(self.rounds + other.rounds, self.online_bytes + other.online_bytes)

    def __mul__(self, k: int) -> "CostEstimate":
        return CostEstimate(self.rounds * k, self.online_bytes * k)

    def as_tuple(self) -> tuple[int, int]:
        return (self.rounds, self.online_bytes)


ZERO = CostEstimate(0, 0)


def _lanes(shape) -> int:
    return prod(shape) if shape else 1


def ks_level_count(width: int) -> int:
    n, s = 0, 1
    while s < width:
        n += 1
        s <<= 1
    return n


def div_iterations(codec: FixedPointCodec) -> int:
    """Quotient bit count of sec_div: dividends are bounded by 2^(2p + e - 1)."""
    return 2 * codec.precision_p + codec.range_e - 1


# -- circuit building blocks (one entry per exchange kind) -------------------


def words_round(nwords: int) -> CostEstimate:
    return CostEstimate(1, FRAME_OVERHEAD + WORD_BYTES * nwords)


def and_round(nbits: int) -> CostEstimate:
    # an AND layer ships the two masked operands together
    return CostEstimate(1, FRAME_OVERHEAD + bit_payload_bytes(2 * nbits))


def adder_cost(lanes: int, *, with_operand: bool, shared_cin: bool) -> CostEstimate:
    total = ZERO
    if with_operand:
        total += and_round(lanes * WORD_BITS)
    if shared_cin:
        total += and_round(lanes)
    for _ in range(ks_level_count(WORD_BITS)):
        total += and_round(2 * lanes * WORD_BITS)
    return total


def a2b_cost(lanes: int) -> CostEstimate:
    return adder_cost(lanes, with_operand=True, shared_cin=False)


def b2a_bits_cost(nbits: int) -> CostEstimate:
    return CostEstimate(1, FRAME_OVERHEAD + bit_payload_bytes(nbits))


def ge_cost(lanes: int) -> CostEstimate:
    return a2b_cost(lanes) + b2a_bits_cost(lanes)


def mul_cost(broadcast_lanes: int) -> CostEstimate:
    return words_round(2 * broadcast_lanes)


def matmul_cost(shape_x, shape_y) -> CostEstimate:
    return words_round(_lanes(shape_x) + _lanes(shape_y))


def comparator_cost(kind: str, lanes: int) -> CostEstimate:
    """Per-stage comparator circuits used inside the sort."""
    if kind == "plain":
        return ge_cost(lanes)
    if kind == "pair":
        return mul_cost(2 * lanes) + ge_cost(lanes)
    if kind == "ge3":
        return ge_cost(lanes) + mul_cost(lanes)
    if kind == "ge4":
        return mul_cost(2 * lanes) + ge_cost(lanes) + mul_cost(lanes)
    raise UnknownFunctionality(f"comparator kind {kind!r}")


def padded_size(t: int) -> int:
    return 1 << max(t - 1, 0).bit_length()


def bitonic_stages(size: int) -> int:
    ell = padded_size(size).bit_length() - 1
    return ell * (ell + 1) // 2


def comparator_calls(t: int) -> int:
    """(l^2 + l)/4 * T for padded length T = 2^l."""
    size = padded_size(t)
    ell = size.bit_length() - 1
    return (ell * ell + ell) * size // 4


def sort_cost(t: int, item_words: int, kind: str) -> CostEstimate:
    size = padded_size(t)
    pairs = size // 2
    per_stage = comparator_cost(kind, pairs) + mul_cost(pairs * item_words)
    return per_stage * bitonic_stages(size)


def max_cost(t: int, batch: int) -> CostEstimate:
    size = padded_size(t)
    total = ZERO
    while size > 1:
        half = size // 2
        total += ge_cost(batch * half) + mul_cost(batch * half)
        size = half
    return total


def div_cost(lanes: int, codec: FixedPointCodec) -> CostEstimate:
    full = adder_cost(lanes, with_operand=True, shared_cin=False)
    neg = adder_cost(lanes, with_operand=False, shared_cin=True)
    total = full * 2 + neg * 2
    total += (full + and_round(lanes * WORD_BITS)) * div_iterations(codec)
    total += neg
    total += b2a_bits_cost(lanes * WORD_BITS)
    return total


def mi_cost(m: int, batch: int) -> CostEstimate:
    n = batch * m * m
    return words_round(2 * n) + words_round(n)


# -- composite protocol phases ------------------------------------------------


def ue_cost(clients: int, m: int, pairs: int) -> CostEstimate:
    """One secure update estimation round, all curvature lanes live.

    Per buffered pair: the revealed zero screen on u, scalar reciprocal
    (2 rounds), rho*dG, two Hessian matmuls, the rank-one term; then H @ G
    per client and one aggregate reveal. The identity fast path (pairs=0)
    is just the reveal.
    """
    total = ZERO
    for _ in range(pairs):
        total += mul_cost(clients) + ge_cost(clients) + words_round(clients)
        total += mi_cost(1, clients)
        total += mul_cost(clients * m)
        total += matmul_cost((clients, m, m), (clients, m, m)) * 2
        total += matmul_cost((clients, m, 1), (clients, 1, m))
    if pairs > 0:
        total += matmul_cost((clients, m, m), (clients, m, 1))
    total += words_round(m)
    return total


def tc_cost(clients: int, m: int) -> CostEstimate:
    total = mul_cost(clients * m)     # gradient squares
    total += mul_cost(clients)        # threshold squares
    total += ge_cost(clients * m)     # coordinate exceed bits
    total += ge_cost(clients)         # count >= 1
    total += words_round(clients)     # reveal flags
    return total


def rs_cost(t: int, t_prime: int, method: int, codec: FixedPointCodec, kept: int | None = None) -> CostEstimate:
    """Round selection with no zero-norm exclusions unless kept is given."""
    kept = t if kept is None else kept
    total = ge_cost(t) + words_round(t)          # zero-norm flags, revealed
    if method == 1:
        total += sort_cost(kept, 3, "pair")     # u, v, payload
    else:
        total += div_cost(kept, codec)
        total += sort_cost(kept, 2, "plain")    # tau, payload
    total += words_round(min(t_prime, kept))    # reveal selected indices
    return total


def rs_alt_cost(t: int, t_prime: int, method: int, m: int, codec: FixedPointCodec, kept: int | None = None) -> CostEstimate:
    kept = t if kept is None else kept
    total = words_round(2 * t * m)              # <g,g>, no precomputed norms
    total += ge_cost(t) + words_round(t)        # zero-norm flags, revealed
    total += ge_cost(kept)                      # w = [u >= 0]
    total += mul_cost(kept)                     # a = u^2
    if method == 1:
        total += sort_cost(kept, 4, "ge4")      # w, a, v, payload
    else:
        total += div_cost(kept, codec)
        total += sort_cost(kept, 3, "ge3")      # w, b, payload
    total += words_round(min(t_prime, kept))
    return total


def predict_cost(functionality: str, shape, codec: FixedPointCodec) -> CostEstimate:
    """Predicted (rounds, online bytes) one party sends for one invocation.

    Shape argument by functionality:
      sec_add/zero_gen/sec_ran_gen: ignored
      sec_rec/sec_ge/sec_ge2/sec_ge3/sec_ge4/sec_div/sec_sel: lane shape tuple
      sec_mul/sec_mul3: lane shape tuple, or dict {"matmul": (sx, sy[, sz])}
      sec_sp: shape tuple (..., k)
      sec_max: shape tuple (..., T), max over the last axis
      sec_srt: dict {"t", "item_words", "comparator"}
      sec_mi: dict {"m", "batch"} (single accepted attempt)
      sec_ran_gen_inv: dict {"m"} (0 = scalar; single attempt)
      threshold_determination: dict {"clients", "t"}
      sec_ue: dict {"clients", "m", "pairs"}
      sec_tc: dict {"clients", "m"}
      sec_rs: dict {"t", "t_prime", "method", "kept"?}
      sec_rs_alt: dict {"t", "t_prime", "method", "m", "kept"?}
    """
    name = functionality
    if name in ("sec_add", "zero_gen", "sec_ran_gen", "sec_share"):
        return ZERO
    if name == "sec_rec":
        return words_round(_lanes(shape))
    if name == "sec_mul":
        if isinstance(shape, dict):
            sx, sy = shape["matmul"]
            return matmul_cost(sx, sy)
        return mul_cost(_lanes(shape))
    if name == "sec_mul3":
        if isinstance(shape, dict):
            sx, sy, sz = shape["matmul"]
            first = matmul_cost(sx, sy)
            mid = (sx[0], sy[1])
            return first + matmul_cost(mid, sz)
        return mul_cost(_lanes(shape)) * 2
    if name == "sec_sp":
        lanes = _lanes(shape[:-1])
        return words_round(2 * lanes * shape[-1])
    if name == "sec_sel":
        return mul_cost(_lanes(shape))
    if name == "sec_ge":
        return ge_cost(_lanes(shape))
    if name == "sec_ge2":
        return mul_cost(2 * _lanes(shape)) + ge_cost(_lanes(shape))
    if name == "sec_ge3":
        return comparator_cost("ge3", _lanes(shape))
    if name == "sec_ge4":
        return comparator_cost("ge4", _lanes(shape))
    if name == "sec_max":
        return max_cost(shape[-1], _lanes(shape[:-1]))
    if name == "sec_srt":
        return sort_cost(shape["t"], shape["item_words"], shape["comparator"])
    if name == "sec_div":
        return div_cost(_lanes(shape), codec)
    if name == "sec_mi":
        return mi_cost(shape["m"], shape.get("batch", 1))
    if name == "sec_ran_gen_inv":
        m = shape["m"]
        if m == 0:
            return mul_cost(1) + words_round(1)
        return mi_cost(m, 1)
    if name == "threshold_determination":
        return max_cost(shape["t"], shape["clients"])
    if name == "sec_ue":
        return ue_cost(shape["clients"], shape["m"], shape["pairs"])
    if name == "sec_tc":
        return tc_cost(shape["clients"], shape["m"])
    if name == "sec_rs":
        return rs_cost(shape["t"], shape["t_prime"], shape["method"], codec, shape.get("kept"))
    if name == "sec_rs_alt":
        return rs_alt_cost(shape["t"], shape["t_prime"], shape["method"], shape["m"], codec, shape.get("kept"))
    raise UnknownFunctionality(f"no cost model for {functionality!r}")
