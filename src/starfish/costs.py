"""Closed-form online cost predictions for every functionality.

Each formula mirrors the implemented circuit exchange by exchange, so the
audit can demand exact equality between prediction and meter. The moving
parts are the frame overhead (16 bytes), the 64-bit ring word
(fixedpoint.WORD_BITS), the packed-bit payload rule (whole 64-bit words) and
the six carry levels over a 64-bit word. Every Beaver product, elementwise
or matmul, ships its two masked operands at their own shapes (mul_cost).
Comparisons (ge_cost) are priced as the carry-only sign circuit, whose
levels shrink by half each time. Division (div_cost) is built on that
comparison and Beaver products, one of each per quotient bit. Only division
depends on the codec (its quotient bit count), so only the formulas that
reach sec_div take one.

Round selection ranks the kept rounds by pairwise wins (sec_rank, constant
rounds, T(T-1)/2 comparators) rather than running the top-T' network over
them (sec_srt, priced layer by layer from topk_layers) wherever ranks()
says that ships no more online bytes, each path counted with its own
reveal: T flags after ranking, T' indices after the network. The rule reads
only public sizes, so both parties and these formulas take the same path.
The comparator is priced by the width of its keys: 1 for values, 2 for
(u, v) fractions, which cross multiply first. RS_KEY_WIDTH gives the key
width of each selection method.

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
    """Quotient bit count of sec_div: a representable quotient is below 2^(p + e - 1) raw."""
    return codec.precision_p + codec.range_e - 1


# -- circuit building blocks (one entry per exchange kind) -------------------


def words_round(nwords: int) -> CostEstimate:
    return CostEstimate(1, FRAME_OVERHEAD + WORD_BYTES * nwords)


def and_round(nbits: int) -> CostEstimate:
    # an AND layer ships the two masked operands together
    return CostEstimate(1, FRAME_OVERHEAD + bit_payload_bytes(2 * nbits))


def b2a_bits_cost(nbits: int) -> CostEstimate:
    return CostEstimate(1, FRAME_OVERHEAD + bit_payload_bytes(nbits))


def ge_cost(lanes: int) -> CostEstimate:
    """Sign-only comparison: the generate layer, the six carry-only levels of
    a 64-bit word (level k ships its g and p ANDs for 2^k lanes per word;
    the last level only its g AND), and the B2A of the sign bits."""
    levels = ks_level_count(WORD_BITS)
    total = and_round(lanes * WORD_BITS)
    for k in range(1, levels + 1):
        total += and_round((1 if k == levels else 2) * WORD_BITS * -(-lanes >> k))
    return total + b2a_bits_cost(lanes)


def mul_cost(x_lanes: int, y_lanes: int) -> CostEstimate:
    """A Beaver product, elementwise or matmul: both masked operands, one round."""
    return words_round(x_lanes + y_lanes)


def comparator_cost(width: int, lanes: int) -> CostEstimate:
    """gates.comparator on lanes rows of width-column keys."""
    cross = mul_cost(2 * lanes, 2 * lanes) if width == 2 else ZERO
    return cross + ge_cost(lanes)


def padded_size(t: int) -> int:
    return 1 << max(t - 1, 0).bit_length()


def topk_layers(t: int, count: int) -> list[tuple[int, int]]:
    """The (k, j) layers of sec_srt's top-count network, in order.

    With N = padded_size(t) and K = padded_size(count) capped at N: the
    bitonic stages (k, j) for k = 2..K and j = k/2..1, then per merge level
    a half-cleaner, marked j = 0, that keeps one row of each pair, and the
    log2 K stages (K, j) over the rows it keeps. At K = N this is the full
    bitonic sort. Every layer compares half of its rows.
    """
    size = padded_size(t)
    block = min(padded_size(count), size)

    def merge(k):
        return [(k, k >> i) for i in range(1, k.bit_length())]

    layers = [layer for i in range(1, block.bit_length()) for layer in merge(1 << i)]
    while size > block:
        size //= 2
        layers += [(block, 0)] + merge(block)
    return layers


def _layer_pairs(t: int, count: int) -> list[int]:
    """Pairs compared by each topk_layers layer: half the rows, which each
    half-cleaner halves."""
    rows = padded_size(t)
    pairs = []
    for _, j in topk_layers(t, count):
        pairs.append(rows // 2)
        if j == 0:
            rows //= 2
    return pairs


def comparator_calls(t: int, count: int) -> int:
    """Comparator calls of sec_srt; (l^2 + l)/4 * T at count >= T = 2^l."""
    return sum(_layer_pairs(t, count))


def sort_cost(t: int, item_words: int, width: int, count: int) -> CostEstimate:
    """sec_srt: per layer one comparator and one select of whole rows by a bit column."""
    total = ZERO
    for pairs in _layer_pairs(t, count):
        total += comparator_cost(width, pairs) + mul_cost(pairs, pairs * item_words)
    return total


def rank_cost(t: int, width: int) -> CostEstimate:
    """sec_rank: one comparator layer over the T(T-1)/2 pairs, one [rank < count]."""
    return comparator_cost(width, t * (t - 1) // 2) + ge_cost(t)


def ranks(kept: int, t_prime: int, width: int) -> bool:
    """Whether selecting t_prime of kept items ranks them rather than running
    the top-t_prime network.

    Ranking reveals kept membership flags; the network over rows of the key
    plus a round index reveals t_prime indices. A tie in bytes goes to
    ranking.
    """
    rank = rank_cost(kept, width) + words_round(kept)
    sort = sort_cost(kept, width + 1, width, t_prime) + words_round(t_prime)
    return rank.online_bytes <= sort.online_bytes


def select_cost(kept: int, t_prime: int, width: int) -> CostEstimate:
    """Rank kept > t_prime scored items or run the top-t_prime network over
    them, and reveal the selection."""
    if ranks(kept, t_prime, width):
        return rank_cost(kept, width) + words_round(kept)
    return sort_cost(kept, width + 1, width, t_prime) + words_round(t_prime)


# prices sec_max, which only the audit and perfbench's threshold_determination read
def max_cost(t: int, batch: int) -> CostEstimate:
    size = padded_size(t)
    total = ZERO
    while size > 1:
        half = size // 2
        total += ge_cost(batch * half) + mul_cost(batch * half, batch * half)
        size = half
    return total


def div_cost(lanes: int, codec: FixedPointCodec) -> CostEstimate:
    """Signs, magnitudes, one comparison and one product per quotient bit, the sign."""
    step = ge_cost(lanes) + mul_cost(lanes, lanes)
    return (ge_cost(2 * lanes) + mul_cost(3 * lanes, 3 * lanes) + step * div_iterations(codec)
            + mul_cost(lanes, lanes))


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
        total += mul_cost(clients, clients) + ge_cost(clients) + words_round(clients)
        total += mi_cost(1, clients)
        total += mul_cost(clients, clients * m)
        total += mul_cost(clients * m * m, clients * m * m) * 2
        total += mul_cost(clients * m, clients * m)
    if pairs > 0:
        total += mul_cost(clients * m * m, clients * m)
    total += words_round(m)
    return total


def tc_cost(clients: int, m: int) -> CostEstimate:
    total = mul_cost(clients * m, clients * m)  # gradient squares
    total += mul_cost(clients, clients)         # threshold squares
    total += ge_cost(clients * m)     # coordinate exceed bits
    total += ge_cost(clients)         # count >= 1
    total += words_round(clients)     # reveal flags
    return total


# key width of each selection method: (u, v) fractions / quotients
RS_KEY_WIDTH = {1: 2, 2: 1}


def rs_cost(t: int, t_prime: int, method: int, codec: FixedPointCodec, kept: int | None = None) -> CostEstimate:
    """Round selection with no zero-norm exclusions unless kept is given.

    When no more than t_prime rounds are kept they are all selected, and
    nothing past the revealed zero-norm flags runs.
    """
    kept = t if kept is None else kept
    total = ge_cost(t) + words_round(t)          # zero-norm flags, revealed
    if kept <= t_prime:
        return total
    if method == 2:
        total += div_cost(kept, codec)
    return total + select_cost(kept, t_prime, RS_KEY_WIDTH[method])


def predict_cost(functionality: str, shape, codec: FixedPointCodec) -> CostEstimate:
    """Predicted (rounds, online bytes) one party sends for one invocation.

    Shape argument by functionality:
      sec_add/sec_share: ignored
      sec_rec/sec_ge/sec_div: lane shape tuple
      sec_mul/sec_sel: lane shape tuple of both operands, or for sec_mul a
        dict {"matmul": (sx, sy)}
      sec_sp: shape tuple (..., k)
      sec_max: shape tuple (..., T), max over the last axis
      sec_srt: dict {"t", "item_words", "width", "count"}: the top count of T
        rows of item_words words, ordered by their first width (1 or 2) columns
      sec_rank: dict {"t", "width"}
      sec_mi: dict {"m", "batch"} (single accepted attempt)
      threshold_determination: dict {"clients", "t"}: a sec_max over T per
        client, priced but not run (stage I shares each client's max)
      sec_ue: dict {"clients", "m", "pairs"}
      sec_tc: dict {"clients", "m"}
      sec_rs: dict {"t", "t_prime", "method", "kept"?}
    """
    name = functionality
    if name in ("sec_add", "sec_share"):
        return ZERO
    if name == "sec_rec":
        return words_round(_lanes(shape))
    if name in ("sec_mul", "sec_sel"):
        sx, sy = shape["matmul"] if isinstance(shape, dict) else (shape, shape)
        return mul_cost(_lanes(sx), _lanes(sy))
    if name == "sec_sp":
        lanes = _lanes(shape[:-1])
        return words_round(2 * lanes * shape[-1])
    if name == "sec_ge":
        return ge_cost(_lanes(shape))
    if name == "sec_max":
        return max_cost(shape[-1], _lanes(shape[:-1]))
    if name == "sec_srt":
        return sort_cost(shape["t"], shape["item_words"], shape["width"], shape["count"])
    if name == "sec_rank":
        return rank_cost(shape["t"], shape["width"])
    if name == "sec_div":
        return div_cost(_lanes(shape), codec)
    if name == "sec_mi":
        return mi_cost(shape["m"], shape.get("batch", 1))
    # no protocol phase runs this; perfbench/run.py prices it for every request
    if name == "threshold_determination":
        return max_cost(shape["t"], shape["clients"])
    if name == "sec_ue":
        return ue_cost(shape["clients"], shape["m"], shape["pairs"])
    if name == "sec_tc":
        return tc_cost(shape["clients"], shape["m"])
    if name == "sec_rs":
        return rs_cost(shape["t"], shape["t_prime"], shape["method"], codec, shape.get("kept"))
    raise UnknownFunctionality(f"no cost model for {functionality!r}")
