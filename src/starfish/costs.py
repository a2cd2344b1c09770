"""Closed-form online cost predictions for every functionality.

Each formula mirrors the implemented circuit exchange by exchange, so the
audit can demand exact equality between prediction and meter. The moving
parts are the frame overhead (16 bytes), the 64-bit ring word
(fixedpoint.WORD_BITS) and the packed-bit payload rule (whole 64-bit
words). A Beaver product ships its two masked operands at their own shapes.
The sign circuit (sign_cost) opens the masked difference as a word per
lane, then the masked wires of its two AND levels as packed bits
(SIGN_LEVEL_BITS per lane); a comparison (ge_cost) adds the B2A of its
bits. A bit injection (inject_cost) multiplies the sign bits into rows of
words in one frame: the top-T' network's selects and each quotient bit of
division (div_cost), which pays one sign circuit and one injection per
quotient bit. Only division depends on the codec (its quotient bit count),
so only the formulas that reach sec_div take one. A table lookup (lut_cost)
tests a small integer in two rounds, the masked index as log2(M) packed
bits and one bit reveal.

Round selection ranks the kept rounds by pairwise wins (sec_rank, constant
rounds, T(T-1)/2 comparators) rather than running the top-T' network over
them (sec_srt, priced layer by layer from topk_layers) wherever ranks()
says that ships no more online bytes, each path counted with its own
reveal: T flags from ranking's final lookup, T' indices after the network.
The rule reads only public sizes, so both parties and these formulas take
the same path. The comparator is priced by the width of its keys: 1 for
values, 2 for (u, v) fractions, which cross multiply first. RS_KEY_WIDTH
gives the key width of each selection method.

Shape conventions per functionality are documented in predict_cost. Stage
II's gradient estimate is local and each client updates its own curvature
in the clear, so an estimate round costs only its aggregate reveal. Each
client checks its own estimate in the clear too, so a check costs the
servers nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


def div_iterations(codec: FixedPointCodec) -> int:
    """Quotient bit count of sec_div: a representable quotient is below 2^(p + e - 1) raw."""
    return codec.precision_p + codec.range_e - 1


# -- circuit building blocks (one entry per exchange kind) -------------------


def words_round(nwords: int) -> CostEstimate:
    return CostEstimate(1, FRAME_OVERHEAD + WORD_BYTES * nwords)


def bits_round(nbits: int) -> CostEstimate:
    """One round of nbits packed bits."""
    return CostEstimate(1, FRAME_OVERHEAD + bit_payload_bytes(nbits))


# masked bits per lane each AND level of the sign circuit opens: four digit
# groups (6 wires each, and the lowest digit's [=] for the three upper
# groups' EQ), then the groups (6 wires)
SIGN_LEVEL_BITS = (27, 6)


def sign_cost(lanes: int) -> CostEstimate:
    """The sign circuit: the masked difference opens as words, then two AND
    levels open their masked wires as packed bits."""
    total = words_round(lanes)
    for bits in SIGN_LEVEL_BITS:
        total += bits_round(bits * lanes)
    return total


def ge_cost(lanes: int) -> CostEstimate:
    """sec_ge: the sign circuit and the B2A of its bits."""
    return sign_cost(lanes) + bits_round(lanes)


def inject_cost(lanes: int, words: int) -> CostEstimate:
    """A bit injection into lanes rows of words words: one frame of the masked
    bits, packed, and the masked rows."""
    return words_round(lanes * words + -(-lanes // WORD_BITS))


def lut_cost(lanes: int, size: int) -> CostEstimate:
    """sec_lut into a table of size entries: the masked indices open as
    log2(size) packed bits each, then the looked-up bits."""
    return bits_round(lanes * (size.bit_length() - 1)) + bits_round(lanes)


def comparator_cost(width: int, lanes: int) -> CostEstimate:
    """gates.comparator on lanes rows of width-column keys: at width 2 one
    Beaver round of both cross products opens 2 + 2 masked words per row."""
    cross = words_round(4 * lanes) if width == 2 else ZERO
    return cross + sign_cost(lanes)


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
    """sec_srt: per layer one comparator and one injection of its bits into
    the row differences."""
    total = ZERO
    for pairs in _layer_pairs(t, count):
        total += comparator_cost(width, pairs) + inject_cost(pairs, item_words)
    return total


def rank_cost(t: int, width: int) -> CostEstimate:
    """sec_rank: one comparator layer over the T(T-1)/2 pairs and the B2A of
    its bits, then [rank < count] by one lookup, which reveals the flags."""
    pairs = t * (t - 1) // 2
    return comparator_cost(width, pairs) + bits_round(pairs) + lut_cost(t, padded_size(t))


@lru_cache(maxsize=256)
def ranks(kept: int, t_prime: int, width: int) -> bool:
    """Whether selecting t_prime of kept items ranks them rather than running
    the top-t_prime network.

    Ranking's lookup reveals kept membership flags; the network over rows
    of the key plus a round index reveals t_prime indices. A tie in bytes
    goes to ranking. A pure function of public sizes, cached: every request
    asks it once per party.
    """
    sort = sort_cost(kept, width + 1, width, t_prime) + words_round(t_prime)
    return rank_cost(kept, width).online_bytes <= sort.online_bytes


def select_cost(kept: int, t_prime: int, width: int) -> CostEstimate:
    """Rank kept > t_prime scored items or run the top-t_prime network over
    them, and reveal the selection."""
    if ranks(kept, t_prime, width):
        return rank_cost(kept, width)
    return sort_cost(kept, width + 1, width, t_prime) + words_round(t_prime)


# prices a max tournament over t values per batch lane, which no phase runs:
# perfbench/run.py prices threshold_determination with it for every request.
# Each level compares the pairs and injects each bit into its pair's difference.
def max_cost(t: int, batch: int) -> CostEstimate:
    size = padded_size(t)
    total = ZERO
    while size > 1:
        half = size // 2
        total += sign_cost(batch * half) + inject_cost(batch * half, 1)
        size = half
    return total


def div_cost(lanes: int, codec: FixedPointCodec) -> CostEstimate:
    """The operands' signs and magnitudes, one sign circuit and one injection
    per quotient bit, then the quotient's sign: each a one-word injection."""
    step = sign_cost(lanes) + inject_cost(lanes, 1)
    return sign_cost(2 * lanes) + inject_cost(2 * lanes, 1) + step * div_iterations(codec) + inject_cost(lanes, 1)


# -- composite protocol phases ------------------------------------------------


# key width of each selection method: (u, v) fractions / quotients
RS_KEY_WIDTH = {1: 2, 2: 1}


def rs_cost(t: int, t_prime: int, method: int, codec: FixedPointCodec, kept: int | None = None) -> CostEstimate:
    """Round selection over kept rounds, those whose public update is
    nonzero: all t unless kept is given. Dropping the others is local.

    When no more than t_prime rounds are kept they are all selected, and
    nothing runs.
    """
    kept = t if kept is None else kept
    if kept <= t_prime:
        return ZERO
    total = div_cost(kept, codec) if method == 2 else ZERO
    return total + select_cost(kept, t_prime, RS_KEY_WIDTH[method])


def predict_cost(functionality: str, shape, codec: FixedPointCodec) -> CostEstimate:
    """Predicted (rounds, online bytes) one party sends for one invocation.

    Shape argument by functionality:
      sec_share: ignored
      sec_rec/sec_ge/sec_div: lane shape tuple
      sec_lut: dict {"lanes", "size"}: a lane shape tuple of indices into a
        table of size entries
      sec_srt: dict {"t", "item_words", "width", "count"}: the top count of T
        rows of item_words words, ordered by their first width (1 or 2) columns
      sec_rank: dict {"t", "width"}
      threshold_determination: dict {"clients", "t"}: a max tournament over
        T per client, priced but not run (each client keeps its own max)
      sec_ue: dict {"m", ...}: one estimate and its aggregate reveal
      sec_tc: dict {"clients", "m"}: one check, zero (the clients check)
      sec_rs: dict {"t", "t_prime", "method", "kept"?}
    """
    name = functionality
    if name == "sec_share":
        return ZERO
    if name == "sec_rec":
        return words_round(_lanes(shape))
    if name == "sec_ge":
        return ge_cost(_lanes(shape))
    if name == "sec_lut":
        return lut_cost(_lanes(shape["lanes"]), shape["size"])
    if name == "sec_srt":
        return sort_cost(shape["t"], shape["item_words"], shape["width"], shape["count"])
    if name == "sec_rank":
        return rank_cost(shape["t"], shape["width"])
    if name == "sec_div":
        return div_cost(_lanes(shape), codec)
    # no protocol phase runs this; perfbench/run.py prices it for every request
    if name == "threshold_determination":
        return max_cost(shape["t"], shape["clients"])
    if name == "sec_ue":  # the estimate is local: only the aggregate reveal costs
        return words_round(shape["m"])
    if name == "sec_tc":  # each client checks its own estimate and sends a flag
        return ZERO
    if name == "sec_rs":
        return rs_cost(shape["t"], shape["t_prime"], shape["method"], codec, shape.get("kept"))
    raise UnknownFunctionality(f"no cost model for {functionality!r}")
