"""Additive secret sharing, the trusted dealer, sessions and metering.

Two parties hold additive shares over Z_{2^64}, as plain uint64 arrays
(see fixedpoint). Boolean values are XOR shared bit tensors held as packed
words in the wire layout described in transport. Each party runs the same
protocol program (SPMD) on its own Session; every network round is a
symmetric exchange where both parties send one frame and receive one frame.

The dealer is simulated: both sessions derive the full preprocessed
material from the same dealer seed and keep only their own half. Draws
happen in program order on both sides, which keeps the halves consistent.
Consumed material is charged to the meter as offline bytes, as if a real
dealer had shipped it ahead of time: each draw charges the summed size of
the arrays it hands out, except a comparison draw (below). Each Beaver
triple comes from one tape read, whose words are those of drawing a, b and
the three masks in turn; party 0's shares are the masks, so party 0 never
forms the product.

Bit material (the random bits of a bit injection, the masks of a
comparison) is drawn as packed words, and the pad bits past the requested
bit count are zero. An item's offline charge is its packed wire size, the
same charge as when the dealer drew one byte per bit; only the random
contents differ from that form. A bit injection deals a random bit per row
of its arithmetic operand in both domains, next to a Beaver-style pair a,
c = r * a at the operand's shape; a B2A is an injection into rows of no
words.

A comparison draw deals each lane a uniform word r, shared additively, XOR
shares of MSB(r) and of the one-hot vector of each digit of r mod 2^63
(248 bits), and for each of the circuit's AND levels fresh masks and XOR
shares of their products over the subsets the level names. It is charged
packed densely: the words of r and every other bit back to back.

A lookup draw deals each lane a one-time truth table: a ring share of a
rotation r, uniform in Z_M, and XOR shares of a public M-entry bit table
rotated by r, packed like any bit tensor.

Seed tree: all randomness comes from numpy SeedSequence keyed as
(seed, stream_tag, *indices). Stream tags: 1 dealer, 4 client data,
5 client share splits, 6 baselines, 7 audit inputs. The parties draw no
randomness of their own: every mask comes from the dealer tape.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError, TransportError
from .fixedpoint import FixedPointCodec
from .transport import (
    OP_TAGS,
    bit_payload_bytes,
    bit_word_count,
    build_frame,
    inproc_pair,
    pack_words,
    parse_frame,
    tcp_connect,
    tcp_listen,
    unpack_bit_words,
    unpack_words,
)

STREAM_DEALER = 1
STREAM_DATA = 4
STREAM_CLIENT_SHARES = 5
STREAM_BASELINE = 6
STREAM_AUDIT = 7

# a comparison splits r mod 2^63 into 16 digits, least significant first:
# 15 of 4 bits and a top digit of 3, each dealt as a one-hot table
DIGITS = 16
TOP_DIGIT_BITS = 3
ONE_HOT_BITS = 16 * (DIGITS - 1) + (1 << TOP_DIGIT_BITS)
_DIGIT_SHIFTS = np.arange(0, 4 * DIGITS, 4, dtype=np.uint64)[:, None]
_DIGIT_MASKS = np.array([15] * (DIGITS - 1) + [(1 << TOP_DIGIT_BITS) - 1], dtype=np.uint64)[:, None]


def digits(words: np.ndarray) -> np.ndarray:
    """The (16, lanes) uint8 digits of ring words mod 2^63, least significant first."""
    return ((words >> _DIGIT_SHIFTS) & _DIGIT_MASKS).astype(np.uint8)


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, stream, indices...) key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *key))))


@dataclass(frozen=True)
class ArithShare:
    party: int
    value: np.ndarray


def sec_share(v, codec: FixedPointCodec, rng: np.random.Generator):
    """Split v into two additive shares.

    Floating input is encoded first; integer input is taken as ring words
    already.
    """
    arr = np.asarray(v)
    raw = codec.encode(arr) if arr.dtype.kind == "f" else np.asarray(arr, dtype=np.uint64)
    s0 = rng.integers(0, 2**64, size=raw.shape, dtype=np.uint64)
    return ArithShare(0, s0), ArithShare(1, np.subtract(raw, s0))


def reconstruct(sh0: ArithShare, sh1: ArithShare) -> np.ndarray:
    return np.add(sh0.value, sh1.value)


# -- metering -------------------------------------------------------------


@dataclass
class OpStats:
    invocations: int = 0
    rounds: int = 0
    bytes_online: int = 0
    bytes_offline: int = 0

    def as_dict(self) -> dict:
        return {
            "invocations": self.invocations,
            "rounds": self.rounds,
            "bytes_online": self.bytes_online,
            "bytes_offline": self.bytes_offline,
        }


class TranscriptMeter:
    """Per-functionality communication counters for one party.

    bytes_online sums the framed payloads this party actually sent, so the
    grand total must equal what the transport shipped (checked in tests).
    """

    def __init__(self):
        self.per_op: dict[str, OpStats] = defaultdict(OpStats)
        self.total_online_bytes = 0
        self.truncations = 0  # nothing truncates; the benchmark still reads it

    def invoke(self, op: str, n: int = 1) -> None:
        self.per_op[op].invocations += n

    def add_round(self, op: str, nbytes: int) -> None:
        stats = self.per_op[op]
        stats.rounds += 1
        stats.bytes_online += nbytes
        self.total_online_bytes += nbytes

    def add_offline(self, op: str, nbytes: int) -> None:
        self.per_op[op].bytes_offline += nbytes

    def snapshot(self) -> dict:
        return {
            "ops": {op: s.as_dict() for op, s in sorted(self.per_op.items())},
            "total_online_bytes": self.total_online_bytes,
            "truncations": self.truncations,
        }

    def stats(self, op: str) -> OpStats:
        return self.per_op[op]


# -- trusted dealer (simulated) -------------------------------------------


class DealerTape:
    """This party's view of the preprocessed tape.

    Material is generated lazily from the dealer seed, in consumption
    order.
    """

    def __init__(self, seed: int, party: int):
        self.party = party
        self._rng = keyed_rng(seed, STREAM_DEALER)

    def _words(self, shape) -> np.ndarray:
        """Uniform ring words from the tape.

        The raw 64-bit outputs are the words integers(0, 2**64, uint64)
        would return from the same generator, without its per-call overhead.
        """
        return self._rng.bit_generator.random_raw(shape)

    def beaver(self, shape_x, shape_y):
        """Triple (a, b, c) with a, b at the operands' shapes and c = a*b
        under numpy broadcasting.

        One tape read holds a, b and the masks a0, b0, c0, in the order of
        drawing each in turn. Party 0's shares are the masks, so only party
        1 forms the product.
        """
        shape_c = np.broadcast_shapes(shape_x, shape_y)
        nx, ny = math.prod(shape_x), math.prod(shape_y)
        raw = self._words(2 * (nx + ny) + math.prod(shape_c))
        a0 = raw[nx + ny : 2 * nx + ny].reshape(shape_x)
        b0 = raw[2 * nx + ny : 2 * (nx + ny)].reshape(shape_y)
        c0 = raw[2 * (nx + ny) :].reshape(shape_c)
        if self.party == 0:
            return a0, b0, c0
        a = raw[:nx].reshape(shape_x)
        b = raw[nx : nx + ny].reshape(shape_y)
        return np.subtract(a, a0), np.subtract(b, b0), np.subtract(np.multiply(a, b), c0)

    def injection(self, shape):
        """Material for a bit injection into an x of this shape, from one tape
        read: a random bit r per row of x, shared in both domains, a uniform a
        at x's shape and c = r * a, each row of a times its row's bit.

        The read holds r and r0 (packed, pad bits cleared) and s0, then a and
        the masks a0, c0; party 0's shares are r0, s0, a0 and c0. Returns
        (packed XOR share of r, arithmetic share of r in row order, share of
        a, share of c). A B2A of n bits takes the bits of shape (n, 0).
        """
        rows, size = shape[0], math.prod(shape)
        nw = bit_word_count(rows)
        raw = self._words(2 * nw + rows + 3 * size)
        r, r0 = self._bit_words(raw[: 2 * nw].reshape(2, nw), rows)
        s0 = raw[2 * nw : 2 * nw + rows]
        a, a0, c0 = raw[2 * nw + rows :].reshape((3, *shape))
        if self.party == 0:
            return r0, s0, a0, c0
        values = unpack_bit_words(pack_words(r), (rows,)).astype(np.uint64)
        c = np.multiply(values.reshape((rows,) + (1,) * (len(shape) - 1)), a)
        return r ^ r0, np.subtract(values, s0), np.subtract(a, a0), np.subtract(c, c0)

    def lookup(self, lanes: int, table: np.ndarray):
        """A one-time truth table per lane for a public bit table of M
        entries, M a power of two, from one tape read.

        Returns this party's ring share of r, uniform in Z_M, and its XOR
        share of the rotated table T[j] = table[(j - r) mod M], packed
        ceil(M/64) words per lane, entry j at bit j % 64 of word j // 64. The
        read holds r, party 0's share of r and party 0's table words in turn.
        """
        size = len(table)
        nw = bit_word_count(size)
        raw = self._words(lanes * (2 + nw))
        s0 = raw[lanes : 2 * lanes]
        t0 = self._bit_words(raw[2 * lanes :].reshape(lanes, nw), size)
        if self.party == 0:
            return s0, t0
        r = raw[:lanes] & np.uint64(size - 1)
        # entry j of lane k's table is table[(j - r_k) mod M]
        source = (np.arange(size) - r[:, None].astype(np.int64)) & (size - 1)
        rotated = np.zeros((lanes, 64 * nw), dtype=np.uint8)
        rotated[:, :size] = np.asarray(table, dtype=np.uint8)[source]
        packed = np.packbits(rotated, axis=1, bitorder="little").view("<u8").astype(np.uint64)
        return np.subtract(r, s0), packed ^ t0

    def comparison(self, lanes: int, levels):
        """Material for a masked comparison of lanes lanes, from one tape read.

        Each lane gets a uniform word r, shared additively; XOR shares of
        MSB(r), lane-packed; and XOR shares of the one-hot vector of each
        digit of r mod 2^63 (see digits), entry v of digit i at bit v of a
        (16, lanes) array of 16-bit words. Each AND level is a pair (k,
        subsets): k fresh lane-packed masks per lane and, per row of the
        (s, 4) array subsets, the AND of the masks it indexes (padding
        index k). A level's material is the XOR shares of its k masks, then
        of its s products, as (k + s, words) lane-packed rows.

        The read holds r and party 0's shares of r, MSB(r) and the tables,
        then per level the masks and party 0's shares of them and their
        products; pad bits are cleared.
        """
        nw = bit_word_count(lanes)
        sizes = [lanes, lanes, nw, 4 * lanes]
        for k, subsets in levels:
            sizes += [k * nw, (k + len(subsets)) * nw]
        words, parts, end = self._words(sum(sizes)), [], 0
        for n in sizes:
            parts.append(words[end : end + n])
            end += n
        r, r0, msb0, tables0, *raw = parts
        msb0 = self._bit_words(msb0, lanes)
        tables0 = tables0.astype("<u8", copy=False).view("<u2").reshape(DIGITS, lanes)
        tables0[-1] &= (1 << (1 << TOP_DIGIT_BITS)) - 1  # the top digit's table has 8 entries
        shares0 = [self._bit_words(s.reshape(-1, nw), lanes) for s in raw[1::2]]
        if self.party == 0:
            return r0, msb0, tables0, shares0
        msb = np.zeros(8 * nw, dtype=np.uint8)
        msb[: -(-lanes // 8)] = np.packbits((r >> np.uint64(63)).astype(np.uint8), bitorder="little")
        tables = tables0 ^ (np.uint16(1) << digits(r))
        material = []
        for (k, subsets), masks, s0 in zip(levels, raw[::2], shares0):
            masks = self._bit_words(masks.reshape(k, nw), lanes)
            ones = np.full((1, nw), ~np.uint64(0))
            products = np.bitwise_and.reduce(np.concatenate([masks, ones])[subsets], axis=1)
            material.append(np.concatenate([masks, products]) ^ s0)
        return np.subtract(r, r0), msb0 ^ msb.view("<u8"), tables, material

    @staticmethod
    def _bit_words(words: np.ndarray, nbits: int) -> np.ndarray:
        """Random words over nbits bits: clear the pad bits of the last word."""
        if nbits % 64:
            words[..., -1] &= np.uint64((1 << (nbits % 64)) - 1)
        return words


# -- session ---------------------------------------------------------------


class Session:
    """One party's protocol context: channel, dealer view, meter.

    A session is single threaded; it may be handed between threads but not
    used from two at once.
    """

    def __init__(
        self,
        party: int,
        channel,
        codec: FixedPointCodec,
        dealer: DealerTape,
        meter: TranscriptMeter,
        session_id: int,
    ):
        if party not in (0, 1):
            raise ProtocolError(f"party must be 0 or 1, got {party}")
        self.party = party
        self.chan = channel
        self.codec = codec
        self.dealer = dealer
        self.meter = meter
        self.session_id = session_id & 0xFFFFFFFFFFFFFFFF
        self._op_stack: list[str] = []

    # -- op labelling ----------------------------------------------------

    def op(self, name: str, lanes: int = 1):
        """Scope of one invocation of name over lanes lanes.

        Entering it counts the invocation; rounds and dealer draws inside
        are charged to name.
        """
        return _OpScope(self, name, lanes)

    @property
    def current_op(self) -> str:
        return self._op_stack[-1] if self._op_stack else "other"

    # -- dealer draws, charged as offline bytes ---------------------------

    def _charge(self, *material: np.ndarray) -> None:
        """Offline bytes of what the dealer handed out to this party."""
        self.meter.add_offline(self.current_op, sum(m.nbytes for m in material))

    def draw_beaver(self, shape_x, shape_y):
        trip = self.dealer.beaver(shape_x, shape_y)
        self._charge(*trip)
        return trip

    def draw_injection(self, shape):
        material = self.dealer.injection(shape)
        self._charge(*material)
        return material

    def draw_lookup(self, lanes: int, table: np.ndarray):
        material = self.dealer.lookup(lanes, table)
        self._charge(*material)
        return material

    def draw_comparison(self, lanes: int, levels):
        """DealerTape.comparison, charged packed densely: the shares of r as
        words and every other bit of the draw back to back."""
        material = self.dealer.comparison(lanes, levels)
        bits = 1 + ONE_HOT_BITS + sum(k + len(subsets) for k, subsets in levels)
        self.meter.add_offline(self.current_op, 8 * lanes + bit_payload_bytes(bits * lanes))
        return material

    # -- rounds -----------------------------------------------------------

    def exchange_words(self, arr: np.ndarray) -> np.ndarray:
        """Send a ring tensor, receive the peer's of the same shape."""
        return self._exchange(arr)

    def exchange_bits(self, words: np.ndarray) -> np.ndarray:
        """Send a packed bit tensor, receive the peer's of the same shape."""
        return self._exchange(words)

    def _exchange(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        payload = pack_words(arr)
        reply = self._roundtrip(payload)
        if len(reply) != len(payload):
            raise TransportError(f"peer sent a {len(reply)}-byte payload, expected {arr.size} words")
        return unpack_words(reply, arr.shape)

    def _roundtrip(self, payload: bytes) -> memoryview:
        op = self.current_op
        tag = OP_TAGS.get(op, OP_TAGS["other"])
        frame = build_frame(self.session_id, tag, payload)
        self.chan.send(frame)
        self.meter.add_round(op, len(frame))
        sid, rtag, reply = parse_frame(self.chan.recv())
        if sid != self.session_id:
            raise TransportError(f"session id mismatch: {sid:#x} != {self.session_id:#x}; "
                                 "the parties' configurations differ")
        if rtag != tag:
            raise TransportError(f"op tag mismatch: got {rtag:#x}, expected {tag:#x}")
        return reply


class _OpScope:
    def __init__(self, sess: Session, name: str, lanes: int):
        self.sess = sess
        self.name = name
        self.lanes = lanes

    def __enter__(self):
        self.sess.meter.invoke(self.name, self.lanes)
        self.sess._op_stack.append(self.name)
        return self.sess

    def __exit__(self, *exc):
        self.sess._op_stack.pop()
        return False


# -- session-level primitives ----------------------------------------------


def sec_rec(sess: Session, x: np.ndarray) -> np.ndarray:
    """Reveal a shared tensor to both parties (one symmetric round)."""
    with sess.op("sec_rec"):
        theirs = sess.exchange_words(x)
        return np.add(x, theirs)


# -- pair harness ------------------------------------------------------------


def make_inproc_sessions(seed: int, codec: FixedPointCodec | None = None) -> tuple[Session, Session]:
    codec = codec or FixedPointCodec()
    chan0, chan1 = inproc_pair()
    return (Session(0, chan0, codec, DealerTape(seed, 0), TranscriptMeter(), session_id=seed),
            Session(1, chan1, codec, DealerTape(seed, 1), TranscriptMeter(), session_id=seed))


def make_tcp_session(seed: int, party: int, address: str, codec: FixedPointCodec | None = None,
                     session_id: int | None = None) -> Session:
    """One party's session over a socket; party 0 listens, party 1 dials.

    Every frame carries session_id (the seed by default) and a reply under
    another id is rejected, so the parties must agree on it."""
    if party not in (0, 1):
        raise ProtocolError(f"party must be 0 or 1, got {party}")
    codec = codec or FixedPointCodec()
    chan = tcp_listen(address) if party == 0 else tcp_connect(address)
    return Session(party, chan, codec, DealerTape(seed, party), TranscriptMeter(),
                   session_id=seed if session_id is None else session_id)


def run_pair(proto, sessions: tuple[Session, Session]):
    """Run one protocol function as both parties on two threads.

    proto(session) is called per party; returns (result0, result1).
    On failure in one party the peer channel is closed so the other side
    unblocks; the originating exception is re-raised.
    """
    results: list = [None, None]
    errors: list = [None, None]

    def runner(i: int):
        try:
            results[i] = proto(sessions[i])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors[i] = exc
            sessions[i].chan.close()

    threads = [threading.Thread(target=runner, args=(i,), daemon=True) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    real = [e for e in errors if e is not None and not isinstance(e, TransportError)]
    if real:
        raise real[0]
    if any(errors):
        raise next(e for e in errors if e is not None)
    return results[0], results[1]
