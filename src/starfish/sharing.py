"""Additive secret sharing, the trusted dealer, sessions and metering.

Two parties hold additive shares over Z_{2^64}, as plain uint64 arrays
(see fixedpoint). Boolean values are XOR shared bit tensors held as packed
little-endian uint64 words (the layout is described in gates). Each party
runs the same protocol program (SPMD) on its own Session; every network
round is a symmetric exchange where both parties send one frame and
receive one frame.

The dealer is simulated: both sessions derive the full preprocessed
material from the same dealer seed and keep only their own half. Draws
happen in program order on both sides, which keeps the halves consistent.
Consumed material is charged to the meter as offline bytes, as if a real
dealer had shipped it ahead of time.

Bit material (AND triples, and the random bits used by B2A) is drawn as
packed words: one generator call yields every word of an item, and the pad
bits past the requested bit count are zero. An item's offline charge is its
packed wire size, the same charge as when the dealer drew one byte per bit;
only the random contents differ from that form.

Seed tree: all randomness comes from numpy SeedSequence keyed as
(seed, stream_tag, *indices). Stream tags: 1 dealer, 2 party 0, 3 party 1,
4 client data, 5 client share splits, 6 baselines, 7 audit inputs.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DealerExhausted, ProtocolError, ShapeError, TransportError
from .fixedpoint import WORD_BYTES, FixedPointCodec, from_signed
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
STREAM_PARTY = 2  # spawn key (2, party)
STREAM_DATA = 4
STREAM_CLIENT_SHARES = 5
STREAM_BASELINE = 6
STREAM_AUDIT = 7


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


def reconstruct(sh0: ArithShare, sh1: ArithShare, codec: FixedPointCodec) -> np.ndarray:
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
        self.truncations = 0

    def invoke(self, op: str, n: int = 1) -> None:
        self.per_op[op].invocations += n

    def add_round(self, op: str, nbytes: int) -> None:
        stats = self.per_op[op]
        stats.rounds += 1
        stats.bytes_online += nbytes
        self.total_online_bytes += nbytes

    def add_offline(self, op: str, nbytes: int) -> None:
        self.per_op[op].bytes_offline += nbytes

    def add_truncations(self, n: int) -> None:
        self.truncations += int(n)

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
    order. An optional item limit models a finite tape; exceeding it
    raises DealerExhausted.
    """

    def __init__(self, seed: int, party: int, codec: FixedPointCodec, limit: int | None = None):
        self.party = party
        self.codec = codec
        self._rng = keyed_rng(seed, STREAM_DEALER)
        self._limit = limit
        self._consumed = 0

    def _tick(self) -> None:
        self._consumed += 1
        if self._limit is not None and self._consumed > self._limit:
            raise DealerExhausted(f"dealer tape limit {self._limit} exceeded")

    def _words(self, shape) -> np.ndarray:
        """Uniform ring words from the tape.

        The raw 64-bit outputs are the words integers(0, 2**64, uint64)
        would return from the same generator, without its per-call overhead.
        """
        size = int(np.prod(shape, dtype=np.int64))
        return self._rng.bit_generator.random_raw(size).reshape(shape)

    def _split(self, full: np.ndarray) -> np.ndarray:
        s0 = self._words(np.asarray(full).shape)
        if self.party == 0:
            return s0
        return np.subtract(full, s0)

    def beaver(self, shape_x, shape_y, mode: str = "mul"):
        """Triple (a, b, c) with c = a*b (elementwise) or a@b (matmul)."""
        self._tick()
        a = self._words(shape_x)
        b = self._words(shape_y)
        if mode == "mul":
            c = np.multiply(a, b)
        elif mode == "matmul":
            c = np.matmul(a, b)
        else:
            raise ShapeError(f"unknown beaver mode {mode}")
        return self._split(a), self._split(b), self._split(c)

    def bit_triple(self, nbits: int):
        """XOR-shared triple c = a & b over nbits bits, as packed words."""
        self._tick()
        nw = bit_word_count(nbits)
        a, b, a0, b0, c0 = self._bit_words(self._words((5, nw)), nbits)
        if self.party == 0:
            return a0, b0, c0
        return a ^ a0, b ^ b0, (a & b) ^ c0

    def shared_bit(self, nbits: int):
        """nbits random bits shared in both domains.

        Returns (packed XOR share, arithmetic share of each bit's 0/1 value
        in bit order).
        """
        self._tick()
        nw = bit_word_count(nbits)
        raw = self._words(2 * nw + nbits)
        r, r0 = self._bit_words(raw[: 2 * nw].reshape(2, nw), nbits)
        s0 = raw[2 * nw :]
        if self.party == 0:
            return r0, s0
        values = unpack_bit_words(pack_words(r), (nbits,)).astype(np.uint64)
        return r ^ r0, np.subtract(values, s0)

    def zero_share(self, shape) -> np.ndarray:
        self._tick()
        r = self._words(shape)
        return r if self.party == 0 else np.negative(r)

    def inv_mask(self, m: int) -> np.ndarray:
        """Share of a random mask matrix with entries uniform on [-1, 1).

        Entries live on the encode grid so masked products stay inside the
        representable range; redraws on bad conditioning are the caller's
        job. The 1x1 case rejects an exact zero, which would be a singular
        mask no retry could fix.
        """
        self._tick()
        scale = self.codec.scale
        raw = self._rng.integers(-scale, scale, size=(m, m), dtype=np.int64)
        while m == 1 and raw[0, 0] == 0:
            raw = self._rng.integers(-scale, scale, size=(m, m), dtype=np.int64)
        return self._split(from_signed(raw))

    @staticmethod
    def _bit_words(words: np.ndarray, nbits: int) -> np.ndarray:
        """Random words over nbits bits: clear the pad bits of the last word."""
        if nbits % 64:
            words[..., -1] &= np.uint64((1 << (nbits % 64)) - 1)
        return words

    # Offline cost of materials, in bytes, as shipped to one party.

    @staticmethod
    def beaver_cost(shape_x, shape_y, mode: str) -> int:
        nx = int(np.prod(shape_x, dtype=np.int64)) if shape_x else 1
        ny = int(np.prod(shape_y, dtype=np.int64)) if shape_y else 1
        if mode == "mul":
            nc = max(nx, ny)
        else:
            batch = int(np.prod(shape_x[:-2], dtype=np.int64)) if len(shape_x) > 2 else 1
            nc = batch * shape_x[-2] * shape_y[-1]
        return WORD_BYTES * (nx + ny + nc)

    @staticmethod
    def bit_triple_cost(nbits: int) -> int:
        return 3 * bit_payload_bytes(nbits)

    @staticmethod
    def shared_bit_cost(nbits: int) -> int:
        return bit_payload_bytes(nbits) + WORD_BYTES * nbits


# -- session ---------------------------------------------------------------


class Session:
    """One party's protocol context: channel, dealer view, meter, RNG.

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
        rng: np.random.Generator,
        session_id: int,
    ):
        if party not in (0, 1):
            raise ProtocolError(f"party must be 0 or 1, got {party}")
        self.party = party
        self.chan = channel
        self.codec = codec
        self.dealer = dealer
        self.meter = meter
        self.rng = rng
        self.session_id = session_id & 0xFFFFFFFFFFFFFFFF
        self._op_stack: list[str] = []

    # -- op labelling ----------------------------------------------------

    def op(self, name: str):
        return _OpScope(self, name)

    @property
    def current_op(self) -> str:
        return self._op_stack[-1] if self._op_stack else "other"

    # -- dealer draws with offline accounting ----------------------------

    def draw_beaver(self, shape_x, shape_y, mode: str = "mul"):
        trip = self.dealer.beaver(shape_x, shape_y, mode)
        cost = DealerTape.beaver_cost(tuple(shape_x), tuple(shape_y), mode)
        self.meter.add_offline(self.current_op, cost)
        return trip

    def draw_bit_triple(self, nbits: int):
        trip = self.dealer.bit_triple(nbits)
        self.meter.add_offline(self.current_op, DealerTape.bit_triple_cost(nbits))
        return trip

    def draw_shared_bit(self, nbits: int):
        pair = self.dealer.shared_bit(nbits)
        self.meter.add_offline(self.current_op, DealerTape.shared_bit_cost(nbits))
        return pair

    def draw_zero(self, shape):
        z = self.dealer.zero_share(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        self.meter.add_offline(self.current_op, WORD_BYTES * n)
        return z

    def draw_inv_mask(self, m: int):
        r = self.dealer.inv_mask(m)
        self.meter.add_offline(self.current_op, WORD_BYTES * m * m)
        return r

    # -- rounds -----------------------------------------------------------

    def exchange_words(self, arr: np.ndarray) -> np.ndarray:
        """Send a ring tensor, receive the peer's of the same shape."""
        return self._exchange(arr)

    def exchange_bits(self, words: np.ndarray) -> np.ndarray:
        """Send a packed bit tensor, receive the peer's of the same shape."""
        return self._exchange(words)

    def _exchange(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        reply = self._roundtrip(pack_words(arr))
        return unpack_words(reply, arr.shape)

    def _roundtrip(self, payload: bytes) -> bytes:
        op = self.current_op
        tag = OP_TAGS.get(op, OP_TAGS["other"])
        frame = build_frame(self.session_id, tag, payload)
        self.chan.send(frame)
        self.meter.add_round(op, len(frame))
        sid, rtag, reply = parse_frame(self.chan.recv())
        if sid != self.session_id:
            raise TransportError(f"session id mismatch: {sid:#x} != {self.session_id:#x}")
        if rtag != tag:
            raise TransportError(f"op tag mismatch: got {rtag:#x}, expected {tag:#x}")
        return reply

    # -- truncation accounting -------------------------------------------

    def truncate(self, v: np.ndarray, bits: int | None = None) -> np.ndarray:
        self.meter.add_truncations(np.asarray(v).size)
        return self.codec.truncate_local(v, self.party, bits)


class _OpScope:
    def __init__(self, sess: Session, name: str):
        self.sess = sess
        self.name = name

    def __enter__(self):
        self.sess._op_stack.append(self.name)
        return self.sess

    def __exit__(self, *exc):
        self.sess._op_stack.pop()
        return False


# -- session-level primitives ----------------------------------------------


def sec_rec(sess: Session, x: np.ndarray, lanes: int | None = None) -> np.ndarray:
    """Reveal a shared tensor to both parties (one symmetric round)."""
    with sess.op("sec_rec"):
        sess.meter.invoke("sec_rec", lanes if lanes is not None else 1)
        theirs = sess.exchange_words(x)
        return np.add(x, theirs)


def zero_gen(sess: Session, shape=()) -> np.ndarray:
    """Fresh share of zero from the dealer tape (no communication)."""
    with sess.op("zero_gen"):
        sess.meter.invoke("zero_gen")
        return sess.draw_zero(shape)


def sec_ran_gen(sess: Session, shape=()) -> np.ndarray:
    """Share of a uniform ring value unknown to both parties.

    Each party contributes its own uniform share; no communication is
    needed and neither party learns the sum.
    """
    with sess.op("sec_ran_gen"):
        sess.meter.invoke("sec_ran_gen")
        return sess.rng.integers(0, 2**64, size=shape, dtype=np.uint64)


# -- pair harness ------------------------------------------------------------


def make_inproc_sessions(
    seed: int,
    codec: FixedPointCodec | None = None,
    dealer_limit: int | None = None,
) -> tuple[Session, Session]:
    codec = codec or FixedPointCodec()
    chan0, chan1 = inproc_pair()
    sessions = []
    for party, chan in ((0, chan0), (1, chan1)):
        dealer = DealerTape(seed, party, codec, limit=dealer_limit)
        meter = TranscriptMeter()
        rng = keyed_rng(seed, STREAM_PARTY, party)
        sessions.append(Session(party, chan, codec, dealer, meter, rng, session_id=seed))
    return sessions[0], sessions[1]


def make_tcp_session(
    seed: int,
    party: int,
    address: str,
    codec: FixedPointCodec | None = None,
    dealer_limit: int | None = None,
) -> Session:
    """One party's session over a socket; party 0 listens, party 1 dials."""
    if party not in (0, 1):
        raise ProtocolError(f"party must be 0 or 1, got {party}")
    codec = codec or FixedPointCodec()
    chan = tcp_listen(address) if party == 0 else tcp_connect(address)
    dealer = DealerTape(seed, party, codec, limit=dealer_limit)
    meter = TranscriptMeter()
    rng = keyed_rng(seed, STREAM_PARTY, party)
    return Session(party, chan, codec, dealer, meter, rng, session_id=seed)


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
