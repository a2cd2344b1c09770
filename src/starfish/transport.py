"""Wire framing and the two channel implementations.

Frame layout, identical for both transports:

    4 bytes   little-endian payload length
    payload:
      8 bytes   session id (LE u64)
      2 bytes   operation tag (LE u16, see OP_TAGS)
      2 bytes   reserved (zero)
      N words   little-endian uint64 words

Arithmetic payloads are ring elements. Boolean payloads are XOR-shared bit
tensors in packed form: little-endian uint64 words over the flat bit
sequence, bit i of the sequence at bit i % 64 of word i // 64, the pad bits
after the last one zero. Two bit tensors shipped in one round are joined at
the bit level, so only the final word carries pad bits. The gates and the
dealer hold bit tensors in this form already, so both kinds of payload ship
their in-memory words unchanged and byte accounting is the same for
arithmetic and boolean traffic.
"""

from __future__ import annotations

import math
import queue
import select
import socket
import struct

import numpy as np

from .errors import TransportError

HEADER = struct.Struct("<QHH")  # session id, op tag, reserved
LEN = struct.Struct("<I")
PREFIX = struct.Struct("<IQHH")  # LEN then HEADER, packed and parsed in one call
FRAME_OVERHEAD = LEN.size + HEADER.size  # 16 bytes per frame

# seconds a TCP party waits for its peer: to connect, to drain a send, to reply
TCP_TIMEOUT_S = 30.0

# Operation tags for the wire frame: one per gate that opens the innermost
# op scope around a round; 0x00ff marks traffic outside any labelled gate.
OP_TAGS = {
    "sec_rec": 0x0002,
    "sec_ge": 0x0015,
    "sec_srt": 0x0018,
    "sec_div": 0x0019,
    "sec_rank": 0x001c,
    "sec_lut": 0x001d,
    "other": 0x00ff,
}

# -- word packing -------------------------------------------------------


def pack_words(arr: np.ndarray) -> bytes:
    return np.asarray(arr).astype("<u8", copy=False).tobytes()


def unpack_words(buf: bytes, shape) -> np.ndarray:
    return np.frombuffer(buf, dtype="<u8").astype(np.uint64).reshape(shape)


def unpack_bit_words(buf: bytes, shape) -> np.ndarray:
    """The first prod(shape) bits of little-endian words, one uint8 per bit."""
    count = math.prod(shape)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=count, bitorder="little")
    return bits.reshape(shape)


def bit_word_count(nbits: int) -> int:
    """Words holding nbits packed bits."""
    return (nbits + 63) // 64


def bit_payload_bytes(nbits: int) -> int:
    """Wire size of a packed bit payload (whole little-endian words)."""
    return 8 * bit_word_count(nbits)


def build_frame(session_id: int, tag: int, payload_words) -> bytes:
    """The frame of a bytes-like payload whose len() counts bytes (bytes, or
    a memoryview cast to bytes); the payload is copied once."""
    return PREFIX.pack(HEADER.size + len(payload_words), session_id, tag, 0) + payload_words


def parse_frame(frame: bytes) -> tuple[int, int, memoryview]:
    """Session id, op tag and the payload words, a view into frame."""
    if len(frame) < FRAME_OVERHEAD:
        raise TransportError("short frame")
    length, sid, tag, reserved = PREFIX.unpack_from(frame)
    if length != len(frame) - LEN.size:
        raise TransportError("frame length mismatch")
    if reserved != 0:
        raise TransportError("reserved field must be zero")
    return sid, tag, memoryview(frame)[FRAME_OVERHEAD:]


# -- channels ------------------------------------------------------------


class InprocChannel:
    """One endpoint of an in-process duplex pipe carrying whole frames.

    The pipes are SimpleQueues: their put and get take no Python-level lock,
    which halves a round trip between two threads against queue.Queue.
    """

    _CLOSE = object()

    def __init__(self, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False

    def send(self, frame: bytes) -> None:
        if self._closed:
            raise TransportError("channel closed")
        self._outbox.put(frame)

    def recv(self) -> bytes:
        item = self._inbox.get()
        if item is self._CLOSE:
            raise TransportError("peer closed the channel")
        return item

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(self._CLOSE)


def inproc_pair() -> tuple[InprocChannel, InprocChannel]:
    a, b = queue.SimpleQueue(), queue.SimpleQueue()
    return InprocChannel(a, b), InprocChannel(b, a)


class TcpChannel:
    """Frame pipe over a connected socket.

    send() drains incoming bytes while pushing outgoing ones so two peers
    that both send large frames before reading cannot deadlock on full
    kernel buffers.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.setblocking(False)
        self._rbuf = bytearray()

    def send(self, frame: bytes) -> None:
        view = memoryview(frame)
        while view:
            rl, wl, _ = select.select([self._sock], [self._sock], [], TCP_TIMEOUT_S)
            if not rl and not wl:
                raise TransportError("peer stalled")
            if rl:
                self._pull()
            if wl:
                try:
                    sent = self._sock.send(view)
                except (BrokenPipeError, ConnectionResetError) as exc:
                    raise TransportError("peer closed the channel") from exc
                view = view[sent:]

    def recv(self) -> bytes:
        while True:
            frame = self._take_frame()
            if frame is not None:
                return frame
            rl, _, _ = select.select([self._sock], [], [], TCP_TIMEOUT_S)
            if not rl:
                raise TransportError("recv timeout")
            self._pull()

    def _pull(self) -> None:
        try:
            chunk = self._sock.recv(1 << 16)
        except BlockingIOError:
            return
        except ConnectionResetError as exc:
            raise TransportError("peer closed the channel") from exc
        if chunk == b"":
            raise TransportError("peer closed the channel")
        self._rbuf.extend(chunk)

    def _take_frame(self) -> bytes | None:
        if len(self._rbuf) < LEN.size:
            return None
        (length,) = LEN.unpack_from(self._rbuf, 0)
        total = LEN.size + length
        if len(self._rbuf) < total:
            return None
        with memoryview(self._rbuf) as view:
            frame = bytes(view[:total])
        del self._rbuf[:total]
        return frame

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def tcp_listen(addr: str) -> TcpChannel:
    """Accept one peer on addr, or raise TransportError after TCP_TIMEOUT_S."""
    host, port = addr.rsplit(":", 1)
    with socket.create_server((host, int(port))) as srv:
        srv.settimeout(TCP_TIMEOUT_S)
        try:
            conn, _ = srv.accept()
        except TimeoutError as exc:
            raise TransportError(f"no peer connected to {addr} within {TCP_TIMEOUT_S:g} s") from exc
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpChannel(conn)


def tcp_connect(addr: str, attempts: int = 50) -> TcpChannel:
    import time

    host, port = addr.rsplit(":", 1)
    last: Exception | None = None
    for _ in range(attempts):
        try:
            sock = socket.create_connection((host, int(port)), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return TcpChannel(sock)
        except OSError as exc:
            last = exc
            time.sleep(0.1)
    raise TransportError(f"could not connect to {addr}: {last}")
