"""Wire format and the two channel implementations."""

import socket
import threading

import numpy as np
import pytest

from starfish import transport as tr
from starfish.errors import TransportError


def _free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def test_frame_overhead_constant():
    assert tr.FRAME_OVERHEAD == 16


def test_frame_roundtrip():
    frame = tr.build_frame(7, tr.OP_TAGS["sec_mul"], b"payload")
    assert len(frame) == tr.FRAME_OVERHEAD + len(b"payload")
    assert tr.parse_frame(frame) == (7, tr.OP_TAGS["sec_mul"], b"payload")


def test_parse_frame_rejects_garbage():
    with pytest.raises(TransportError):
        tr.parse_frame(b"\x00" * 10)
    good = tr.build_frame(1, 2, b"xy")
    with pytest.raises(TransportError):
        tr.parse_frame(good[:-1])


def test_op_tags_unique():
    assert len(set(tr.OP_TAGS.values())) == len(tr.OP_TAGS)


def test_word_packing_roundtrip():
    arr = np.array([[0, 1], [2**64 - 1, 12345]], dtype=np.uint64)
    buf = tr.pack_words(arr)
    assert len(buf) == arr.size * 8
    assert np.array_equal(tr.unpack_words(buf, arr.shape), arr)


def test_bit_packing_roundtrip_and_padding():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(3, 67), dtype=np.uint8)
    buf = tr.pack_bit_words(bits)
    assert len(buf) == tr.bit_payload_bytes(bits.size)
    assert len(buf) % 8 == 0
    assert np.array_equal(tr.unpack_bit_words(buf, bits.shape), bits)


def test_bit_payload_whole_words():
    assert tr.bit_payload_bytes(1) == 8
    assert tr.bit_payload_bytes(64) == 8
    assert tr.bit_payload_bytes(65) == 16


def test_inproc_channel_roundtrip_and_close():
    a, b = tr.inproc_pair()
    a.send(b"ping")
    assert b.recv() == b"ping"
    b.send(b"pong")
    assert a.recv() == b"pong"
    # frames queued before the close still arrive, in order
    for frame in (b"one", b"two", b"three"):
        a.send(frame)
    a.close()
    assert [b.recv() for _ in range(3)] == [b"one", b"two", b"three"]
    with pytest.raises(TransportError):
        b.recv()
    with pytest.raises(TransportError):
        a.send(b"late")


def test_tcp_channel_roundtrip():
    addr = f"127.0.0.1:{_free_port()}"
    got = {}

    def server():
        chan = tr.tcp_listen(addr)
        got["frame"] = chan.recv()
        chan.send(tr.build_frame(1, 2, b"reply"))
        chan.close()

    th = threading.Thread(target=server)
    th.start()
    chan = tr.tcp_connect(addr)
    chan.send(tr.build_frame(1, 2, b"hello"))
    reply = chan.recv()
    chan.close()
    th.join()
    assert tr.parse_frame(got["frame"])[2] == b"hello"
    assert tr.parse_frame(reply)[2] == b"reply"


def test_tcp_connect_gives_up():
    with pytest.raises(TransportError):
        tr.tcp_connect(f"127.0.0.1:{_free_port()}", attempts=2)
