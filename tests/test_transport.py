"""Wire format and the two channel implementations."""

import socket
import threading

import numpy as np
import pytest

from starfish import make_inproc_sessions, run_pair
from starfish import transport as tr
from starfish.errors import TransportError
from starfish.sharing import make_tcp_session


def _free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def test_frame_overhead_constant():
    assert tr.FRAME_OVERHEAD == 16


def test_frame_roundtrip():
    frame = tr.build_frame(7, tr.OP_TAGS["sec_div"], b"payload")
    assert len(frame) == tr.FRAME_OVERHEAD + len(b"payload")
    assert tr.parse_frame(frame) == (7, tr.OP_TAGS["sec_div"], b"payload")


@pytest.mark.parametrize("payload", [
    b"payload!",
    memoryview(np.arange(5, dtype="<u8")).cast("B"),
], ids=["bytes", "array"])
def test_build_frame_layout(payload):
    raw = bytes(payload)
    frame = tr.build_frame(7, tr.OP_TAGS["sec_lut"], payload)
    assert frame == tr.LEN.pack(tr.HEADER.size + len(raw)) + tr.HEADER.pack(7, tr.OP_TAGS["sec_lut"], 0) + raw
    sid, tag, got = tr.parse_frame(frame)
    assert (sid, tag, bytes(got)) == (7, tr.OP_TAGS["sec_lut"], raw)
    # the payload is a view into the frame, not a copy
    assert isinstance(got, memoryview) and got.obj is frame


def _tcp_sessions(seed):
    addr = f"127.0.0.1:{_free_port()}"
    sessions = {}

    def open_party(party):
        sessions[party] = make_tcp_session(seed, party, addr)

    th = threading.Thread(target=open_party, args=(0,))
    th.start()
    open_party(1)
    th.join(timeout=30)
    assert not th.is_alive()
    return sessions[0], sessions[1]


SESSION_PAIRS = {"inproc": make_inproc_sessions, "tcp": _tcp_sessions}


@pytest.mark.parametrize("channel", SESSION_PAIRS)
def test_exchange_over_channels(channel):
    # a reply of the sent length unpacks to writable words; another length
    # fails Session._exchange's check
    words = {0: np.arange(6, dtype=np.uint64).reshape(2, 3), 1: np.full((2, 3), 2**64 - 1, np.uint64)}
    sessions = SESSION_PAIRS[channel](3)
    try:
        got = run_pair(lambda s: s.exchange_words(words[s.party]), sessions)
        for party, reply in enumerate(got):
            assert np.array_equal(reply, words[1 - party]) and reply.dtype == np.uint64
            assert reply.flags.writeable
            reply += np.uint64(1)
        with pytest.raises(TransportError, match=r"expected [45] words"):
            run_pair(lambda s: s.exchange_words(np.zeros(4 + s.party, np.uint64)), sessions)
    finally:
        for sess in sessions:
            sess.chan.close()


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
    # the wire rule: bit i of the flat sequence at bit i % 64 of word i // 64,
    # the pad bits after the last one zero
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(3, 67), dtype=np.uint8)
    words = tr._pack_lanes(bits)
    flat = bits.reshape(-1)
    assert [(int(words[i // 64]) >> (i % 64)) & 1 for i in range(flat.size)] == flat.tolist()
    assert int(words[-1]) >> (flat.size % 64) == 0
    buf = tr.pack_words(words)
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


def test_tcp_listen_gives_up_without_a_peer(monkeypatch):
    monkeypatch.setattr(tr, "TCP_TIMEOUT_S", 0.2)
    with pytest.raises(TransportError, match="no peer connected"):
        tr.tcp_listen(f"127.0.0.1:{_free_port()}")
