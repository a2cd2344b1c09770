"""Length-prefixed pickle messages over a pair of pipes.

run.py and its worker processes talk only through these frames. Both
ends are this benchmark's own code, so unpickling what arrives is safe.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import time

_LEN = struct.Struct("<Q")


class WorkerTimeout(RuntimeError):
    """A worker sent nothing before the deadline."""


class WorkerGone(RuntimeError):
    """A worker closed its end of the pipe."""


def send(fh, obj) -> None:
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    fh.write(_LEN.pack(len(blob)) + blob)
    fh.flush()


def _read_exact(fd: int, count: int, deadline: float | None) -> bytes:
    chunks = []
    while count:
        if deadline is not None:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(left, 0.0))
            if not ready:
                raise WorkerTimeout("no reply before the deadline")
        chunk = os.read(fd, min(count, 1 << 20))
        if not chunk:
            raise WorkerGone("pipe closed")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv(fh, timeout: float | None = None):
    """Next message from a binary pipe; raw fd reads so select stays truthful."""
    deadline = None if timeout is None else time.monotonic() + timeout
    fd = fh.fileno()
    (size,) = _LEN.unpack(_read_exact(fd, _LEN.size, deadline))
    return pickle.loads(_read_exact(fd, size, deadline))
