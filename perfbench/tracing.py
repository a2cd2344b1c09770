"""Outside-in tracing: spans around the public functions of each starfish module.

Nothing in ``src/`` knows about this. Installing the tracer rebinds every
public module-level function of the traced modules, wherever a module holds
a reference to it (``from .x import f`` makes copies), plus the public
methods of a few classes. Uninstalling restores the originals, so untraced
requests run the unmodified program.

A span is (id, parent id, name, start, end, thread, extra). Spans of one
request are kept in memory together and written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("transport", "sharing", "fixedpoint", "gates", "costs",
           "roundsel", "unlearn", "oracle", "cli")
CLASSES = {
    "transport": ("InprocChannel", "TcpChannel"),
    "sharing": ("Session", "DealerTape"),
    "fixedpoint": ("FixedPointCodec",),
    "unlearn": ("HistoryStore", "ClientPool"),
}
# op() only hands out a context manager; a span around it measures nothing
SKIP = {"sharing.Session.op"}


def _mi_lanes(args, kwargs, result):
    arr = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    return arr.size if arr.ndim <= 1 else arr.size // (arr.shape[-1] ** 2)


def _rs_kept(args, kwargs, result):
    params = args[2] if len(args) > 2 else kwargs["params"]
    return (int(result.kept.size), int(params.t))


# per-span payloads that ratios need: sec_mi lanes, sec_rs (kept, T)
EXTRA = {"gates.sec_mi": _mi_lanes, "roundsel.sec_rs": _rs_kept}


class Tracer:
    def __init__(self):
        self._patches: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._current: list | None = None
        self._request = None
        self.archive: list = []  # (request id, spans)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("starfish")
        mods = [importlib.import_module(f"starfish.{name}") for name in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
            for cname in CLASSES.get(short, ()):
                cls = getattr(mod, cname)
                for name, attr in list(vars(cls).items()):
                    label = f"{short}.{cname}.{name}"
                    if name.startswith("_") or label in SKIP:
                        continue
                    if inspect.isfunction(attr):
                        self._patch(cls, name, self._wrap(label, attr))
                    elif isinstance(attr, classmethod):
                        self._patch(cls, name, classmethod(self._wrap(label, attr.__func__)))
        for mod in [pkg, *mods]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for target, name, old in reversed(self._patches):
            setattr(target, name, old)
        self._patches.clear()

    def _patch(self, target, name, new) -> None:
        self._patches.append((target, name, vars(target)[name]))
        setattr(target, name, new)

    def _wrap(self, name: str, fn):
        tracer = self
        extra_fn = EXTRA.get(name)

        def traced(*args, **kwargs):
            spans = tracer._current
            if spans is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            extra = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if extra_fn is not None:
                    extra = extra_fn(args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, threading.get_ident(), extra))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- per-request collection -------------------------------------------

    def begin(self, request) -> None:
        self._request = request
        self._current = []

    def end(self) -> list:
        spans, self._current = self._current, None
        self.archive.append((self._request, spans))
        return spans

    def dump(self, path) -> int:
        count = 0
        with gzip.open(path, "wt") as fh:
            for request, spans in self.archive:
                for sid, parent, name, t0, t1, thread, extra in spans:
                    fh.write(json.dumps({
                        "id": sid, "parent": parent, "name": name,
                        "start": t0, "end": t1, "thread": thread,
                        "request": request, "extra": extra,
                    }) + "\n")
                    count += 1
        return count


# -- aggregation -----------------------------------------------------------

_PACK = {f"transport.{n}" for n in (
    "pack_words", "unpack_words", "pack_bit_words", "unpack_bit_words",
    "build_frame", "parse_frame")}
_EXCHANGE = {"sharing.Session.exchange_words", "sharing.Session.exchange_bits"}
_ENCODE = {"fixedpoint.FixedPointCodec.encode", "fixedpoint.encode"}
_HISTORY_IO = {"unlearn.HistoryStore.save", "unlearn.HistoryStore.load"}


def summarize(spans: list) -> dict:
    """Raw per-layer sums for one request or training job.

    Times are summed over every thread that ran (both parties inproc);
    counts are raw event counts. run.py divides per-party counts by
    the number of parties.
    """
    dur: dict = defaultdict(float)
    count: dict = defaultdict(int)
    child = defaultdict(float)
    parent_of = {}
    name_of = {}
    for sid, parent, name, t0, t1, _, _ in spans:
        d = t1 - t0
        dur[name] += d
        count[name] += 1
        child[parent] += d
        parent_of[sid] = parent
        name_of[sid] = name

    def under(sid, ancestor) -> bool:
        p = parent_of.get(sid, 0)
        while p:
            if name_of.get(p) == ancestor:
                return True
            p = parent_of.get(p, 0)
        return False

    out: dict = defaultdict(float)
    for sid, parent, name, t0, t1, _, extra in spans:
        self_t = (t1 - t0) - child.get(sid, 0.0)
        if name.startswith("gates."):
            out["gates_self"] += self_t
        if name in _ENCODE:
            out["encode"] += self_t
        if name == "sharing.sec_rec" and under(sid, "unlearn.stage_one"):
            out["stage1_rec"] += t1 - t0
        if name == "sharing.Session.draw_inv_mask" and under(sid, "gates.sec_mi"):
            out["mi_draws"] += 1
        if name == "gates.sec_mi":
            out["mi_lanes"] += extra
        if name == "roundsel.sec_rs":
            out["rs_kept"] += extra[0]
            out["rs_t"] += extra[1]

    def total(names) -> float:
        return sum(dur[n] for n in names)

    def events(names) -> int:
        return sum(count[n] for n in names)

    draws = [n for n in dur if n.startswith("sharing.Session.draw_")]
    out.update({
        "recv_wait": total([n for n in dur if n.startswith("transport.") and n.endswith(".recv")]),
        "send": total([n for n in dur if n.startswith("transport.") and n.endswith(".send")]),
        "pack": total(_PACK),
        "exchanges": events(_EXCHANGE),
        "roundtrip": total(_EXCHANGE),
        "bit_exchanges": count["sharing.Session.exchange_bits"],
        "dealer": total(draws),
        "dealer_draws": events(draws),
        "bit_triple": dur["sharing.DealerTape.bit_triple"],
        "beaver": dur["sharing.DealerTape.beaver"],
        "keyed_rng": dur["sharing.keyed_rng"],
        "mi": dur["gates.sec_mi"],
        "truncate": dur["fixedpoint.FixedPointCodec.truncate_local"],
        "sec_rs": dur["roundsel.sec_rs"],
        "stage1": dur["unlearn.stage_one"],
        "threshold": dur["unlearn.threshold_determination"],
        "sec_ue": dur["unlearn.sec_ue"] + dur["unlearn.aggregate_reveal"],
        "sec_tc": dur["unlearn.sec_tc"],
        "history_io": total(_HISTORY_IO),
    })
    return dict(out)
