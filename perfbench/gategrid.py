"""Gate grid: single gates and phases timed in isolation on an inproc pair.

These are the layer figures the ROADMAP baseline quotes (sec_rec, sec_ge at
1 and 8192 lanes, sec_div, sec_rs at T=64 with both methods, sec_ue at 19
clients). Each item runs in a fresh session pair and party 0 times every
call. Items with many calls drop the first as a warm-up; the median of the
rest is reported. Every call's metered rounds and bytes must equal
predict_cost.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from starfish import costs, gates, roundsel, sharing, unlearn
from starfish.fixedpoint import FixedPointCodec


def _floats(rng, shape, lo=0.25, hi=1.0):
    sign = np.where(rng.integers(0, 2, size=shape) == 1, 1.0, -1.0)
    return rng.uniform(lo, hi, size=shape) * sign


def _share(sess, rng, values):
    return sharing.sec_share(values, sess.codec, rng)[sess.party].value


def _rec(sess, rng):
    x = _share(sess, rng, _floats(rng, (1,)))
    return lambda: sharing.sec_rec(sess, x)


def _ge(lanes):
    def prepare(sess, rng):
        u = _share(sess, rng, _floats(rng, (lanes,)))
        v = _share(sess, rng, _floats(rng, (lanes,)))
        return lambda: gates.sec_ge(sess, u, v)
    return prepare


def _div(sess, rng):
    u = _share(sess, rng, _floats(rng, (1,)))
    v = _share(sess, rng, _floats(rng, (1,), lo=0.5, hi=2.0))
    return lambda: gates.sec_div(sess, u, v)


_RS_T, _RS_M, _RS_SIGMA = 64, 4, 0.6


def _rs(method):
    def prepare(sess, rng):
        grads = _floats(rng, (_RS_T, _RS_M), lo=0.3)
        norms = np.linalg.norm(sess.codec.quantize(grads), axis=1)
        inputs = roundsel.SelectionInputs(
            target_grads=_share(sess, rng, grads),
            deltas=_floats(rng, (_RS_T, _RS_M)),
            target_norms=_share(sess, rng, norms),
        )
        params = roundsel.SelectionParams(t=_RS_T, sigma=_RS_SIGMA)
        return lambda: roundsel.sec_rs(sess, inputs, params, method=method)
    return prepare


_UE_CLIENTS, _UE_PAIRS = 19, 2


def _ue(m):
    def prepare(sess, rng):
        state = unlearn.LbfgsState(capacity=_UE_PAIRS)
        for _ in range(_UE_PAIRS):
            dg = _share(sess, rng, rng.uniform(0.5, 1.5, size=(_UE_CLIENTS, m)))
            state.push(dg, rng.uniform(0.5, 1.5, size=(m,)))
        grads = _share(sess, rng, _floats(rng, (_UE_CLIENTS, m)))
        model = np.zeros(m)

        def call():
            est = unlearn.sec_ue(sess, grads, state)
            unlearn.aggregate_reveal(sess, est, model, 0.1)
        return call
    return prepare


def _rs_shape(method):
    t_prime = roundsel.SelectionParams(t=_RS_T, sigma=_RS_SIGMA).t_prime
    return {"t": _RS_T, "t_prime": t_prime, "method": method, "kept": _RS_T}


# (metric, functionality, predict_cost shape, prepare, timed calls)
GRID = (
    ("sharing.sec_rec_s", "sec_rec", (1,), _rec, 200),
    ("gates.sec_ge_1_s", "sec_ge", (1,), _ge(1), 30),
    ("gates.sec_ge_8192_s", "sec_ge", (8192,), _ge(8192), 3),
    ("gates.sec_div_1_s", "sec_div", (1,), _div, 3),
    ("roundsel.sec_rs_t64_m1_s", "sec_rs", _rs_shape(1), _rs(1), 3),
    ("roundsel.sec_rs_t64_m2_s", "sec_rs", _rs_shape(2), _rs(2), 3),
    ("unlearn.sec_ue_n19_m8_s", "sec_ue",
     {"clients": _UE_CLIENTS, "m": 8, "pairs": _UE_PAIRS}, _ue(8), 10),
    ("unlearn.sec_ue_n19_m32_s", "sec_ue",
     {"clients": _UE_CLIENTS, "m": 32, "pairs": _UE_PAIRS}, _ue(32), 5),
)


def _meter(sess) -> tuple[int, int]:
    return (sum(st.rounds for st in sess.meter.per_op.values()),
            sess.meter.total_online_bytes)


def run(seed: int) -> tuple[dict, list]:
    """Returns ({metric: median seconds}, [cost mismatch descriptions])."""
    codec = FixedPointCodec()
    times: dict = {}
    mismatches: list = []
    for idx, (metric, functionality, shape, prepare, calls) in enumerate(GRID):
        want = costs.predict_cost(functionality, shape, codec).as_tuple()

        def proto(sess):
            call = prepare(sess, np.random.default_rng((seed, idx)))
            samples = []
            warmup = 1 if calls >= 10 else 0
            for _ in range(calls + warmup):
                before = _meter(sess)
                t0 = time.perf_counter()
                call()
                samples.append(time.perf_counter() - t0)
                after = _meter(sess)
                got = (after[0] - before[0], after[1] - before[1])
                if sess.party == 0 and got != want:
                    mismatches.append(f"{metric}: metered {got} != predicted {want}")
            return samples[warmup:]

        samples, _ = sharing.run_pair(proto, sharing.make_inproc_sessions(seed, codec=codec))
        times[metric] = statistics.median(samples)
    return times, mismatches
