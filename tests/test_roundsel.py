"""Round selection: the switching threshold, both methods, both variants."""

import numpy as np
import pytest

from helpers import CODEC, raw_share_pair, reveal_raw, share_pair
from starfish import (
    SelectionInputs,
    SelectionParams,
    make_inproc_sessions,
    run_pair,
    switching_threshold,
)
from starfish.costs import comparator_calls, predict_cost
from starfish.errors import ConfigError, DegenerateRoundError
from starfish.gates import sec_ge
from starfish.roundsel import sec_ge3, sec_ge4, sec_rs, sec_rs_alt

RNG = np.random.default_rng(11)


# -- switching threshold -------------------------------------------------------


def test_switching_threshold_production_parameters():
    assert switching_threshold(64, 128) == 158000786


def test_switching_threshold_degenerate_case():
    assert switching_threshold(1, 0) == 7


def test_switching_threshold_monotone_in_word_size():
    assert switching_threshold(128, 128) > switching_threshold(64, 128)
    assert switching_threshold(64, 40) < switching_threshold(64, 128)


def test_switching_threshold_matches_cost_crossover():
    # with every round kept, the cost model's online bytes cross over
    # between 2^27 and 2^28 rounds, and the auto-switch point lies there too
    def online(t, method):
        shape = {"t": t, "t_prime": t, "method": method}
        return predict_cost("sec_rs", shape, CODEC).online_bytes

    below, above = 2**27, 2**28
    assert online(below, 1) == 7_338_991_873_248 < online(below, 2) == 7_368_083_565_056
    assert online(above, 2) == 15_638_579_968_448 < online(above, 1) == 15_760_785_210_976
    t_delta = SelectionParams(t=1, sigma=1.0).t_delta
    assert t_delta == switching_threshold(64, 128) == 158_000_786
    assert below < t_delta < above


def test_switching_threshold_validation():
    with pytest.raises(ConfigError):
        switching_threshold(0, 128)
    with pytest.raises(ConfigError):
        switching_threshold(64, -1)


# -- parameters ------------------------------------------------------------------


def test_selection_params_defaults():
    p = SelectionParams(t=10, sigma=0.6)
    assert p.t_prime == 6
    assert p.t_delta == switching_threshold(64, 128)


def test_selection_params_validation():
    with pytest.raises(ConfigError):
        SelectionParams(t=10, sigma=0.0)
    with pytest.raises(ConfigError):
        SelectionParams(t=10, sigma=1.5)
    with pytest.raises(ConfigError):
        SelectionParams(t=0, sigma=0.5)
    with pytest.raises(ConfigError):
        SelectionParams(t=4, sigma=0.5, t_prime=9)


# -- the known-cosine instance ----------------------------------------------------


def _spec_instance():
    # per-round cosines against a fixed unit update: 1.0, 0.0, -1.0, 0.5
    grads = CODEC.quantize(
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, np.sqrt(3.0)]])
    )
    norms = CODEC.quantize(np.linalg.norm(grads, axis=1))
    deltas = np.tile(CODEC.quantize(np.array([1.0, 0.0])), (4, 1))
    return grads, norms, deltas


def _run_selection(fn, grads, norms, deltas, params, method=None, seed=7, keys=(1, 2)):
    gsh = share_pair(grads, key=keys[0])
    nsh = None if norms is None else share_pair(norms, key=keys[1])

    def proto(sess):
        inp = SelectionInputs(
            target_grads=gsh[sess.party],
            deltas=deltas,
            target_norms=None if nsh is None else nsh[sess.party],
        )
        res = fn(sess, inp, params, method=method)
        return res.indices.tolist(), res.chronological().tolist(), res.method

    sessions = make_inproc_sessions(seed)
    r0, r1 = run_pair(proto, sessions)
    assert r0 == r1
    return r0, sessions


@pytest.mark.parametrize("method", [1, 2])
def test_sec_rs_known_cosines(method):
    grads, norms, deltas = _spec_instance()
    (order, chron, meth), sessions = _run_selection(
        sec_rs, grads, norms, deltas, SelectionParams(t=4, sigma=0.5), method=method
    )
    assert order == [0, 3]  # best similarity first
    assert chron == [0, 3]
    assert meth == method
    assert sessions[0].meter.stats("comparator").invocations == comparator_calls(4)


@pytest.mark.parametrize("method", [1, 2])
def test_sec_rs_alt_matches_on_the_same_instance(method):
    grads, _, deltas = _spec_instance()
    (order, chron, _), _ = _run_selection(
        sec_rs_alt, grads, None, deltas, SelectionParams(t=4, sigma=0.5), method=method
    )
    assert chron == [0, 3]


def test_full_sigma_returns_a_permutation():
    grads, norms, deltas = _spec_instance()
    (order, chron, _), _ = _run_selection(
        sec_rs, grads, norms, deltas, SelectionParams(t=4, sigma=1.0)
    )
    assert order == [0, 3, 1, 2]  # descending cosine
    assert chron == [0, 1, 2, 3]


def test_alt_sign_dominance():
    # a tiny positive cosine must outrank a large negative one
    grads = CODEC.quantize(np.array([[-3.0, 0.0], [0.1, 0.0]]))
    deltas = np.tile(CODEC.quantize(np.array([1.0, 0.0])), (2, 1))
    (order, _, _), _ = _run_selection(
        sec_rs_alt, grads, None, deltas, SelectionParams(t=2, sigma=0.5)
    )
    assert order == [1]


def test_method_auto_switch():
    grads, norms, deltas = _spec_instance()
    params = SelectionParams(t=4, sigma=0.5, t_delta=2)  # t exceeds the threshold
    (_, _, meth), _ = _run_selection(sec_rs, grads, norms, deltas, params)
    assert meth == 2
    params = SelectionParams(t=4, sigma=0.5, t_delta=10)
    (_, _, meth), _ = _run_selection(sec_rs, grads, norms, deltas, params)
    assert meth == 1


def test_zero_norm_rounds_are_excluded():
    grads, norms, deltas = _spec_instance()
    grads = grads.copy()
    norms = norms.copy()
    grads[1] = 0.0
    norms[1] = 0.0
    (order, chron, _), _ = _run_selection(
        sec_rs, grads, norms, deltas, SelectionParams(t=4, sigma=1.0)
    )
    assert 1 not in order
    assert chron == [0, 2, 3]  # all survivors, fewer than t_prime


def test_degenerate_update_raises():
    grads, norms, _ = _spec_instance()
    deltas = np.zeros((4, 2))
    with pytest.raises(DegenerateRoundError):
        _run_selection(sec_rs, grads, norms, deltas, SelectionParams(t=4, sigma=0.5))


def test_sec_rs_requires_norms():
    grads, _, deltas = _spec_instance()
    with pytest.raises(ConfigError):
        _run_selection(sec_rs, grads, None, deltas, SelectionParams(t=4, sigma=0.5))


# -- random tie-free instances -----------------------------------------------------


def _tie_free_instance(t, m, seed):
    rng = np.random.default_rng(seed)
    while True:
        grads = CODEC.quantize(rng.uniform(-2, 2, size=(t, m)))
        deltas = CODEC.quantize(rng.uniform(-2, 2, size=(t, m)))
        norms = CODEC.quantize(np.linalg.norm(grads, axis=1))
        dnorms = np.linalg.norm(deltas, axis=1)
        if np.any(norms == 0) or np.any(CODEC.encode(dnorms) == 0):
            continue
        scores = (grads * CODEC.quantize(deltas)).sum(axis=1) / (norms * CODEC.quantize(dnorms))
        gaps = np.abs(np.subtract.outer(scores, scores))
        if np.min(gaps[~np.eye(t, dtype=bool)]) > 1e-3:
            return grads, norms, deltas, scores


def test_methods_agree_on_random_instances():
    for seed in range(6):
        t = int(RNG.integers(5, 17))
        grads, norms, deltas, scores = _tie_free_instance(t, 3, seed)
        params = SelectionParams(t=t, sigma=0.5)
        want = np.sort(np.argsort(-scores, kind="stable")[: params.t_prime]).tolist()
        picks = []
        for fn, method in ((sec_rs, 1), (sec_rs, 2), (sec_rs_alt, 1), (sec_rs_alt, 2)):
            norms_arg = norms if fn is sec_rs else None
            (_, chron, _), _ = _run_selection(
                fn, grads, norms_arg, deltas, params, method=method, seed=seed
            )
            picks.append(chron)
        assert all(p == want for p in picks), (seed, picks, want)


def test_comparator_count_at_sixteen():
    grads, norms, deltas, _ = _tie_free_instance(16, 3, seed=99)
    (_, _, _), sessions = _run_selection(
        sec_rs, grads, norms, deltas, SelectionParams(t=16, sigma=0.5)
    )
    assert sessions[0].meter.stats("comparator").invocations == comparator_calls(16) == 80


# -- the sign-aware comparators -----------------------------------------------------


def test_sign_aware_comparator_grid():
    # exhaustive over sign pairs and magnitude order; the contract is the
    # collapsed rule f = 1 - w2 + z*(w1 + w2 - 1) with z = [b1 >= b2]
    cases = []
    for w1 in (0, 1):
        for w2 in (0, 1):
            for b1, b2 in ((2.0, 1.0), (1.0, 2.0), (1.5, 1.5)):
                z = int(b1 >= b2)
                f = 1 - w2 + z * (w1 + w2 - 1)
                s1 = (b1 if w1 else -b1)
                s2 = (b2 if w2 else -b2)
                if s1 != s2:
                    assert f == int(s1 >= s2)  # ties aside, it is the true order
                cases.append((w1, b1, w2, b2, f))

    w1s = raw_share_pair(np.array([c[0] for c in cases], dtype=np.uint64), key=31)
    b1s = share_pair(np.array([c[1] for c in cases]), key=32)
    w2s = raw_share_pair(np.array([c[2] for c in cases], dtype=np.uint64), key=33)
    b2s = share_pair(np.array([c[3] for c in cases]), key=34)

    def proto(sess):
        f = sec_ge3(
            sess, w1s[sess.party], b1s[sess.party], w2s[sess.party], b2s[sess.party]
        )
        return reveal_raw(sess, f).tolist()

    r0, r1 = run_pair(proto, make_inproc_sessions(35))
    assert r0 == r1 == [c[4] for c in cases]


def test_sign_aware_ratio_comparator():
    # same order relation with the ratio held as (numerator, denominator)
    cases = [
        (1, 1.0, 2.0, 1, 1.0, 4.0, 1),   # 0.5 >= 0.25
        (1, 1.0, 4.0, 1, 1.0, 2.0, 0),
        (0, 1.0, 2.0, 1, 1.0, 8.0, 0),   # negative loses to positive
        (1, 1.0, 8.0, 0, 1.0, 2.0, 1),
        (0, 1.0, 2.0, 0, 1.0, 4.0, 0),   # -1/2 < -1/4: larger magnitude loses
        (0, 1.0, 4.0, 0, 1.0, 2.0, 1),
    ]
    w1s = raw_share_pair(np.array([c[0] for c in cases], dtype=np.uint64), key=36)
    a1s = share_pair(np.array([c[1] for c in cases]), key=37)
    v1s = share_pair(np.array([c[2] for c in cases]), key=38)
    w2s = raw_share_pair(np.array([c[3] for c in cases], dtype=np.uint64), key=39)
    a2s = share_pair(np.array([c[4] for c in cases]), key=40)
    v2s = share_pair(np.array([c[5] for c in cases]), key=41)

    def proto(sess):
        p = sess.party
        f = sec_ge4(sess, w1s[p], a1s[p], v1s[p], w2s[p], a2s[p], v2s[p])
        return reveal_raw(sess, f).tolist()

    r0, r1 = run_pair(proto, make_inproc_sessions(42))
    assert r0 == r1 == [c[6] for c in cases]
