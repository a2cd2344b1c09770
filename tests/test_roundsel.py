"""Round selection: the switching threshold and both comparison methods."""

import numpy as np
import pytest

from helpers import CODEC, share_pair
from starfish import (
    SelectionInputs,
    SelectionParams,
    make_inproc_sessions,
    run_pair,
    switching_threshold,
)
from starfish.costs import RS_KEY_WIDTH, comparator_calls, ge_cost, predict_cost, ranks
from starfish.errors import ConfigError
from starfish import roundsel
from starfish.oracle import PlainHistory, cosine_selection, selection_scores
from starfish.roundsel import sec_rs

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
    # with every round kept and all but one selected (so both methods sort),
    # method 2 ships fewer online bytes than method 1 from one power of two
    # on and takes fewer rounds from a later one, and neither crosses back up
    # to 2^28. The paper's auto-switch point lies above both: this engine's
    # division is cheaper than the paper's word-size model assumes, so method
    # 2 is taken later than it pays off
    def cost(t, method):
        return predict_cost("sec_rs", {"t": t, "t_prime": t - 1, "method": method}, CODEC)

    def crossover(metric):
        wins = [metric(cost(2**e, 2)) < metric(cost(2**e, 1)) for e in range(1, 29)]
        first = wins.index(True)
        assert all(wins[first:])
        return 2 ** (first + 1)

    by_bytes = crossover(lambda c: c.online_bytes)
    by_rounds = crossover(lambda c: c.rounds)
    assert (by_bytes, by_rounds) == (2**7, 2**14)
    t_delta = SelectionParams(t=1, sigma=1.0).t_delta
    assert t_delta == switching_threshold(64, 128) == 158_000_786
    assert by_rounds < 2**27 < t_delta < 2**28


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


def _run_selection(grads, norms, deltas, params, method=None, seed=7):
    gsh = share_pair(grads, key=1)
    nsh = share_pair(norms, key=2)

    def proto(sess):
        inp = SelectionInputs(
            target_grads=gsh[sess.party],
            deltas=deltas,
            target_norms=nsh[sess.party],
        )
        res = sec_rs(sess, inp, params, method=method)
        return res.indices.tolist(), res.chronological().tolist(), res.method

    sessions = make_inproc_sessions(seed)
    r0, r1 = run_pair(proto, sessions)
    assert r0 == r1
    return r0, sessions


@pytest.mark.parametrize("method", [1, 2])
def test_sec_rs_known_cosines(method):
    grads, norms, deltas = _spec_instance()
    (order, chron, meth), sessions = _run_selection(
        grads, norms, deltas, SelectionParams(t=4, sigma=0.5), method=method
    )
    # T=4, T'=2 ranks: one comparator call per pair
    assert sorted(order) == chron == [0, 3]
    assert meth == method
    assert sessions[0].meter.stats("comparator").invocations == 4 * 3 // 2


def test_full_sigma_returns_a_permutation():
    # every kept round is selected, so only the zero-norm flags are computed:
    # a comparison whose sign bits are revealed in the round of their B2A
    grads, norms, deltas = _spec_instance()
    (order, chron, _), sessions = _run_selection(
        grads, norms, deltas, SelectionParams(t=4, sigma=1.0)
    )
    assert order == chron == [0, 1, 2, 3]
    meter = sessions[0].meter
    rounds = sum(st.rounds for st in meter.per_op.values())
    assert (rounds, meter.total_online_bytes) == ge_cost(4).as_tuple()
    assert meter.stats("comparator").invocations == 0


def test_method_auto_switch(monkeypatch):
    grads, norms, deltas = _spec_instance()
    params = SelectionParams(t=4, sigma=0.5)
    monkeypatch.setattr(roundsel, "switching_threshold", lambda *_: 2)  # t exceeds it
    assert params.t_delta == 2
    (_, _, meth), _ = _run_selection(grads, norms, deltas, params)
    assert meth == 2
    monkeypatch.setattr(roundsel, "switching_threshold", lambda *_: 10)
    (_, _, meth), _ = _run_selection(grads, norms, deltas, params)
    assert meth == 1


def test_zero_norm_rounds_are_excluded():
    grads, norms, deltas = _spec_instance()
    grads = grads.copy()
    norms = norms.copy()
    grads[1] = 0.0
    norms[1] = 0.0
    (order, chron, _), _ = _run_selection(
        grads, norms, deltas, SelectionParams(t=4, sigma=1.0)
    )
    assert 1 not in order
    assert chron == [0, 2, 3]  # all survivors, fewer than t_prime


@pytest.mark.parametrize("method", [1, 2])
def test_updates_below_one_grid_step_select_by_direction(method):
    # only an exactly-zero update is degenerate; the cosine ignores the scale
    grads, norms, deltas = _spec_instance()
    deltas = deltas * np.array([1e-6, 3.0, 1e-5, 2e-6])[:, None]
    (order, chron, _), _ = _run_selection(
        grads, norms, deltas, SelectionParams(t=4, sigma=0.5), method=method
    )
    assert sorted(order) == chron == [0, 3]


# -- random instances --------------------------------------------------------------


def _instance(t, m, seed):
    """(gradients, norms, history) of one client, drawn with no tie filter:
    the secure selection equals the mirror's on any margin."""
    rng = np.random.default_rng(seed)
    grads = CODEC.quantize(rng.uniform(-2, 2, size=(t, m)))
    deltas = CODEC.quantize(rng.uniform(-2, 2, size=(t, m)))
    norms = CODEC.quantize(np.linalg.norm(grads, axis=1))
    hist = PlainHistory(models=np.vstack([np.zeros(m), np.cumsum(deltas, axis=0)]),
                        grads=grads[:, None, :], norms=norms[:, None], deltas=np.zeros((t, 1)))
    return grads, norms, hist


def test_methods_agree_on_random_instances():
    for seed in range(6):
        t = int(RNG.integers(5, 17))
        grads, norms, hist = _instance(t, 3, seed)
        params = SelectionParams(t=t, sigma=0.5)
        for method in (1, 2):
            (_, chron, _), _ = _run_selection(
                grads, norms, hist.model_updates(), params, method=method, seed=seed
            )
            want = cosine_selection(hist, 0, params.t_prime, CODEC, method=method).tolist()
            assert chron == want, (seed, method, chron, want)


# (T, T') where the T - 2 rounds with a nonzero update are all selected,
# ranked, or run through the top-k network
ZERO_UPDATE_CASES = [pytest.param(8, 6, None, id="all-kept"),
                     pytest.param(8, 3, "sec_rank", id="rank"),
                     pytest.param(18, 2, "sec_srt", id="sort")]


@pytest.mark.parametrize("method", [1, 2])
@pytest.mark.parametrize("t, t_prime, path", ZERO_UPDATE_CASES)
def test_zero_update_is_never_selected(t, t_prime, path, method):
    # an exactly-zero public update has no direction: its round leaves the
    # selection at zero rounds (here the two best-scoring rounds), and the
    # secure selection equals the mirror's
    if path:
        assert ranks(t - 2, t_prime, RS_KEY_WIDTH[method]) == (path == "sec_rank")
    grads, norms, hist = _instance(t, 3, seed=t + t_prime)
    scores, _ = selection_scores(hist, 0, CODEC)
    zero = np.argsort(-(scores[:, 0] / scores[:, 1]))[:2]
    deltas = hist.model_updates()
    deltas[zero] = 0.0
    hist.models = np.vstack([np.zeros(3), np.cumsum(deltas, axis=0)])
    updates = hist.model_updates()
    assert np.array_equal(np.flatnonzero(~updates.any(axis=1)), np.sort(zero))
    params = SelectionParams(t=t, sigma=1.0, t_prime=t_prime)
    (_, chron, _), sessions = _run_selection(grads, norms, updates, params, method=method)
    assert not set(zero.tolist()) & set(chron)
    assert chron == cosine_selection(hist, 0, t_prime, CODEC, method=method).tolist()
    # the zero-norm flags still run over all T rounds
    meter = sessions[0].meter
    got = (sum(st.rounds for st in meter.per_op.values()), meter.total_online_bytes)
    shape = {"t": t, "t_prime": t_prime, "method": method, "kept": t - 2}
    assert got == predict_cost("sec_rs", shape, CODEC).as_tuple()
    assert next((op for op in ("sec_rank", "sec_srt") if meter.stats(op).rounds), None) == path


def test_comparator_count_at_thirty_two():
    # T=32, T'=10 runs the top-k network (smaller histories at this T' rank):
    # sorted blocks of 16 (160 calls), then one merge level (16 + 4 * 8)
    grads, norms, hist = _instance(32, 3, seed=99)
    (_, _, _), sessions = _run_selection(
        grads, norms, hist.model_updates(), SelectionParams(t=32, sigma=0.3, t_prime=10)
    )
    assert sessions[0].meter.stats("comparator").invocations == comparator_calls(32, 10) == 208


def test_network_selection_where_it_undercuts_ranking():
    # the smallest history where the top-T' network, T' >= 3, ships fewer
    # bytes than ranking's comparator layer, B2A and lookup (ranks() says
    # so); the network's selection equals the mirror's at its predicted cost
    t, t_prime = next((t, k) for t in range(4, 64) for k in range(3, t) if not ranks(t, k, RS_KEY_WIDTH[1]))
    assert ranks(t - 1, t_prime, RS_KEY_WIDTH[1])
    grads, norms, hist = _instance(t, 3, seed=t + t_prime)
    params = SelectionParams(t=t, sigma=1.0, t_prime=t_prime)
    (_, chron, _), sessions = _run_selection(grads, norms, hist.model_updates(), params, method=1)
    assert chron == cosine_selection(hist, 0, t_prime, CODEC).tolist()
    meter = sessions[0].meter
    got = (sum(st.rounds for st in meter.per_op.values()), meter.total_online_bytes)
    assert got == predict_cost("sec_rs", {"t": t, "t_prime": t_prime, "method": 1}, CODEC).as_tuple()
    assert meter.stats("sec_srt").rounds and not meter.stats("sec_rank").rounds
