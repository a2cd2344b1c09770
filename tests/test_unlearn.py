"""Stage I history, the stage II building blocks, and the full pipeline."""

import random
from dataclasses import dataclass

import numpy as np
import pytest

from helpers import CODEC, both, reveal, share_pair
from starfish import (
    ClientPool,
    HistoryStore,
    LbfgsState,
    StarfishError,
    UnlearnConfig,
    logistic_task,
    make_inproc_sessions,
    plaintext_starfish,
    quadratic_task,
    run_pair,
    simulate,
)
from starfish.cli import RunConfig
from starfish.costs import predict_cost, words_round
from starfish.errors import ConfigError
from starfish.oracle import plaintext_history
from starfish.unlearn import (
    _SFH1,
    client_check,
    client_fold,
    clients_stage_one,
    sec_ue,
    stage_one,
    starfish_run,
)


@dataclass
class StubClient:
    vec: np.ndarray
    weight: int = 1

    def gradient(self, model):
        return self.vec


def stub_pool(*vectors):
    vecs = [np.asarray(v, dtype=np.float64) for v in vectors]
    return ClientPool(
        clients=[StubClient(v) for v in vecs],
        initial_model=np.zeros(vecs[0].size),
    )


# -- the clients' stage-I step ------------------------------------------------


def test_client_round_quantile_example():
    pool = stub_pool([0.1, 0.2, 0.3, 0.4, 0.5], [0.0] * 5)
    g, norm, delta = clients_stage_one(pool, pool.initial_model, alpha=0.4, codec=CODEC)
    assert np.array_equal(g[0], CODEC.quantize([0.1, 0.2, 0.3, 0.4, 0.5]))
    assert norm[0] == float(np.linalg.norm(g[0]))
    # exactly a 0.4 fraction of coordinates strictly exceeds the threshold
    assert delta[0] == float(CODEC.quantize(0.3))
    assert np.mean(np.abs(g[0]) > delta[0]) == 0.4


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.4, 0.7, 0.99])
@pytest.mark.parametrize("m", [1, 5, 7, 32, 33])
def test_client_round_threshold_is_the_lower_quantile(alpha, m):
    # every client of the batch takes the quantile of its own row
    vec = np.random.default_rng(m).normal(size=m)
    _, _, delta = clients_stage_one(stub_pool(vec, 2.0 * vec[::-1]), np.zeros(m), alpha=alpha, codec=CODEC)
    assert delta[0] == float(np.quantile(np.abs(CODEC.quantize(vec)), 1.0 - alpha, method="lower"))
    assert delta[1] == float(np.quantile(np.abs(CODEC.quantize(2.0 * vec)), 1.0 - alpha, method="lower"))


def test_client_round_full_alpha_pins_zero():
    pool = stub_pool([0.5, -0.25], [0.0, 0.0])
    _, _, delta = clients_stage_one(pool, pool.initial_model, alpha=1.0, codec=CODEC)
    assert delta.tolist() == [0.0, 0.0]


def test_client_round_zero_gradient():
    # a zero-gradient client in a batch with others: its norm and threshold
    # are zero, and the others' values are those they take alone
    pool = stub_pool([0.0, 0.0], [1.0, 1.0], [0.5, -0.25])
    g, norm, delta = clients_stage_one(pool, pool.initial_model, alpha=0.4, codec=CODEC)
    assert not np.any(g[0])
    assert norm[0] == 0.0
    assert delta[0] == 0.0
    for j in (1, 2):
        alone = clients_stage_one(stub_pool(pool.clients[j].vec), pool.initial_model, alpha=0.4, codec=CODEC)
        assert all(np.array_equal(got[j], own[0]) for got, own in zip((g, norm, delta), alone))
        assert norm[j] > 0.0 and delta[j] > 0.0


# -- gradient estimation -------------------------------------------------------


def reveal_estimates(sess, x):
    """Open estimates, which sec_ue forms at 2^-2p."""
    return reveal(sess, x) / sess.codec.scale


def test_sec_ue_empty_buffer_is_identity():
    # no B has taken a pair: the estimate is the stored gradient, at no cost,
    # with or without a displacement
    g = CODEC.quantize(np.array([[0.7, -0.4]]))
    gsh = share_pair(g, key=3)

    def proto(sess):
        state = LbfgsState(capacity=2)
        est = sec_ue(sess, gsh[sess.party], state)
        state.push(gsh[sess.party], np.array([1.0, 0.0]))
        return reveal_estimates(sess, np.concatenate([est, sec_ue(sess, gsh[sess.party], state, np.ones(2))]))

    got, sessions = both(proto)
    assert np.array_equal(got, np.concatenate([g, g]))
    assert sessions[0].meter.stats("sec_ue").bytes_online == 0


def test_sec_ue_unit_secant_reproduces_the_gradient():
    # a client's first pair gives B s = y exactly (the secant condition), so
    # the estimate on its shared B at the pair's own displacement is the
    # exact gradient, up to B's encoding; the product itself is exact
    g = CODEC.quantize(np.array([[0.7, -0.4]]))
    y = CODEC.quantize(np.array([[1.0, 0.5]]))
    dm = np.array([1.0, 0.0])
    curv, curved = np.zeros((1, 2, 2)), np.zeros(1, dtype=bool)
    client_fold(curv, curved, np.array([0]), y, dm, CODEC)
    assert curved.tolist() == [True]
    assert np.allclose(curv @ dm, y, atol=1e-12)
    gsh, bsh = share_pair(g, key=4), share_pair(curv, key=5)

    def proto(sess):
        state = LbfgsState(capacity=2, curvature=bsh[sess.party])
        return reveal_estimates(sess, sec_ue(sess, gsh[sess.party], state, dm))

    got, sessions = both(proto)
    assert np.array_equal(got, g + CODEC.quantize(curv) @ dm)
    assert np.max(np.abs(got - (g + y))) <= 1e-3
    assert sessions[0].meter.stats("sec_ue").rounds == 0


@pytest.mark.parametrize("dealer_seed", [0, 1])
@pytest.mark.parametrize("units", [-3, -1, 0, 1, 2, 3])
def test_client_fold_skips_near_zero_curvature_on_any_dealer(dealer_seed, units):
    # y's is 0-3 raw units from zero, below |s|^2 / 2: the client skips the
    # pair in the clear and keeps no B. Shared, that zero B adds exactly
    # zero on any dealer stream, so the estimate is the input
    ulp = 2.0 ** -CODEC.precision_p
    y = np.array([[units * ulp, 1.0]])
    dm = np.array([1.0, 0.0])
    curv, curved = np.zeros((1, 2, 2)), np.zeros(1, dtype=bool)
    client_fold(curv, curved, np.array([0]), y, dm, CODEC)
    assert not curved.any() and not curv.any()
    g = CODEC.quantize(np.array([[0.7, -0.4]]))
    gsh, bsh = share_pair(g, key=6), share_pair(curv, key=7)

    def proto(sess):
        state = LbfgsState(capacity=2, curvature=bsh[sess.party])
        return reveal_estimates(sess, sec_ue(sess, gsh[sess.party], state, dm))

    got, _ = both(proto, seed=dealer_seed)
    assert np.array_equal(got, g)


def test_client_fold_folds_fresh_and_curved_pairs():
    # two batches: every client's first pair, client 2's skipped (it curves
    # down along s), then second pairs for clients 0 and 3, which hold a B,
    # and client 2, which does not yet. A fresh B is gamma (I - ss'/|s|^2)
    # + yy'/y's, and every kept pair meets the secant condition B s = y
    n, m = 4, 3
    rng = np.random.default_rng(11)
    basis = rng.uniform(-1.0, 1.0, size=(n, m, m))
    hess = np.eye(m) * 2.0 + 0.2 * (basis + np.swapaxes(basis, 1, 2))
    dms = rng.uniform(0.5, 1.5, size=(2, m))
    ys = CODEC.quantize(hess @ CODEC.quantize(dms).T).transpose(2, 0, 1)
    ys[0, 2] = -ys[0, 2]
    rows = [np.arange(n), np.array([0, 2, 3])]
    curv, curved = np.zeros((n, m, m)), np.zeros(n, dtype=bool)

    client_fold(curv, curved, rows[0], ys[0], dms[0], CODEC)
    assert curved.tolist() == [True, True, False, True]
    assert not curv[2].any()
    s, y = CODEC.quantize(dms[0]), ys[0, 0]
    fresh = (y @ y) / (y @ s) * (np.eye(m) - np.outer(s, s) / (s @ s)) + np.outer(y, y) / (y @ s)
    assert np.allclose(curv[0], fresh, atol=1e-12)
    assert np.allclose(curv[[0, 1, 3]] @ s, ys[0, [0, 1, 3]], atol=1e-9)
    untouched = curv[1].copy()

    client_fold(curv, curved, rows[1], ys[1][rows[1]], dms[1], CODEC)
    assert curved.tolist() == [True] * n
    assert np.array_equal(curv[1], untouched)
    assert np.allclose(curv, np.swapaxes(curv, 1, 2), atol=1e-12)
    assert np.allclose(curv[rows[1]] @ CODEC.quantize(dms[1]), ys[1][rows[1]], atol=1e-9)


class _CountingPool(ClientPool):
    """A client pool that logs every gradient request. Both party threads
    call it; list.append is atomic where a += on a counter is not."""

    def __init__(self, pool):
        super().__init__(clients=pool.clients, initial_model=pool.initial_model)
        self.calls = []

    def gradient(self, j, model):
        self.calls.append(j)
        return super().gradient(j, model)


@pytest.mark.parametrize("buffer_b", [0, 2])
def test_clients_fold_only_with_a_warm_up(buffer_b):
    # at a checking round every remaining client recomputes its stage-I
    # gradient to check its estimate, and a flagged client folds with that
    # gradient; in a warm-up round each client recomputes it to fold, so an
    # exact gradient there costs two calls. At buffer_b = 0 nobody folds
    task, cfg = _small_run(beta=0.25, buffer_b=buffer_b)
    pool = _CountingPool(task.pool())
    res, _, _ = simulate(cfg, pool, target=1)
    warm = min(buffer_b, len(res.selected)) * (cfg.n - 1)
    assert res.check_rounds > 0 and sum(res.corrections.values()) > 0
    # both parties simulate every client; stage I asks each client once a round
    assert len(pool.calls) // 2 - cfg.n * cfg.t == (
        2 * warm + res.check_rounds * (cfg.n - 1) + sum(res.corrections.values()))
    plain = plaintext_starfish(cfg, task, target=1)
    assert [r["flags"] for r in res.transcript if r["op"] == "sec_tc"] == [f for _, f in plain.check_flags]


# -- correction flags ------------------------------------------------------------


def _run_tc(estimates, thresholds):
    # a check's flags (its sec_tc record) are client_check's: with B = 0 the
    # estimate is the stage-I gradient itself
    est = CODEC.quantize(estimates)
    curv = np.zeros(est.shape + est.shape[-1:])
    return client_check(est, curv, np.ones(est.shape[-1]), thresholds, CODEC).astype(int).tolist()


def test_sec_tc_fires_on_a_large_coordinate():
    assert _run_tc(np.array([[0.5, 0.1]]), np.array([0.3])) == [1]


def test_sec_tc_quiet_below_threshold():
    assert _run_tc(np.zeros((1, 2)), np.array([0.3])) == [0]
    assert _run_tc(np.array([[0.1, 0.2]]), np.array([0.3])) == [0]


def test_sec_tc_zero_threshold_always_fires():
    assert _run_tc(np.zeros((1, 2)), np.array([0.0])) == [1]


def test_sec_tc_batched_clients():
    est = np.array([[0.5, 0.0], [0.0, 0.0], [0.0, -0.9]])
    thr = np.array([0.3, 0.3, 0.3])
    assert _run_tc(est, thr) == [1, 0, 1]


def test_sec_tc_checks_the_estimate_on_the_grid():
    # the estimate is g + B quantize(dm); |x| equal to the grid threshold fires
    g = CODEC.quantize(np.array([[0.25, 0.0], [0.25, 0.0]]))
    curv = np.array([np.eye(2), np.zeros((2, 2))])
    thr = np.array([0.5 + 2.0 ** -15, 0.5])  # the first snaps to 0.5 and fires
    assert client_check(g, curv, [0.25, 0.1], thr, CODEC).tolist() == [True, False]
    assert client_check(g, curv, [0.25, 0.1], [0.5, 0.25], CODEC).tolist() == [True, True]


# -- history persistence -----------------------------------------------------------


def test_history_store_roundtrip(tmp_path):
    task = quadratic_task(3, 4, seed=1)
    cfg = UnlearnConfig(n=3, m=4, t=5, sigma=0.6, alpha=0.4, beta=0.5,
                        buffer_b=1, eta_l=0.05, eta_u=0.1, seed=1)
    n, m, t = cfg.n, cfg.m, cfg.t

    def proto(sess):
        hist = stage_one(sess, task.pool(), cfg)
        path = tmp_path / f"h{sess.party}.sfh1"
        hist.save(path)
        # version 3: models, grads and norms; the clients keep their thresholds
        assert path.read_bytes()[4] == 3
        assert path.stat().st_size == _SFH1.size + 8 * ((t + 1) * m + t * n * m + t * n)
        back = HistoryStore.load(path)
        assert back.party == sess.party
        assert back.codec == sess.codec
        assert back.eta_l == cfg.eta_l
        assert np.array_equal(back.models, hist.models)
        assert np.array_equal(back.grads, hist.grads)
        assert np.array_equal(back.norms, hist.norms)
        return hist.models

    both(proto, seed=1)


def test_history_store_rejects_foreign_files(tmp_path):
    path = tmp_path / "not-history"
    path.write_bytes(b"PNG\x00" * 10)
    with pytest.raises(ConfigError):
        HistoryStore.load(path)


def test_history_model_updates():
    hist = HistoryStore(
        party=0, codec=CODEC, eta_l=0.1,
        models=np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 2.0]]),
        grads=np.zeros((2, 1, 2), dtype=np.uint64),
        norms=np.zeros((2, 1), dtype=np.uint64),
    )
    assert np.array_equal(hist.model_updates(), [[1.0, 2.0], [2.0, 0.0]])


# -- stage I ---------------------------------------------------------------------


def test_stage_one_matches_plaintext_models():
    task = quadratic_task(3, 4, mu=1.0, lam_max=1.1, lip=1.1, seed=2)
    cfg = UnlearnConfig(n=3, m=4, t=6, sigma=0.6, alpha=0.4, beta=0.5,
                        buffer_b=1, eta_l=0.08, eta_u=0.2, seed=2)
    mirror = plaintext_history(cfg, task.pool(), CODEC)
    h0, h1 = run_pair(lambda sess: stage_one(sess, task.pool(), cfg), make_inproc_sessions(cfg.seed, codec=CODEC))
    # grid-value sums are exact in float64, so the tracks agree bit for bit
    assert np.array_equal(h0.models, mirror.models) and np.array_equal(h1.models, mirror.models)
    # the shares hold the mirror's quantized gradients and norms exactly
    assert np.array_equal(np.add(h0.grads, h1.grads), CODEC.encode(mirror.grads))
    assert np.array_equal(np.add(h0.norms, h1.norms), CODEC.encode(mirror.norms))
    # each round's block is split once, and no mask is used twice: party 0's
    # T n (m + 1) words are pairwise distinct
    words = np.concatenate([h0.grads.ravel(), h0.norms.ravel()])
    assert np.unique(words).size == words.size == cfg.t * cfg.n * (cfg.m + 1)


def test_stage_one_round_callback():
    task = quadratic_task(2, 2, seed=5)
    cfg = UnlearnConfig(n=2, m=2, t=3, eta_l=0.05, seed=5)
    seen = {0: [], 1: []}

    def proto(sess):
        hist = stage_one(
            sess, task.pool(), cfg,
            on_round=lambda i, model: seen[sess.party].append((i, model.copy())),
        )
        return hist.models

    got, _ = both(proto, seed=5)
    for party in (0, 1):
        assert [i for i, _ in seen[party]] == [0, 1, 2]
        for i, model in seen[party]:
            assert np.array_equal(model, got[i + 1])


@pytest.mark.parametrize("overrides", [{}, {"n": 20, "m": 32, "t": 12}], ids=["cli-default", "n20-m32"])
def test_stage_one_shares_each_clients_max_threshold(overrides):
    # no client shares a threshold: each keeps the max of its own, which
    # stage I leaves with the pool next to the public models. They equal the
    # mirror's bit for bit, and the mirror's replay leaves the same
    run = RunConfig(**overrides)
    cfg, codec = run.unlearn_config(), run.codec()
    mirror = plaintext_history(cfg, run.build_task().pool(), codec)
    pool = run.build_task().pool()

    hists = run_pair(lambda sess: stage_one(sess, pool, cfg), make_inproc_sessions(cfg.seed, codec=codec))
    assert np.array_equal(pool.max_thresholds(hists[0].models), mirror.deltas.max(axis=0))
    assert np.array_equal(pool.trained[0], mirror.models)
    replayed = run.build_task().pool()
    plaintext_history(cfg, replayed, codec)
    assert all(np.array_equal(a, b) for a, b in zip(replayed.trained, pool.trained))


# -- full stage II ------------------------------------------------------------------


def _small_run(beta=0.5, buffer_b=2, alpha=0.5, seed=0):
    task = quadratic_task(3, 4, mu=1.0, lam_max=1.1, lip=1.1, spread=1.5,
                          start=1.2, heterogeneity=0.2, seed=seed)
    cfg = UnlearnConfig(n=3, m=4, t=8, sigma=0.6, alpha=alpha, beta=beta,
                        buffer_b=buffer_b, eta_l=0.08, eta_u=0.3, seed=seed)
    return task, cfg


def test_pipeline_matches_the_float_mirror():
    task, cfg = _small_run()
    res, hists, sessions = simulate(cfg, task.pool(), target=0)
    plain = plaintext_starfish(cfg, task, target=0)
    assert np.array_equal(res.selected, plain.selected)
    assert res.corrections == plain.corrections
    sec_flags = [r["flags"] for r in res.transcript if r["op"] == "sec_tc"]
    assert sec_flags == [f for _, f in plain.check_flags]
    assert np.array_equal(res.trajectory, plain.trajectory)


def _mirror_sweep_configs(count=40, seed=46):
    """(task kind, config keys, target): a quadratic case whose cosines are
    all +-1 (m = 1), so selection rests on tie-breaking alone, then count
    random configs over both tasks at their defaults."""
    rng = random.Random(seed)
    cases = [("quadratic", dict(n=3, m=1, t=26, sigma=0.2, alpha=1.0, beta=0.1, buffer_b=0, seed=408928), 2)]
    for _ in range(count):
        n = rng.randint(2, 12)
        cases.append((rng.choice(["quadratic", "logistic"]),
                      dict(n=n, m=rng.randint(1, 12), t=rng.randint(1, 40),
                           sigma=rng.choice([0.05, 0.2, 0.5, 0.6, 0.9, 1.0]), alpha=rng.choice([0.1, 0.4, 0.7, 1.0]),
                           beta=rng.choice([0.05, 0.1, 0.3, 1.0, 2.0]), buffer_b=rng.randint(0, 4),
                           seed=rng.randrange(10**6)),
                      rng.randrange(n)))
    return cases


def test_random_configs_equal_their_mirror():
    # the secure run and its plaintext mirror compute the same integers: the
    # selection, every check's flags, the corrections and the whole
    # trajectory are equal, and a run that fails raises a StarfishError
    kinds = {"quadratic": quadratic_task, "logistic": logistic_task}
    cases = _mirror_sweep_configs()
    assert {kind for kind, _, _ in cases} == set(kinds)
    assert any(keys["m"] == 1 for _, keys, _ in cases) and any(keys["buffer_b"] == 0 for _, keys, _ in cases)
    for kind, keys, target in cases:
        task = kinds[kind](keys["n"], keys["m"], seed=keys["seed"])
        cfg = UnlearnConfig(**keys)
        try:
            res, _, _ = simulate(cfg, task.pool(), target)
            plain = plaintext_starfish(cfg, task, target)
        except StarfishError:
            continue
        case = (kind, keys, target)
        assert np.array_equal(res.selected, plain.selected), case
        assert [r["flags"] for r in res.transcript if r["op"] == "sec_tc"] == [f for _, f in plain.check_flags], case
        assert res.corrections == plain.corrections, case
        assert np.array_equal(res.trajectory, plain.trajectory), case


def test_transcript_structure():
    task, cfg = _small_run()
    res, _, sessions = simulate(cfg, task.pool(), target=1)
    ops = [r["op"] for r in res.transcript]
    assert ops[0] == "sec_rs"
    assert set(ops[1:]) <= {"sec_ue", "sec_tc"}
    tc_records = [r for r in res.transcript if r["op"] == "sec_tc"]
    # warm-up rounds take every exact gradient and run no check
    checks = sum(i % cfg.t_c == 0 for i in range(cfg.buffer_b + 1, len(res.selected) + 1))
    assert len(tc_records) == res.check_rounds == checks > 0
    for rec in tc_records:
        assert len(rec["flags"]) == cfg.n - 1
    for rec in res.transcript:
        if rec["op"] != "sec_tc":
            assert rec["flags"] is None
    # each record holds its phase's traffic alone: the fixed-size phases
    # match their predictions, and the records add up to everything metered
    # after stage I's t model reveals. The clients check their own estimates
    # and send only their flags, so a check record is 0 rounds and 0 bytes
    tc = predict_cost("sec_tc", {"clients": cfg.n - 1, "m": cfg.m}, CODEC)
    assert tc.as_tuple() == (0, 0)
    assert all((rec["rounds"], rec["bytes"]) == (0, 0) for rec in tc_records)
    # an estimate round is one aggregate reveal of m words: the clients fold
    # and share their own B at no round, so a request's rounds and bytes
    # follow from public sizes and revealed flags alone
    ue_records = [r for r in res.transcript if r["op"] == "sec_ue"]
    assert len(ue_records) == len(res.selected)
    ue = predict_cost("sec_ue", {"clients": cfg.n - 1, "m": cfg.m}, CODEC)
    assert ue.as_tuple() == words_round(cfg.m).as_tuple()
    assert all((rec["rounds"], rec["bytes"]) == ue.as_tuple() for rec in ue_records)
    meter = sessions[0].meter
    stage_two = (sum(st.rounds for st in meter.per_op.values()) - cfg.t,
                 meter.total_online_bytes - cfg.t * words_round(cfg.m).online_bytes)
    assert tuple(sum(rec[k] for rec in res.transcript) for k in ("rounds", "bytes")) == stage_two
    # jsonl rendering: one record per line
    lines = res.transcript_jsonl().strip().split("\n")
    assert len(lines) == len(res.transcript)


def test_estimation_only_mode_is_gradient_descent_on_the_history():
    # beta > 1 never checks; an empty buffer never folds: the recovery is
    # plain descent on the stored gradients and matches the mirror bitwise
    task, cfg = _small_run(beta=2.0, buffer_b=0)
    res, _, _ = simulate(cfg, task.pool(), target=0)
    plain = plaintext_starfish(cfg, task, target=0)
    assert res.check_rounds == 0
    assert "sec_tc" not in [r["op"] for r in res.transcript]
    assert np.array_equal(res.trajectory, plain.trajectory)
    assert all(v == 0 for v in res.corrections.values())
    # at t_c == T' the last selected round checks
    task, cfg = _small_run(beta=0.6, buffer_b=0)
    assert cfg.t_c == cfg.t_prime
    res, _, _ = simulate(cfg, task.pool(), target=0)
    plain = plaintext_starfish(cfg, task, target=0)
    assert res.check_rounds == 1
    assert [r["flags"] for r in res.transcript if r["op"] == "sec_tc"] == [f for _, f in plain.check_flags]


@pytest.mark.parametrize("beta, checks", [(0.75, 0), (0.25, 1)], ids=["estimation-only", "checking"])
def test_stage_two_starts_at_selection_without_a_max(beta, checks):
    # the thresholds come from stage I, so no sec_max runs in stage II, with
    # or without checking rounds; the trajectory equals the mirror's.
    # At beta=0.25 (t_c=2) the two warm-up rounds leave round 4 to check
    task, cfg = _small_run(beta=beta, buffer_b=2)
    res, _, sessions = simulate(cfg, task.pool(), target=1)
    plain = plaintext_starfish(cfg, task, target=1)
    assert res.transcript[0]["op"] == "sec_rs"
    assert res.check_rounds == checks
    assert "sec_max" not in sessions[0].meter.per_op
    assert np.array_equal(res.selected, plain.selected)
    assert [r["flags"] for r in res.transcript if r["op"] == "sec_tc"] == [f for _, f in plain.check_flags]
    assert np.array_equal(res.trajectory, plain.trajectory)


def test_simulate_rejects_bad_target():
    task, cfg = _small_run()
    with pytest.raises(ConfigError):
        simulate(cfg, task.pool(), target=7)


# -- the clients' state across requests -----------------------------------------------


def _stage_two(hists, pool, cfg, target=1):
    return run_pair(lambda sess: starfish_run(sess, hists[sess.party], pool, cfg, target),
                    make_inproc_sessions(cfg.seed, codec=CODEC))


def test_a_request_replays_no_client_state(monkeypatch):
    # a long history and a short replay that never checks (t_c = 13 > T' = 7):
    # a request asks each remaining client for an exact and a stage-I
    # gradient in each warm-up round, 2 buffer_b (n - 1) = 12 calls per
    # party, and re-derives no threshold
    import starfish.unlearn as unlearn

    run = RunConfig(n=4, m=4, t=128, eta_l=0.005, sigma=0.05)
    cfg = run.unlearn_config()
    assert cfg.t_c == 13 and cfg.t_prime == 7
    pool = _CountingPool(run.build_task().pool())
    hists = run_pair(lambda sess: stage_one(sess, pool, cfg), make_inproc_sessions(cfg.seed, codec=CODEC))
    pool.calls.clear()
    rounds = []
    monkeypatch.setattr(unlearn, "clients_stage_one", lambda *args: rounds.append(args))
    for target in range(cfg.n):
        before = len(pool.calls)
        _stage_two(hists, pool, cfg, target)
        assert (len(pool.calls) - before) // 2 == 2 * cfg.buffer_b * (cfg.n - 1) == 12
    assert rounds == []


def test_a_request_splits_each_upload_once_with_fresh_masks(monkeypatch):
    # two warm-up rounds and a check that flags: the clients that send split
    # their exact gradients and their B once per round and kind, and party
    # 0's words of all those splits are pairwise distinct
    import threading

    import starfish.unlearn as unlearn

    task, cfg = _small_run(beta=0.25)
    pool = task.pool()
    hists = run_pair(lambda sess: stage_one(sess, pool, cfg), make_inproc_sessions(cfg.seed, codec=CODEC))
    splits, real = {}, unlearn.sec_share

    def spy(v, codec, rng):
        shares = real(v, codec, rng)
        splits.setdefault(threading.get_ident(), []).append(shares[0].value.ravel())
        return shares

    monkeypatch.setattr(unlearn, "sec_share", spy)
    res, _ = _stage_two(hists, pool, cfg)
    flags = [r["flags"] for r in res.transcript if r["op"] == "sec_tc"]
    assert cfg.buffer_b == 2 and any(map(any, flags))
    sending = cfg.buffer_b + sum(map(any, flags))
    assert sorted(map(len, splits.values())) == [2 * sending] * 2
    words = np.concatenate(next(iter(splits.values())))
    sent = cfg.buffer_b * (cfg.n - 1) + sum(res.corrections.values())
    assert np.unique(words).size == words.size == sent * (cfg.m + cfg.m * cfg.m)


def test_a_check_needs_the_clients_thresholds():
    # a fresh pool holds no thresholds: a run that checks stops with a
    # ConfigError, one that never checks reads none and runs
    for beta, checks in ((0.25, True), (0.75, False)):
        task, cfg = _small_run(beta=beta)
        hists = run_pair(lambda sess: stage_one(sess, task.pool(), cfg),
                         make_inproc_sessions(cfg.seed, codec=CODEC))
        if checks:
            with pytest.raises(ConfigError, match="no thresholds from this history's stage I"):
                _stage_two(hists, task.pool(), cfg)
        else:
            res, _ = _stage_two(hists, task.pool(), cfg)
            assert res.check_rounds == 0


def test_a_pool_trained_on_another_config_is_rejected():
    # the pool's thresholds belong to the last stage I it ran; a history of
    # another run does not match its models
    task, cfg = _small_run(beta=0.25)
    pool = task.pool()
    hists = run_pair(lambda sess: stage_one(sess, pool, cfg), make_inproc_sessions(cfg.seed, codec=CODEC))
    assert _stage_two(hists, pool, cfg)[0].check_rounds > 0
    plaintext_history(UnlearnConfig(**{**vars(cfg), "eta_l": 0.07}), pool, CODEC)
    with pytest.raises(ConfigError, match="no thresholds from this history's stage I"):
        _stage_two(hists, pool, cfg)


# -- configuration -----------------------------------------------------------------


def test_unlearn_config_derived_quantities():
    cfg = UnlearnConfig(n=20, m=8, t=40, sigma=0.6, beta=0.1, eta_l=0.1)
    assert cfg.t_c == 4
    assert cfg.t_prime == 24
    assert UnlearnConfig(n=4, m=4, t=8, sigma=1.0, beta=0.25, eta_l=0.1).t_c == 2


def test_unlearn_config_eta_u_defaults_to_eta_l():
    cfg = UnlearnConfig(n=4, m=4, t=8, eta_l=0.07)
    assert cfg.eta_u == 0.07


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 1},
        {"m": 0},
        {"t": 0},
        {"sigma": 0.0},
        {"sigma": 1.5},
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"beta": 0.0},
        {"buffer_b": -1},
        {"eta_l": 0.0},
    ],
)
def test_unlearn_config_validation(kwargs):
    base = {"n": 4, "m": 4, "t": 8, "eta_l": 0.1}
    base.update(kwargs)
    with pytest.raises(ConfigError):
        UnlearnConfig(**base)
