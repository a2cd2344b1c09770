"""Stage I history, the stage II building blocks, and the full pipeline."""

from dataclasses import dataclass

import numpy as np
import pytest

from helpers import CODEC, both, reveal, share_pair
from starfish import (
    ClientPool,
    HistoryStore,
    LbfgsState,
    UnlearnConfig,
    make_inproc_sessions,
    plaintext_starfish,
    quadratic_task,
    run_pair,
    simulate,
)
from starfish.cli import RunConfig
from starfish.costs import predict_cost, words_round
from starfish.errors import ConfigError
from starfish.oracle import _plain_estimate, plaintext_history
from starfish.unlearn import (
    _SFH1,
    client_round,
    sec_tc,
    sec_ue,
    stage_one,
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


# -- client-side round -----------------------------------------------------


def test_client_round_quantile_example():
    pool = stub_pool([0.1, 0.2, 0.3, 0.4, 0.5], [0.0] * 5)
    g, norm, delta = client_round(pool, 0, pool.initial_model, alpha=0.4, codec=CODEC)
    assert np.array_equal(g, CODEC.quantize([0.1, 0.2, 0.3, 0.4, 0.5]))
    assert norm == float(np.linalg.norm(g))
    # exactly a 0.4 fraction of coordinates strictly exceeds the threshold
    assert delta == float(CODEC.quantize(0.3))
    assert np.mean(np.abs(g) > delta) == 0.4


def test_client_round_full_alpha_pins_zero():
    pool = stub_pool([0.5, -0.25], [0.0, 0.0])
    _, _, delta = client_round(pool, 0, pool.initial_model, alpha=1.0, codec=CODEC)
    assert delta == 0.0


def test_client_round_zero_gradient():
    pool = stub_pool([0.0, 0.0], [1.0, 1.0])
    g, norm, delta = client_round(pool, 0, pool.initial_model, alpha=0.4, codec=CODEC)
    assert not np.any(g)
    assert norm == 0.0
    assert delta == 0.0


# -- gradient estimation -------------------------------------------------------


def test_sec_ue_empty_buffer_is_identity():
    g = CODEC.quantize(np.array([[0.7, -0.4]]))
    gsh = share_pair(g, key=3)

    def proto(sess):
        est = sec_ue(sess, gsh[sess.party], LbfgsState(capacity=2))
        return reveal(sess, est)

    got, sessions = both(proto)
    assert np.array_equal(got, g)
    assert sessions[0].meter.stats("sec_ue").bytes_online == 0


def test_sec_ue_unit_secant_reproduces_the_gradient():
    # dG = dM = e1 makes the folded inverse Hessian the identity again
    g = CODEC.quantize(np.array([[0.7, -0.4]]))
    gsh = share_pair(g, key=4)
    dgsh = share_pair(CODEC.quantize(np.array([[1.0, 0.0]])), key=5)
    dm = np.array([1.0, 0.0])

    def proto(sess):
        state = LbfgsState(capacity=2)
        state.push(dgsh[sess.party], dm)
        return reveal(sess, sec_ue(sess, gsh[sess.party], state))

    got, _ = both(proto)
    assert np.max(np.abs(got - g)) <= 1e-2

    # the float mirror is exact on the same input
    mirror = _plain_estimate(g, [(np.array([[1.0, 0.0]]), dm)], CODEC)
    assert np.array_equal(mirror, g)


def test_sec_ue_screens_flat_curvature():
    # dG orthogonal to dM: the pair is skipped, the estimate is the input
    g = CODEC.quantize(np.array([[0.7, -0.4]]))
    gsh = share_pair(g, key=6)
    dgsh = share_pair(CODEC.quantize(np.array([[0.0, 1.0]])), key=7)
    dm = np.array([1.0, 0.0])

    def proto(sess):
        state = LbfgsState(capacity=2)
        state.push(dgsh[sess.party], dm)
        return reveal(sess, sec_ue(sess, gsh[sess.party], state))

    got, _ = both(proto)
    assert np.array_equal(got, g)


def test_lbfgs_state_window():
    state = LbfgsState(capacity=2)
    for i in range(4):
        state.push(np.array([i]), np.array([i]))
    assert [int(dg[0]) for dg, _ in state.pairs] == [2, 3]
    none = LbfgsState(capacity=0)
    none.push(np.array([1]), np.array([1]))
    assert none.pairs == []


# -- correction flags ------------------------------------------------------------


def _run_tc(estimates, thresholds, seed=8):
    est = share_pair(CODEC.quantize(estimates), key=9)
    thr = share_pair(CODEC.quantize(thresholds), key=10)

    def proto(sess):
        return sec_tc(sess, est[sess.party], thr[sess.party]).tolist()

    got, _ = both(proto, seed=seed)
    return got


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


# -- history persistence -----------------------------------------------------------


def test_history_store_roundtrip(tmp_path):
    task = quadratic_task(3, 4, seed=1)
    cfg = UnlearnConfig(n=3, m=4, t=5, sigma=0.6, alpha=0.4, beta=0.5,
                        buffer_b=1, eta_l=0.05, eta_u=0.1, seed=1)
    n, m, t = cfg.n, cfg.m, cfg.t

    def proto(sess):
        hist = stage_one(sess, task.pool(), cfg)
        assert hist.thresholds.shape == (n,)
        path = tmp_path / f"h{sess.party}.sfh1"
        hist.save(path)
        # version 2: models, grads, norms and one threshold per client
        assert path.read_bytes()[4] == 2
        assert path.stat().st_size == _SFH1.size + 8 * ((t + 1) * m + t * n * m + t * n + n)
        back = HistoryStore.load(path)
        assert back.party == sess.party
        assert back.codec == sess.codec
        assert back.eta_l == cfg.eta_l
        assert np.array_equal(back.models, hist.models)
        assert np.array_equal(back.grads, hist.grads)
        assert np.array_equal(back.norms, hist.norms)
        assert np.array_equal(back.thresholds, hist.thresholds)
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
        thresholds=np.zeros(1, dtype=np.uint64),
    )
    assert np.array_equal(hist.model_updates(), [[1.0, 2.0], [2.0, 0.0]])


# -- stage I ---------------------------------------------------------------------


def test_stage_one_matches_plaintext_models():
    from starfish.oracle import plaintext_history

    task = quadratic_task(3, 4, mu=1.0, lam_max=1.1, lip=1.1, seed=2)
    cfg = UnlearnConfig(n=3, m=4, t=6, sigma=0.6, alpha=0.4, beta=0.5,
                        buffer_b=1, eta_l=0.08, eta_u=0.2, seed=2)
    mirror = plaintext_history(cfg, task.pool(), CODEC)

    def proto(sess):
        return stage_one(sess, task.pool(), cfg).models

    got, _ = both(proto, seed=2)
    # grid-value sums are exact in float64, so the tracks agree bit for bit
    assert np.array_equal(got, mirror.models)


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
    # each client shares the max of its own thresholds; the pair reconstructs
    # to the encoded max, which is the mirror's quantized max bit for bit
    run = RunConfig(**overrides)
    cfg, pool, codec = run.unlearn_config(), run.build_task().pool(), run.codec()
    deltas = plaintext_history(cfg, pool, codec).deltas

    got = run_pair(lambda sess: stage_one(sess, pool, cfg).thresholds,
                   make_inproc_sessions(cfg.seed, codec=codec))
    words = np.add(got[0], got[1])
    assert words.shape == (cfg.n,)
    assert np.array_equal(words, codec.encode(deltas.max(axis=0)))
    assert np.array_equal(codec.decode(words), codec.quantize(deltas.max(axis=0)))


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
    budget = sessions[0].meter.truncations * 2.0 ** -12
    assert float(np.max(np.abs(res.trajectory - plain.trajectory))) <= budget


def test_transcript_structure():
    task, cfg = _small_run()
    res, _, sessions = simulate(cfg, task.pool(), target=1)
    ops = [r["op"] for r in res.transcript]
    assert ops[0] == "sec_rs"
    assert set(ops[1:]) <= {"sec_ue", "sec_tc"}
    tc_records = [r for r in res.transcript if r["op"] == "sec_tc"]
    assert len(tc_records) == res.check_rounds == len(res.selected) // cfg.t_c
    for rec in tc_records:
        assert len(rec["flags"]) == cfg.n - 1
        assert rec["rounds"] > 0 and rec["bytes"] > 0
    for rec in res.transcript:
        if rec["op"] != "sec_tc":
            assert rec["flags"] is None
    # each record holds its phase's traffic alone: the fixed-size phases
    # match their predictions, and the records add up to everything metered
    # after stage I's t model reveals
    tc = predict_cost("sec_tc", {"clients": cfg.n - 1, "m": cfg.m}, CODEC)
    assert all((rec["rounds"], rec["bytes"]) == tc.as_tuple() for rec in tc_records)
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


@pytest.mark.parametrize("beta, checks", [(0.75, 0), (0.25, 2)], ids=["estimation-only", "checking"])
def test_stage_two_starts_at_selection_without_a_max(beta, checks):
    # the thresholds come from stage I, so no sec_max runs in stage II, with
    # or without checking rounds; the trajectory matches within the budget
    task, cfg = _small_run(beta=beta, buffer_b=2)
    res, _, sessions = simulate(cfg, task.pool(), target=1)
    plain = plaintext_starfish(cfg, task, target=1)
    assert res.transcript[0]["op"] == "sec_rs"
    assert res.check_rounds == checks
    assert "sec_max" not in sessions[0].meter.per_op
    assert np.array_equal(res.selected, plain.selected)
    assert [r["flags"] for r in res.transcript if r["op"] == "sec_tc"] == [f for _, f in plain.check_flags]
    budget = sessions[0].meter.truncations * 2.0 ** -12
    assert float(np.max(np.abs(res.trajectory - plain.trajectory))) <= budget


def test_simulate_rejects_bad_target():
    task, cfg = _small_run()
    with pytest.raises(ConfigError):
        simulate(cfg, task.pool(), target=7)


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
