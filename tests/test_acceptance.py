"""The ten release gates.

Each test is one gate, asserts the stated tolerance, and prints a single
PASS line with the measured quantity (visible under pytest -s or on failure).
Where a gate carries a runtime cap, the cap is asserted too.
"""

import math
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest

from helpers import CODEC, both, raw_share_pair, reveal, reveal_bits, reveal_raw, share_pair
from starfish import (
    UnlearnConfig,
    bound_report,
    exact_gate_oracle,
    make_inproc_sessions,
    metrics,
    plaintext_starfish,
    quadratic_task,
    run_pair,
    simulate,
    train_from_scratch,
)
from starfish import oracle, roundsel
from starfish.cli import main
from starfish.costs import comparator_calls, predict_cost
from starfish.gates import (
    comparator,
    sec_div,
    sec_ge,
    sec_srt,
)
from starfish.oracle import ERROR_BUDGETS, PlainHistory, cosine_selection
from starfish.roundsel import (
    SelectionInputs,
    SelectionParams,
    sec_rs,
    switching_threshold,
)
from starfish.sharing import keyed_rng, sec_rec, sec_share
from starfish.unlearn import client_check


def _grid(rng, low, high, shape):
    return CODEC.quantize(rng.uniform(low, high, size=shape))


# -- 1: gate oracle equivalence ---------------------------------------------------


def test_criterion_1_gate_oracle_equivalence():
    """>= 1000 randomized trials per gate, within the published budgets;
    comparison and flag gates agree exactly. Budget: 2 minutes."""
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst: dict = {}

    def check(gate, got, want, budget=None):
        budget = ERROR_BUDGETS[gate] if budget is None else budget
        err = float(np.max(np.abs(np.asarray(got, np.float64) - want)))
        assert err <= budget, (gate, err, budget)
        worst[gate] = max(err, worst.get(gate, 0.0))

    # elementwise arithmetic, one lane per trial
    x = _grid(rng, -100, 100, 1024)
    a = share_pair(x, key=100)
    got, _ = both(lambda s: reveal(s, a[s.party]))  # reveal is one sec_rec
    check("sec_rec", got, exact_gate_oracle("sec_rec", x))

    # comparisons must agree exactly, ties included
    x, y = _grid(rng, -2000, 2000, 1024), _grid(rng, -2000, 2000, 1024)
    y[:100] = x[:100]
    a, b = share_pair(x, key=106), share_pair(y, key=107)
    got, _ = both(lambda s: reveal_raw(s, sec_ge(s, a[s.party], b[s.party])))
    check("sec_ge", got, exact_gate_oracle("sec_ge", x, y))

    # ratio comparison on tie-free fractions
    while True:
        u1, u2 = _grid(rng, -3, 3, 1024), _grid(rng, -3, 3, 1024)
        v1, v2 = _grid(rng, 0.5, 3, 1024), _grid(rng, 0.5, 3, 1024)
        if float(np.min(np.abs(u1 / v1 - u2 / v2))) > 1e-3:
            break
    a = share_pair(np.stack([u1, v1], axis=1), key=110)
    b = share_pair(np.stack([u2, v2], axis=1), key=111)
    got, _ = both(lambda s: reveal_bits(s, comparator(s, a[s.party], b[s.party]), 1024))
    check("sec_ge", got, (u1 / v1 >= u2 / v2).astype(np.int64), budget=0.0)

    # correction flags, which each client computes from its own estimate
    # (client_check), including zero thresholds and exact boundary rows
    est = _grid(rng, -30, 30, (1024, 3))
    thr = _grid(rng, 0, 30, 1024)
    thr[:50] = 0.0
    thr[50:100] = np.abs(est[50:100]).max(axis=1)  # |est| == threshold fires
    got = client_check(est, np.zeros((1024, 3, 3)), np.zeros(3), thr, CODEC)
    want = [any(abs(Decimal(x)) >= Decimal(d) for x in row) for row, d in zip(est.tolist(), thr.tolist())]
    assert got[:100].all() and got.tolist() == want

    # the numerator at 2^-2p, the divisor at 2^-p
    x = _grid(rng, -30, 30, 1024)
    y = np.where(rng.integers(0, 2, 1024) == 1, 1.0, -1.0) * _grid(rng, 0.25, 30, 1024)
    a = raw_share_pair(CODEC.encode(x) << np.uint64(CODEC.precision_p), key=122)
    b = share_pair(y, key=123)
    got, _ = both(lambda s: reveal(s, sec_div(s, a[s.party], b[s.party])))
    check("sec_div", got, exact_gate_oracle("sec_div", x, y))

    # 1000 independent four-item oblivious sorts with distinct keys
    trials = []
    while len(trials) < 1000:
        keys = _grid(rng, -30, 30, 4)
        if np.unique(keys).size == 4:
            trials.append(keys)

    def sort_all(sess):
        srng = keyed_rng(777, 3)
        out = []
        for keys in trials:
            ksh = sec_share(keys, sess.codec, srng)[sess.party].value
            psh = sec_share(np.arange(4), sess.codec, srng)[sess.party].value
            out.append(reveal_raw(sess, sec_srt(sess, np.stack([ksh, psh], axis=1), 1, 4)[:, -1]))
        return np.stack(out)

    got, _ = both(sort_all)
    want = np.stack([np.argsort(-keys) for keys in trials])
    check("sec_srt", got, want, budget=0.0)

    elapsed = time.monotonic() - started
    assert elapsed <= 120.0
    summary = ", ".join(f"{g}<={worst[g]:.2e}" for g in sorted(worst))
    print(f"criterion 1 PASS: gate trials within budget in {elapsed:.1f}s ({summary})")


# -- 2: end-to-end equivalence ----------------------------------------------------


def test_criterion_2_secure_vs_plaintext_pipeline():
    """20 seeded instances: same selection, corrections, flags and
    trajectory as the plaintext protocol, bit for bit."""
    started = time.monotonic()
    for s in range(20):
        n, m, t = 3 + s % 3, 4 * (1 + s % 4), 8 + s % 9
        task = quadratic_task(n, m, mu=1.0, lam_max=1.1, lip=1.1, spread=1.5,
                              start=1.2, heterogeneity=0.2, seed=s)
        cfg = UnlearnConfig(n=n, m=m, t=t, sigma=0.6, alpha=0.5, beta=0.5,
                            buffer_b=2, eta_l=0.08, eta_u=0.3, seed=s)
        res, _, _ = simulate(cfg, task.pool(), target=s % n)
        plain = plaintext_starfish(cfg, task, target=s % n)
        assert np.array_equal(res.selected, plain.selected)
        assert res.corrections == plain.corrections
        sec_flags = [r["flags"] for r in res.transcript if r["op"] == "sec_tc"]
        assert sec_flags == [f for _, f in plain.check_flags]
        assert np.array_equal(res.trajectory, plain.trajectory), s
    elapsed = time.monotonic() - started
    assert elapsed <= 600.0
    print(f"criterion 2 PASS: 20 instances equal to the plaintext protocol, {elapsed:.1f}s")


# -- 3: round selection ------------------------------------------------------------


def _instance(t, m, seed):
    """A random history of one client, drawn with no tie filter."""
    rng = np.random.default_rng(seed)
    sign = lambda shape: np.where(rng.integers(0, 2, size=shape) == 1, 1.0, -1.0)
    grads = CODEC.quantize(rng.uniform(0.3, 1.5, size=(t, m)) * sign((t, m)))
    deltas = CODEC.quantize(rng.uniform(0.25, 1.5, size=(t, m)) * sign((t, m)))
    return PlainHistory(models=np.vstack([np.zeros(m), np.cumsum(deltas, axis=0)]),
                        grads=grads[:, None, :], norms=np.linalg.norm(grads, axis=1)[:, None],
                        deltas=np.zeros((t, 1)))


def test_criterion_3_selection_agreement(monkeypatch):
    """Both comparison methods, 50 instances with T <= 32 and m <= 32 and no
    tie filter: each selects the plaintext mirror's rounds, on the path
    costs.ranks picks and on the forced sort path alike."""
    draw = np.random.default_rng(123)
    for i in range(50):
        t = int(draw.integers(6, 33))
        m = int(draw.integers(2, 33))
        hist = _instance(t, m, 1000 + i)
        t_prime = max(1, math.ceil(0.6 * t))
        params = SelectionParams(t=t, sigma=t_prime / t)
        assert params.t_prime == t_prime
        gsh = share_pair(hist.grads[:, 0], key=3000 + 2 * i)
        nsh = share_pair(hist.norms[:, 0], key=3001 + 2 * i)

        def run(method):
            def proto(sess):
                inputs = SelectionInputs(target_grads=gsh[sess.party],
                                         deltas=hist.model_updates(),
                                         target_norms=nsh[sess.party])
                return sec_rs(sess, inputs, params, method=method).chronological()
            chron, _ = both(proto, seed=i)
            return chron

        for method in (1, 2):
            assert np.array_equal(run(method), cosine_selection(hist, 0, t_prime, CODEC, method)), (i, method)
        with monkeypatch.context() as patch:
            # the top-k network (sec_srt) in the secure run and in the mirror
            patch.setattr(roundsel, "ranks", lambda *_: False)
            patch.setattr(oracle, "ranks", lambda *_: False)
            for method in (1, 2):
                assert np.array_equal(run(method), cosine_selection(hist, 0, t_prime, CODEC, method)), (i, method)
    print("criterion 3 PASS: 50 instances x 2 comparison methods x 2 paths match the mirror")


# -- 4: switching threshold -----------------------------------------------------------


def test_criterion_4_switching_threshold():
    """floor(2^((sqrt(3077)-1)/2)) via an independent 80-digit evaluation."""
    getcontext().prec = 80
    exponent = (Decimal(3077).sqrt() - 1) / 2
    value = Decimal(2) ** exponent
    frac = value - int(value)
    assert Decimal("1e-40") < frac < 1 - Decimal("1e-40")  # floor is unambiguous
    assert switching_threshold(64, 128) == int(value) == 158000786
    assert switching_threshold(1, 0) == 7
    print(f"criterion 4 PASS: switching_threshold(64, 128) == {int(value)}")


# -- 5: bitonic accounting -----------------------------------------------------------


def test_criterion_5_comparator_counts_and_audit():
    """Measured comparator calls equal (l^2+l)/4 * T at T in {4, 8, 16};
    the audit subcommand agrees on every functionality."""
    for t, want in ((4, 6), (8, 24), (16, 80)):
        vals = share_pair(CODEC.quantize(np.arange(t, dtype=np.float64)), key=500 + t)

        def proto(sess):
            return reveal(sess, sec_srt(sess, vals[sess.party][:, None], 1, t)[:, 0])

        _, sessions = both(proto)
        assert comparator_calls(t, t) == want
        assert sessions[0].meter.stats("comparator").invocations == want
    assert main(["audit", "--seed", "0"]) == 0
    print("criterion 5 PASS: comparator counts 6/24/80 measured; audit exit 0")


# -- 6: recovery-distance bound --------------------------------------------------------


def test_criterion_6_distance_bound_sweep():
    """20 quadratic tasks, mu in (2, 8], eta_u = mu/L, sigma cycling
    {0.5, 0.6, 1.0}: no checkpoint exceeds the closed-form cap."""
    started = time.monotonic()
    min_margin = math.inf
    for i, mu in enumerate(np.linspace(2.3, 8.0, 20)):
        mu = float(mu)
        lam_max = 1.05 * mu
        lip = mu * lam_max / 0.8
        task = quadratic_task(4, 4, mu=mu, lam_max=lam_max, lip=lip, seed=i)
        cfg = UnlearnConfig(n=4, m=4, t=10, sigma=(0.5, 0.6, 1.0)[i % 3],
                            alpha=0.4, beta=0.1, buffer_b=2,
                            eta_l=0.05, eta_u=mu / lip, seed=i)
        report = bound_report(task, cfg, target=i % 4)
        assert report.violations() == 0, (i, mu)
        min_margin = min(min_margin, float(report.margin.min()))
    elapsed = time.monotonic() - started
    assert elapsed <= 300.0
    print(f"criterion 6 PASS: 0 violations over 20 tasks, "
          f"smallest margin {min_margin:.4f}, {elapsed:.1f}s")


# -- 7: correction efficacy --------------------------------------------------------------


def test_criterion_7_beta_monotonicity():
    """Lower beta (more checking) never lands farther from the retrained
    model; full checking reproduces retraining on the selected rounds up to
    fixed-point error."""
    for seed in range(1, 7):
        task = quadratic_task(5, 6, mu=1.0, lam_max=1.1, lip=1.1, spread=1.5,
                              start=1.2, heterogeneity=0.2, seed=seed)
        target = seed % 5
        dists = []
        for beta, checks in ((1.0, 1), (0.5, 2), (0.1, 6)):
            cfg = UnlearnConfig(n=5, m=6, t=6, sigma=1.0, alpha=1.0, beta=beta,
                                buffer_b=0, eta_l=0.08, eta_u=0.3, seed=seed)
            res, _, _ = simulate(cfg, task.pool(), target=target)
            assert res.check_rounds == checks
            retrained = train_from_scratch(cfg, task, excluded=target,
                                           rounds=len(res.selected))
            dists.append(float(np.linalg.norm(res.trajectory[-1] - retrained[-1])))
        assert dists[0] >= dists[1] - 1e-9 >= dists[2] - 2e-9, (seed, dists)
        assert dists[2] <= 2e-3, (seed, dists[2])
    print("criterion 7 PASS: distance monotone over beta {1.0, 0.5, 0.1} "
          "on 6 seeds; full-correction limit <= 2e-3")


# -- 8: client cost ------------------------------------------------------------------------


def test_criterion_8_client_participation():
    """beta=0.1, T=40 defaults: every remaining client corrects in at most
    floor(T'/T_c) rounds and average round participation stays >= 90%."""
    task = quadratic_task(20, 8, mu=1.0, lam_max=1.1, lip=1.1, spread=0.6,
                          start=2.5, heterogeneity=0.2, seed=4)
    cfg = UnlearnConfig(n=20, m=8, t=40, sigma=0.6, alpha=0.4, beta=0.1,
                        buffer_b=2, eta_l=0.08, eta_u=0.2, seed=4)
    res, _, _ = simulate(cfg, task.pool(), target=4)
    cap = cfg.t_prime // cfg.t_c
    assert cap == 6
    assert res.corrections and all(c <= cap for c in res.corrections.values())
    horizon = math.ceil(len(res.selected) / cfg.sigma)
    retrained = train_from_scratch(cfg, task, excluded=4, rounds=horizon)
    report = metrics(task, cfg, res.trajectory, retrained, res.transcript)
    assert report["arp"] >= 90.0
    # pinned at the BFGS estimator: 31 flags over 19 clients and 40 rounds
    assert report["arp"] == pytest.approx(95.9210526315, abs=1e-6)
    print(f"criterion 8 PASS: ARP {report['arp']:.2f}% >= 90, "
          f"max client corrections {max(res.corrections.values())} <= {cap}")


# -- 9: communication metering ---------------------------------------------------------------


def test_criterion_9_metering_and_invocation_multiset():
    """Measured online bytes equal the cost formulas; the unlearning stage
    invokes 1 selection and T' estimations, and records a check every T_c
    rounds after the warm-up. The clients check their own estimates, so a
    check is a transcript record at no round, not a metered invocation."""
    rng = np.random.default_rng(909)
    x, y = _grid(rng, -2, 2, 8), _grid(rng, -2, 2, 8)
    a, b = share_pair(x, key=900), share_pair(y, key=901)
    sessions = make_inproc_sessions(9)
    run_pair(lambda s: sec_rec(s, a[s.party]), sessions)
    want = predict_cost("sec_rec", (8,), CODEC)
    for sess in sessions:
        stats = sess.meter.stats("sec_rec")
        assert (stats.rounds, stats.bytes_online) == (want.rounds, want.online_bytes)

    # worst-case flags: alpha=1 pins every threshold to zero, so every
    # check fires for every client and the invocation counts are extremal
    task = quadratic_task(4, 4, mu=1.0, lam_max=1.1, lip=1.1, seed=9)
    cfg = UnlearnConfig(n=4, m=4, t=8, sigma=1.0, alpha=1.0, beta=0.25,
                        buffer_b=2, eta_l=0.08, eta_u=0.3, seed=9)
    res, _, sessions = simulate(cfg, task.pool(), target=0)
    meter = sessions[0].meter
    counts = {op: meter.stats(op).invocations for op in ("sec_rs", "sec_ue")}
    checks = [rec for rec in res.transcript if rec["op"] == "sec_tc"]
    counts["sec_tc"] = len(checks)
    # rounds 1-2 are the warm-up, so rounds 4, 6 and 8 check
    assert counts == {"sec_rs": 1, "sec_ue": cfg.t_prime, "sec_tc": 3} and res.check_rounds == 3
    assert meter.stats("sec_tc").invocations == 0
    for rec in checks:
        assert rec["flags"] == [1] * (cfg.n - 1)
        assert (rec["rounds"], rec["bytes"]) == (0, 0)
    print(f"criterion 9 PASS: byte meters match formulas; invocations {counts}")


# -- 10: determinism ----------------------------------------------------------------------------


def test_criterion_10_byte_identical_transcripts(tmp_path, capsys):
    """Two compare runs with one config and seed write identical bytes."""
    cfg = tmp_path / "det.cfg"
    cfg.write_text("n = 4\nm = 4\nt = 8\nalpha = 0.5\nbeta = 0.5\nseed = 11\n")
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append(((out / "transcript.jsonl").read_bytes(),
                      (out / "compare.json").read_bytes()))
    capsys.readouterr()
    assert blobs[0] == blobs[1]
    print("criterion 10 PASS: transcript.jsonl and compare.json byte-identical")
