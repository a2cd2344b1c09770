"""Command line front end: train, unlearn, compare, audit.

Configuration is a flat ``key = value`` text file; every key has a default,
so each subcommand also runs bare. One seed feeds the whole PRG tree
(dealer tape, party randomness, synthetic task data, client share splits),
which is what makes repeated runs byte-identical.

Exit codes: 0 success, 1 bad configuration or input, 2 protocol failure,
3 cost audit mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .costs import comparator_calls, predict_cost
from .errors import AssumptionError, ConfigError, ProtocolError, RangeError, StarfishError
from .fixedpoint import FixedPointCodec
from .gates import (
    ComparisonKey,
    sec_add,
    sec_div,
    sec_ge,
    sec_ge2,
    sec_max,
    sec_mi,
    sec_mul,
    sec_ran_gen_inv,
    sec_sel,
    sec_sp,
    sec_srt,
)
from .oracle import (
    bound_report,
    logistic_task,
    metrics,
    plaintext_starfish,
    quadratic_task,
    random_selection_baseline,
    train_from_scratch,
)
from .roundsel import SelectionInputs, SelectionParams, sec_rs
from .sharing import (
    STREAM_AUDIT,
    Session,
    keyed_rng,
    make_inproc_sessions,
    make_tcp_session,
    run_pair,
    sec_rec,
    sec_share,
    zero_gen,
)
from .unlearn import (
    HistoryStore,
    LbfgsState,
    UnlearnConfig,
    _agreed_run,
    _meter_totals,
    aggregate_reveal,
    sec_tc,
    sec_ue,
    stage_one,
    starfish_run,
    threshold_determination,
)


# -- configuration ------------------------------------------------------------


def _parse_task(v: str) -> str:
    if v not in ("quadratic", "logistic"):
        raise ConfigError(f"task must be quadratic or logistic, got {v!r}")
    return v


def _parse_transport(v: str) -> str:
    if v not in ("inproc", "tcp"):
        raise ConfigError(f"transport must be inproc or tcp, got {v!r}")
    return v


def _parse_party(v: str):
    if v.lower() in ("", "none"):
        return None
    party = int(v)
    if party not in (0, 1):
        raise ConfigError(f"party must be 0 or 1, got {v}")
    return party


def _parse_opt_float(v: str):
    return None if v.lower() in ("", "none") else float(v)


@dataclass
class RunConfig:
    """Every knob of a run. Key names in the config file match field names."""

    # protocol
    n: int = 4
    m: int = 4
    t: int = 10
    sigma: float = 0.6
    alpha: float = 0.4
    beta: float = 0.1
    buffer_b: int = 2
    eta_l: float = 0.05
    eta_u: float | None = 4.0 / 21.0  # mu / lip of the default task
    seed: int = 0
    target: int = 0
    # synthetic task
    task: str = "quadratic"
    mu: float = 4.0
    lam_max: float | None = 4.2
    lip: float | None = 21.0
    spread: float = 1.2
    start: float = 1.0
    heterogeneity: float = 0.4
    samples: int = 16
    reg: float = 0.5
    scale: float = 1.0
    # fixed-point codec
    precision_p: int = 13
    range_e: int = 12
    slack: int = 14
    # plumbing
    transport: str = "inproc"
    party: int | None = None
    address: str = "127.0.0.1:29477"
    out: str = "starfish-out"

    def codec(self) -> FixedPointCodec:
        return FixedPointCodec(
            precision_p=self.precision_p,
            range_e=self.range_e,
            slack=self.slack,
        )

    def unlearn_config(self) -> UnlearnConfig:
        return UnlearnConfig(
            n=self.n, m=self.m, t=self.t,
            sigma=self.sigma, alpha=self.alpha, beta=self.beta,
            buffer_b=self.buffer_b, eta_l=self.eta_l, eta_u=self.eta_u,
            seed=self.seed,
        )

    def build_task(self):
        if self.task == "quadratic":
            return quadratic_task(
                self.n, self.m,
                mu=self.mu, lam_max=self.lam_max, lip=self.lip,
                spread=self.spread, start=self.start,
                heterogeneity=self.heterogeneity, seed=self.seed,
            )
        return logistic_task(
            self.n, self.m,
            samples=self.samples, reg=self.reg, scale=self.scale,
            seed=self.seed,
        )


_PARSERS = {
    "n": int, "m": int, "t": int,
    "sigma": float, "alpha": float, "beta": float,
    "buffer_b": int, "eta_l": float, "eta_u": _parse_opt_float,
    "seed": int, "target": int,
    "task": _parse_task,
    "mu": float, "lam_max": _parse_opt_float, "lip": _parse_opt_float,
    "spread": float, "start": float, "heterogeneity": float,
    "samples": int, "reg": float, "scale": float,
    "precision_p": int, "range_e": int, "slack": int,
    "transport": _parse_transport, "party": _parse_party, "address": str,
    "out": str,
}


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Flat key = value lines; # starts a comment; unknown keys are errors."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{origin}:{lineno}: expected key = value, got {line!r}")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key not in _PARSERS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{origin}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def load_config(path=None, **overrides) -> RunConfig:
    values: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        values.update(parse_config_text(text, origin=str(path)))
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    cfg = RunConfig(**values)
    try:
        cfg.codec()
    except RangeError as exc:
        raise ConfigError(f"codec: {exc}") from exc
    cfg.unlearn_config()
    if not (0 <= cfg.target < cfg.n):
        raise ConfigError(f"target {cfg.target} outside client range [0, {cfg.n})")
    return cfg


# -- session plumbing ----------------------------------------------------------


def _run_protocol(cfg: RunConfig, proto):
    """Run proto on both parties (inproc) or on this process's party (tcp).

    Returns (party-local result, peer result or None, the local session).
    """
    codec = cfg.codec()
    if cfg.transport == "inproc":
        sessions = make_inproc_sessions(cfg.seed, codec=codec)
        r0, r1 = run_pair(proto, sessions)
        return r0, r1, sessions[0]
    if cfg.party is None:
        raise ConfigError("tcp transport needs --party 0 or 1")
    sess = make_tcp_session(cfg.seed, cfg.party, cfg.address, codec=codec)
    try:
        return proto(sess), None, sess
    finally:
        sess.chan.close()


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _history_path(out: Path, party: int) -> Path:
    return out / f"history.p{party}.sfh1"


# -- subcommands ---------------------------------------------------------------


def cmd_train(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    pool = cfg.build_task().pool()
    ucfg = cfg.unlearn_config()
    print_party = 0 if cfg.transport == "inproc" else cfg.party

    def proto(sess: Session):
        sent = [0]

        def on_round(i, model):
            if sess.party != print_party:
                return
            total = sess.meter.total_online_bytes
            print(f"round {i + 1:3d}/{ucfg.t}  online_bytes={total - sent[0]:<6d}"
                  f"  |model|={float(np.linalg.norm(model)):.6f}")
            sent[0] = total

        hist = stage_one(sess, pool, ucfg, on_round=on_round)
        hist.save(_history_path(out, sess.party))
        return hist

    res, _, sess = _run_protocol(cfg, proto)
    print(f"trained {ucfg.t} rounds, {ucfg.n} clients, model dim {ucfg.m}")
    print(f"history -> {_history_path(out, res.party)}")
    print(f"total online bytes per party: {sess.meter.total_online_bytes}")
    return 0


def cmd_unlearn(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    task = cfg.build_task()
    pool = task.pool()
    ucfg = cfg.unlearn_config()
    codec = cfg.codec()

    def proto(sess: Session):
        path = _history_path(out, sess.party)
        if not path.exists():
            raise ConfigError(f"no training history at {path}; run train first")
        hist = HistoryStore.load(path)
        stored = (hist.codec.precision_p, hist.codec.range_e)
        if stored != (codec.precision_p, codec.range_e):
            raise ConfigError(f"history codec {stored} differs from configured codec")
        if (hist.n, hist.m, hist.t) != (ucfg.n, ucfg.m, ucfg.t):
            raise ConfigError(
                f"history shape (n={hist.n}, m={hist.m}, t={hist.t}) does not match config")
        return starfish_run(sess, hist, pool, ucfg, cfg.target)

    res, peer, _ = _run_protocol(cfg, proto)
    res = _agreed_run(res, peer)

    (out / "transcript.jsonl").write_text(res.transcript_jsonl())
    np.save(out / "model.npy", res.model)
    print(f"unlearned client {cfg.target}: replayed {len(res.selected)} rounds, "
          f"{res.check_rounds} checking rounds")
    print(f"selected rounds: {[int(r) for r in res.selected]}")
    corrected = {j: c for j, c in sorted(res.corrections.items()) if c}
    print(f"corrections: {corrected if corrected else 'none'}")
    print(f"transcript -> {out / 'transcript.jsonl'}")
    print(f"model -> {out / 'model.npy'}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    task = cfg.build_task()
    pool = task.pool()
    ucfg = cfg.unlearn_config()
    codec = cfg.codec()

    def proto(sess: Session):
        hist = stage_one(sess, pool, ucfg)
        return starfish_run(sess, hist, pool, ucfg, cfg.target)

    res, peer, _ = _run_protocol(cfg, proto)
    res = _agreed_run(res, peer)

    plain = plaintext_starfish(ucfg, task, cfg.target, codec=codec)
    horizon = math.ceil(len(res.selected) / ucfg.sigma)
    retrained = train_from_scratch(ucfg, task, excluded=cfg.target, rounds=horizon)
    random_run = random_selection_baseline(ucfg, task, cfg.target, codec=codec)

    report = metrics(task, ucfg, res.trajectory, retrained, res.transcript)
    report["selected"] = [int(r) for r in res.selected]
    report["selected_random"] = [int(r) for r in random_run.selected]
    report["corrections"] = {str(j): int(c) for j, c in sorted(res.corrections.items())}
    report["distance_plain_mirror"] = float(np.linalg.norm(res.model - plain.model))
    report["distance_random_baseline"] = float(np.linalg.norm(random_run.model - retrained[-1]))
    try:
        report["bound"] = bound_report(
            task, ucfg, cfg.target, codec=codec, recovered=res.trajectory).as_dict()
    except AssumptionError as exc:
        # the closed-form cap only covers mu > 2 with the matched step size
        report["bound"] = None
        report["bound_skipped"] = str(exc)

    (out / "compare.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out / "transcript.jsonl").write_text(res.transcript_jsonl())

    print(f"secure vs retrained final distance: {report['distance_final']:.6f}")
    print(f"random-selection baseline distance: {report['distance_random_baseline']:.6f}")
    print(f"secure vs plaintext mirror:         {report['distance_plain_mirror']:.3e}")
    print(f"test error recovered={report['ter_recovered']:.6f} "
          f"retrained={report['ter_retrained']:.6f}")
    print(f"ARP: {report['arp']:.2f}%")
    if report["bound"] is None:
        print(f"bound: skipped ({report['bound_skipped']})")
    else:
        worst = min(report["bound"]["margin"]) if report["bound"]["margin"] else float("inf")
        print(f"bound: {report['bound']['violations']} violations, "
              f"smallest margin {worst:.6f}")
    print(f"report -> {out / 'compare.json'}")
    return 0


# -- the audit battery ---------------------------------------------------------


def _share_for(sess: Session, rng, values) -> np.ndarray:
    pair = sec_share(values, sess.codec, rng)
    return pair[sess.party].value


def _audit_battery(cfg: RunConfig):
    """(label, shape for predict_cost, runner) triples, one per functionality.

    Runners draw their inputs from the audit PRG stream, so both parties
    derive identical shares and the battery is deterministic under the seed.
    """
    items = []

    def item(label, functionality, shape, runner):
        items.append((label, functionality, shape, runner))

    def rng_for(idx):
        return keyed_rng(cfg.seed, STREAM_AUDIT, idx)

    def floats(rng, shape, lo=0.25, hi=2.0):
        mag = rng.uniform(lo, hi, size=shape)
        sign = np.where(rng.integers(0, 2, size=shape) == 1, 1.0, -1.0)
        return mag * sign

    def run_add(sess):
        rng = rng_for(0)
        x = _share_for(sess, rng, floats(rng, (8,)))
        y = _share_for(sess, rng, floats(rng, (8,)))
        sec_add(sess, x, y)
    item("sec_add (8,)", "sec_add", (8,), run_add)

    def run_zero(sess):
        zero_gen(sess, (8,))
    item("zero_gen (8,)", "zero_gen", (8,), run_zero)

    def run_rec(sess):
        rng = rng_for(1)
        x = _share_for(sess, rng, floats(rng, (8,)))
        sec_rec(sess, x)
    item("sec_rec (8,)", "sec_rec", (8,), run_rec)

    def run_mul(sess):
        rng = rng_for(2)
        x = _share_for(sess, rng, floats(rng, (8,)))
        y = _share_for(sess, rng, floats(rng, (8,)))
        sec_mul(sess, x, y)
    item("sec_mul (8,)", "sec_mul", (8,), run_mul)

    def run_matmul(sess):
        rng = rng_for(3)
        x = _share_for(sess, rng, floats(rng, (4, 4), hi=1.0))
        y = _share_for(sess, rng, floats(rng, (4, 4), hi=1.0))
        sec_mul(sess, x, y, matmul=True)
    item("sec_mul matmul 4x4", "sec_mul", {"matmul": ((4, 4), (4, 4))}, run_matmul)

    def run_sp(sess):
        rng = rng_for(4)
        x = _share_for(sess, rng, floats(rng, (8,), hi=1.0))
        y = _share_for(sess, rng, floats(rng, (8,), hi=1.0))
        sec_sp(sess, x, y)
    item("sec_sp k=8", "sec_sp", (8,), run_sp)

    def run_sel(sess):
        rng = rng_for(5)
        v0 = _share_for(sess, rng, floats(rng, (8,)))
        v1 = _share_for(sess, rng, floats(rng, (8,)))
        b = _share_for(sess, rng, rng.integers(0, 2, size=(8,)))
        sec_sel(sess, v0, v1, b)
    item("sec_sel (8,)", "sec_sel", (8,), run_sel)

    def run_ge(sess):
        rng = rng_for(6)
        u = _share_for(sess, rng, floats(rng, (8,)))
        v = _share_for(sess, rng, floats(rng, (8,)))
        sec_ge(sess, u, v)
    item("sec_ge (8,)", "sec_ge", (8,), run_ge)

    def run_ge2(sess):
        rng = rng_for(7)
        args = [_share_for(sess, rng, floats(rng, (8,), hi=1.0)) for _ in range(4)]
        sec_ge2(sess, *args)
    item("sec_ge2 (8,)", "sec_ge2", (8,), run_ge2)

    def run_max(sess):
        rng = rng_for(8)
        vals = _share_for(sess, rng, floats(rng, (4, 8)))
        sec_max(sess, vals)
    item("sec_max 4x8", "sec_max", (4, 8), run_max)

    def run_srt(sess):
        rng = rng_for(9)
        u = _share_for(sess, rng, floats(rng, (8,)))
        v = _share_for(sess, rng, floats(rng, (8,), lo=0.5))
        payload = _share_for(sess, rng, np.arange(8, dtype=np.uint64))
        key = ComparisonKey(variant="pair", parts={"u": u, "v": v}, payload=payload)
        sec_srt(sess, key)
    item("sec_srt T=8 pair", "sec_srt",
         {"t": 8, "item_words": 3, "comparator": "pair"}, run_srt)

    def run_div(sess):
        rng = rng_for(10)
        u = _share_for(sess, rng, floats(rng, (8,), hi=1.0))
        v = _share_for(sess, rng, floats(rng, (8,), lo=0.5))
        sec_div(sess, u, v)
    item("sec_div (8,)", "sec_div", (8,), run_div)

    def run_mi_scalar(sess):
        rng = rng_for(11)
        x = _share_for(sess, rng, floats(rng, (4,), lo=0.5))
        sec_mi(sess, x)
    item("sec_mi scalars (4,)", "sec_mi", {"m": 1, "batch": 4}, run_mi_scalar)

    def run_mi_matrix(sess):
        rng = rng_for(12)
        a = 2.0 * np.eye(3) + 0.25 * rng.uniform(-1.0, 1.0, size=(3, 3))
        x = _share_for(sess, rng, a)
        sec_mi(sess, x)
    item("sec_mi matrix 3x3", "sec_mi", {"m": 3}, run_mi_matrix)

    def run_rgi(sess):
        sec_ran_gen_inv(sess)
    item("sec_ran_gen_inv scalar", "sec_ran_gen_inv", {"m": 0}, run_rgi)

    def run_td(sess):
        rng = rng_for(13)
        shares = _share_for(sess, rng, floats(rng, (6, 4), lo=0.1, hi=1.0))
        hist = HistoryStore(
            party=sess.party, codec=sess.codec, eta_l=cfg.eta_l,
            models=np.zeros((7, 2)),
            grads=np.zeros((6, 4, 2), dtype=np.uint64),
            norms=np.zeros((6, 4), dtype=np.uint64),
            thresholds=shares,
        )
        threshold_determination(sess, hist)
    item("threshold_determination n=4 T=6", "threshold_determination",
         {"clients": 4, "t": 6}, run_td)

    def run_ue(sess):
        # the full estimation round: per-pair folds, H @ G, aggregate reveal
        rng = rng_for(14)
        state = LbfgsState(capacity=2)
        for _ in range(2):
            dg = _share_for(sess, rng, rng.uniform(0.5, 1.5, size=(4, 3)))
            dm = rng.uniform(0.5, 1.5, size=(3,))
            state.push(dg, dm)
        grads = _share_for(sess, rng, floats(rng, (4, 3), hi=1.0))
        est = sec_ue(sess, grads, state)
        aggregate_reveal(sess, est, np.zeros(3), 0.1)
    item("sec_ue n=4 m=3 pairs=2", "sec_ue",
         {"clients": 4, "m": 3, "pairs": 2}, run_ue)

    def run_tc(sess):
        rng = rng_for(15)
        est = _share_for(sess, rng, floats(rng, (4, 3)))
        thr = _share_for(sess, rng, rng.uniform(0.1, 1.0, size=(4,)))
        sec_tc(sess, est, thr)
    item("sec_tc n=4 m=3", "sec_tc", {"clients": 4, "m": 3}, run_tc)

    def run_rs(sess):
        rng = rng_for(16)
        grads = rng.uniform(0.3, 1.0, size=(16, 3)) * np.where(
            rng.integers(0, 2, size=(16, 3)) == 1, 1.0, -1.0)
        norms = np.linalg.norm(sess.codec.quantize(grads), axis=1)
        deltas = rng.uniform(0.25, 1.0, size=(16, 3)) * np.where(
            rng.integers(0, 2, size=(16, 3)) == 1, 1.0, -1.0)
        inputs = SelectionInputs(
            target_grads=_share_for(sess, rng, grads),
            deltas=deltas,
            target_norms=_share_for(sess, rng, norms),
        )
        params = SelectionParams(t=16, sigma=0.625)
        sec_rs(sess, inputs, params, method=1)
    item("sec_rs T=16 T'=10 method 1", "sec_rs",
         {"t": 16, "t_prime": 10, "method": 1, "kept": 16}, run_rs)

    return items


def cmd_audit(cfg: RunConfig) -> int:
    codec = cfg.codec()
    items = _audit_battery(cfg)
    rows: list = []
    breakdown: dict = {}

    def proto(sess: Session):
        local_rows = []
        for label, functionality, shape, runner in items:
            before = _meter_totals(sess)
            before_inv = {op: st.invocations for op, st in sess.meter.per_op.items()}
            runner(sess)
            after = _meter_totals(sess)
            measured = (after[0] - before[0], after[1] - before[1])
            local_rows.append((label, functionality, shape, measured))
            if functionality in ("sec_srt", "sec_rs"):
                delta = {}
                for op, st in sess.meter.per_op.items():
                    d = st.invocations - before_inv.get(op, 0)
                    if d:
                        delta[op] = d
                breakdown[label] = delta
        return local_rows

    res, _, _ = _run_protocol(cfg, proto)
    rows = res

    failures = 0
    name_w = max(len(label) for label, *_ in rows)
    print(f"{'functionality':{name_w}}  {'rounds':>13}  {'online bytes':>17}  status")
    for label, functionality, shape, measured in rows:
        want = predict_cost(functionality, shape, codec)
        ok = measured == (want.rounds, want.online_bytes)
        failures += 0 if ok else 1
        print(f"{label:{name_w}}  {measured[0]:>5d} / {want.rounds:<5d}"
              f"  {measured[1]:>7d} / {want.online_bytes:<7d}  {'ok' if ok else 'MISMATCH'}")

    for label, delta in sorted(breakdown.items()):
        t = 16 if "sec_rs" in label else 8
        expected = comparator_calls(t)
        got = delta.get("comparator", 0)
        print(f"{label}: comparators={got} (formula {expected})"
              + (f", sec_sp lanes={delta.get('sec_sp', 0)},"
                 f" sec_mul lanes={delta.get('sec_mul', 0)}"
                 if "sec_rs" in label else ""))
        if got != expected:
            failures += 1

    if failures:
        print(f"audit: {failures} mismatches")
        return 3
    print(f"audit: all {len(rows)} functionalities match their predictions")
    return 0


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starfish",
        description="Two-party secure federated unlearning at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "run federated training over the 2PC engine and save history"),
        ("unlearn", "remove one client's influence from a saved history"),
        ("compare", "secure run vs plaintext oracle, retraining and baselines"),
        ("audit", "check measured communication against the cost formulas"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="flat key = value file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--party", type=int, choices=(0, 1), default=None,
                       help="this process's party id (tcp transport)")
        p.add_argument("--transport", type=str, choices=("inproc", "tcp"), default=None)
        p.add_argument("--out", type=str, default=None, help="artifact directory")
    return parser


_COMMANDS = {
    "train": cmd_train,
    "unlearn": cmd_unlearn,
    "compare": cmd_compare,
    "audit": cmd_audit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            seed=args.seed,
            party=args.party,
            transport=args.transport,
            out=args.out,
        )
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 2
    except StarfishError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
