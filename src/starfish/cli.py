"""Command line front end: train, unlearn, compare, audit.

Configuration is a flat ``key = value`` text file; every key has a default,
so each subcommand also runs bare. One seed feeds the whole PRG tree
(dealer tape, synthetic task data, client share splits, audit inputs),
which is what makes repeated runs byte-identical.

The audit runs one table of rows, one per gate or protocol phase, each on
inputs drawn from its own audit stream. It checks every row's metered rounds
and online bytes against predict_cost, and the comparator calls of the
sorting and selecting rows against comparator_calls (the top-k network),
or against one call per pair where costs.ranks makes sec_rs rank instead.

Exit codes: 0 success, 1 bad configuration or input, 2 protocol failure,
3 cost audit mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .costs import RS_KEY_WIDTH, comparator_calls, predict_cost, ranks
from .errors import AssumptionError, ConfigError, ProtocolError, StarfishError
from .fixedpoint import FixedPointCodec
from .gates import sec_div, sec_ge, sec_lut, sec_srt
from .oracle import (
    bound_report,
    logistic_task,
    metrics,
    plaintext_history,
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
)
from .unlearn import (
    HistoryStore,
    LbfgsState,
    UnlearnConfig,
    _agreed_run,
    _meter_totals,
    aggregate_reveal,
    sec_ue,
    stage_one,
    starfish_run,
)


# -- configuration ------------------------------------------------------------


def _parse_opt_int(v: str):
    return None if v.lower() in ("", "none") else int(v)


def _parse_opt_float(v: str):
    return None if v.lower() in ("", "none") else float(v)


@dataclass
class RunConfig:
    """Every knob of a run. Key names in the config file match field names.

    Construction checks every value, whether it came from a file or a
    keyword, and raises ConfigError on the first bad one.
    """

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
    # plumbing
    transport: str = "inproc"
    party: int | None = None
    address: str = "127.0.0.1:29477"
    out: str = "starfish-out"

    def __post_init__(self):
        if self.task not in ("quadratic", "logistic"):
            raise ConfigError(f"task must be quadratic or logistic, got {self.task!r}")
        if self.transport not in ("inproc", "tcp"):
            raise ConfigError(f"transport must be inproc or tcp, got {self.transport!r}")
        if self.party not in (None, 0, 1):
            raise ConfigError(f"party must be 0 or 1, got {self.party}")
        host, _, port = self.address.rpartition(":")
        if not (host and port.isdecimal() and 1 <= int(port) <= 65535):
            raise ConfigError(f"address must be host:port with a port in 1..65535, got {self.address!r}")
        self.unlearn_config()
        if not (0 <= self.target < self.n):
            raise ConfigError(f"target {self.target} outside client range [0, {self.n})")

    def codec(self) -> FixedPointCodec:
        return FixedPointCodec()

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
    "task": str,
    "mu": float, "lam_max": _parse_opt_float, "lip": _parse_opt_float,
    "spread": float, "start": float, "heterogeneity": float,
    "samples": int, "reg": float, "scale": float,
    "transport": str, "party": _parse_opt_int, "address": str,
    "out": str,
}


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Flat key = value lines; # starts a comment; unknown keys are errors.

    Values are only converted to their types here; RunConfig checks them."""
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
    return RunConfig(**values)


# -- session plumbing ----------------------------------------------------------


def _session_id(cfg: RunConfig) -> int:
    """64-bit TCP session id: a SHA-256 digest of every protocol and task key.

    The plumbing keys, which the two parties of one run may set differently,
    are left out. Parties whose configurations differ then fail the frame
    header check at their first round, before any tensor is unpacked.
    """
    keys = {k: v for k, v in asdict(cfg).items() if k not in ("transport", "party", "address", "out")}
    return int.from_bytes(hashlib.sha256(repr(keys).encode()).digest()[:8], "little")


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
    sess = make_tcp_session(cfg.seed, cfg.party, cfg.address, codec=codec, session_id=_session_id(cfg))
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
    """Unlearn cfg.target from the saved history of this configured run.

    The clients, simulated fresh in this process, replay stage I in the
    clear (plaintext_history), which leaves each client's largest threshold
    with the pool for the checks. Besides the header's codec and shape, the
    history must come from this run: its stored eta_l must equal the
    config's, and its models must equal the replay's, which are
    bit-identical to stage I's. Another seed, task or eta_l moves them.
    """
    out = _out_dir(cfg)
    pool = cfg.build_task().pool()
    ucfg = cfg.unlearn_config()
    codec = cfg.codec()
    models = plaintext_history(ucfg, pool, codec).models

    def proto(sess: Session):
        path = _history_path(out, sess.party)
        if not path.exists():
            raise ConfigError(f"no training history at {path}; run train first")
        hist = HistoryStore.load(path)
        if hist.party != sess.party:
            raise ConfigError(f"{path} holds party {hist.party}'s history, not party {sess.party}'s")
        stored = (hist.codec.precision_p, hist.codec.range_e)
        if stored != (codec.precision_p, codec.range_e):
            raise ConfigError(f"history codec {stored} differs from configured codec")
        if (hist.n, hist.m, hist.t) != (ucfg.n, ucfg.m, ucfg.t):
            raise ConfigError(
                f"history shape (n={hist.n}, m={hist.m}, t={hist.t}) does not match config")
        if hist.eta_l != ucfg.eta_l or not np.array_equal(hist.models, models):
            raise ConfigError(f"{path} holds the history of another run: its seed, task or eta_l "
                              "differs from the config's")
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

    # a reference run that cannot finish must not discard the finished secure
    # run: its error is recorded and the fields that need it are null
    errors = {}

    def attempt(error_key, run):
        try:
            return run()
        except StarfishError as exc:
            errors[error_key] = f"{type(exc).__name__}: {exc}"
            return None

    horizon = math.ceil(len(res.selected) / ucfg.sigma)
    plain = attempt("plain_mirror_error", lambda: plaintext_starfish(ucfg, task, cfg.target, codec=codec))
    retrained = attempt("retrain_error", lambda: train_from_scratch(
        ucfg, task, excluded=cfg.target, rounds=horizon))
    random_run = attempt("random_baseline_error", lambda: random_selection_baseline(
        ucfg, task, cfg.target, codec=codec))
    report = metrics(task, ucfg, res.trajectory, retrained, res.transcript) | errors
    report["selected"] = [int(r) for r in res.selected]
    report["corrections"] = {str(j): int(c) for j, c in sorted(res.corrections.items())}
    report["distance_plain_mirror"] = (None if plain is None
                                       else float(np.linalg.norm(res.model - plain.model)))
    report["selected_random"] = None if random_run is None else [int(r) for r in random_run.selected]
    report["distance_random_baseline"] = (None if random_run is None or retrained is None
                                          else float(np.linalg.norm(random_run.model - retrained[-1])))
    try:
        report["bound"] = bound_report(
            task, ucfg, cfg.target, codec=codec, recovered=res.trajectory).as_dict()
    except AssumptionError as exc:
        # the closed-form cap only covers mu > 2 with the matched step size
        report["bound"] = None
        report["bound_skipped"] = str(exc)

    (out / "compare.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out / "transcript.jsonl").write_text(res.transcript_jsonl())

    def num(key, spec=".6f"):
        return "n/a" if report[key] is None else format(report[key], spec)

    for key, what in (("retrain_error", "retraining"), ("random_baseline_error", "random-selection baseline"),
                      ("plain_mirror_error", "plaintext mirror")):
        if key in report:
            print(f"{what}: failed ({report[key]})")
    print(f"secure vs retrained final distance: {num('distance_final')}")
    print(f"random-selection baseline distance: {num('distance_random_baseline')}")
    print(f"secure vs plaintext mirror:         {num('distance_plain_mirror', '.3e')}")
    print(f"test error recovered={report['ter_recovered']:.6f} retrained={num('ter_retrained')}")
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


def _audit_battery(cfg: RunConfig):
    """(label, functionality, shape for predict_cost, runner) rows, one per gate or phase.

    Runners draw their inputs from the audit PRG stream, so both parties
    derive identical shares and the battery is deterministic under the seed.
    """

    def floats(rng, shape, lo, hi):
        mag = rng.uniform(lo, hi, size=shape)
        sign = np.where(rng.integers(0, 2, size=shape) == 1, 1.0, -1.0)
        return mag * sign

    def shared(sess, idx, *specs):
        """This party's shares of values drawn from audit stream idx, each split
        right after its draw: a (shape, lo, hi) spec draws signed floats with
        magnitudes in [lo, hi), a callable draws from the generator itself."""
        rng = keyed_rng(cfg.seed, STREAM_AUDIT, idx)
        return [sec_share(spec(rng) if callable(spec) else floats(rng, *spec), sess.codec, rng)
                [sess.party].value for spec in specs]

    v8, u8, p8 = ((8,), 0.25, 2.0), ((8,), 0.25, 1.0), ((8,), 0.5, 2.0)  # wide, unit, divisor

    def run_srt(s):
        u, v, payload = shared(s, 9, v8, p8, lambda _: np.arange(8, dtype=np.uint64))
        sec_srt(s, np.stack([u, v, payload], axis=1), 2, 8)

    def run_ue(s):
        # g + B dM at a public dM, local, then the aggregate reveal
        b, grads = shared(s, 14, lambda rng: 2.0 * np.eye(3) + 0.25 * rng.uniform(-1.0, 1.0, size=(4, 3, 3)),
                          ((4, 3), 0.25, 1.0))
        state = LbfgsState(capacity=2, curvature=b)
        aggregate_reveal(s, sec_ue(s, grads, state, np.array([1.0, -0.5, 0.75])), np.zeros(3), 0.1)

    def run_lut(idx, size, lanes):
        # a public table from its own generator, indices in [0, size) split raw
        table = keyed_rng(cfg.seed, STREAM_AUDIT, idx, 1).integers(0, 2, size=size)
        return lambda s: sec_lut(s, *shared(s, idx, lambda rng: rng.integers(0, size, size=lanes)), table)

    def run_rs(idx, t, t_prime):
        def runner(s):
            # the public updates are drawn between the gradients and their split
            drawn = []

            def grads(rng):
                drawn[:] = floats(rng, (t, 3), 0.3, 1.0), floats(rng, (t, 3), 0.25, 1.0)
                return drawn[0]

            g, norms = shared(s, idx, grads, lambda _: np.linalg.norm(s.codec.quantize(drawn[0]), axis=1))
            params = SelectionParams(t=t, sigma=t_prime / t, t_prime=t_prime)
            sec_rs(s, SelectionInputs(g, drawn[1], norms), params, method=1)
        return runner

    return [
        ("sec_rec (8,)", "sec_rec", (8,), lambda s: sec_rec(s, *shared(s, 1, v8))),
        ("sec_ge (8,)", "sec_ge", (8,), lambda s: sec_ge(s, *shared(s, 6, v8, v8))),
        # 65 lanes pack the masked wires across a word boundary
        ("sec_ge (65,)", "sec_ge", (65,), lambda s: sec_ge(s, *shared(s, 19, ((65,), 0.25, 2.0), ((65,), 0.25, 2.0)))),
        ("sec_lut M=8 (5,)", "sec_lut", {"lanes": (5,), "size": 8}, run_lut(11, 8, 5)),
        ("sec_lut M=128 (70,)", "sec_lut", {"lanes": (70,), "size": 128}, run_lut(12, 128, 70)),
        ("sec_srt T=8 pair", "sec_srt", {"t": 8, "item_words": 3, "width": 2, "count": 8}, run_srt),
        ("sec_div (8,)", "sec_div", (8,), lambda s: sec_div(s, *shared(s, 10, u8, p8))),
        ("sec_ue n=4 m=3", "sec_ue", {"clients": 4, "m": 3}, run_ue),
        ("sec_rs T=32 T'=10 method 1", "sec_rs", {"t": 32, "t_prime": 10, "method": 1, "kept": 32},
         run_rs(16, 32, 10)),
        ("sec_rs T=128 T'=7 method 1", "sec_rs", {"t": 128, "t_prime": 7, "method": 1, "kept": 128},
         run_rs(18, 128, 7)),
        ("sec_rs T=12 T'=8 method 1", "sec_rs", {"t": 12, "t_prime": 8, "method": 1, "kept": 12},
         run_rs(17, 12, 8)),
    ]


def _expected_comparators(functionality: str, shape) -> int:
    """The top-k network's comparator calls, or one per pair where sec_rs ranks."""
    if functionality == "sec_srt":
        return comparator_calls(shape["t"], shape["count"])
    kept, t_prime = shape["kept"], shape["t_prime"]
    if ranks(kept, t_prime, RS_KEY_WIDTH[shape["method"]]):
        return kept * (kept - 1) // 2
    return comparator_calls(kept, t_prime)


def cmd_audit(cfg: RunConfig) -> int:
    rows = _audit_battery(cfg)

    def proto(sess: Session):
        # (rounds, online bytes, comparator calls) each row adds to a fresh meter
        deltas, before = [], (0, 0, 0)
        for *_, runner in rows:
            runner(sess)
            after = (*_meter_totals(sess), sess.meter.per_op["comparator"].invocations)
            deltas.append([b - a for a, b in zip(before, after)])
            before = after
        return deltas

    deltas, _, _ = _run_protocol(cfg, proto)
    failures = 0
    sorts = []
    name_w = max(len(label) for label, *_ in rows)
    print(f"{'functionality':{name_w}}  {'rounds':>13}  {'online bytes':>17}  status")
    for (label, functionality, shape, _), (rounds, sent, comparators) in zip(rows, deltas):
        want = predict_cost(functionality, shape, cfg.codec())
        ok = (rounds, sent) == (want.rounds, want.online_bytes)
        failures += not ok
        print(f"{label:{name_w}}  {rounds:>5d} / {want.rounds:<5d}"
              f"  {sent:>7d} / {want.online_bytes:<7d}  {'ok' if ok else 'MISMATCH'}")
        if functionality in ("sec_srt", "sec_rs"):
            sorts.append((label, comparators, _expected_comparators(functionality, shape)))
    for label, got, expected in sorts:
        print(f"{label}: comparators={got} (formula {expected})")
        failures += got != expected

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
