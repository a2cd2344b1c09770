"""The Starfish protocol: assisted federated training, then secure unlearning.

Stage I runs plain FedAvg while squirreling away shared per-client gradients
and norms, plus each client's largest tolerance threshold, which the client
computes in the clear and shares once. Stage II removes one client: pick the
rounds that mattered most to it, replay them with L-BFGS-estimated gradients
from everyone else, and periodically let clients whose estimates drifted
past their threshold push exact corrections.

Clients are simulated in-process. Both server parties run the same code, so
a client "sending shares" is a deterministic keyed split both sides derive
and keep their half of.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ProtocolError, RangeError
from .fixedpoint import WORD_BITS, FixedPointCodec, to_signed
from .gates import const_share, mul_public, sec_ge, sec_mi, sec_mul, sp_public
from .roundsel import SelectionInputs, SelectionParams, sec_rs
from .sharing import (
    STREAM_CLIENT_SHARES,
    Session,
    keyed_rng,
    make_inproc_sessions,
    run_pair,
    sec_rec,
    sec_share,
)

_SHARE_STAGE1 = 0
_SHARE_CORRECTION = 1
_SHARE_THRESHOLD = 2


@dataclass
class UnlearnConfig:
    n: int = 20
    m: int = 8
    t: int = 10
    sigma: float = 0.6
    alpha: float = 0.4
    beta: float = 0.1
    buffer_b: int = 2
    eta_l: float = 0.005
    eta_u: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("need at least two clients to unlearn one")
        if self.m < 1 or self.t < 1:
            raise ConfigError("model size and round count must be positive")
        if not (0.0 < self.sigma <= 1.0):
            raise ConfigError(f"sigma must be in (0, 1], got {self.sigma}")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        # beta > 1 is allowed: the correction interval then exceeds T' and no
        # checking round ever fires (estimation-only mode)
        if self.beta <= 0.0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if self.buffer_b < 0:
            raise ConfigError("buffer size cannot be negative")
        if self.eta_l <= 0.0:
            raise ConfigError("eta_l must be positive")
        if self.eta_u is None:
            self.eta_u = self.eta_l

    @property
    def t_c(self) -> int:
        return max(1, math.ceil(self.beta * self.t))

    @property
    def t_prime(self) -> int:
        return math.ceil(self.sigma * self.t)


@dataclass
class ClientPool:
    """Simulated client population: anything with gradient(model) -> (m,)."""

    clients: list
    initial_model: np.ndarray

    @property
    def n(self) -> int:
        return len(self.clients)

    def gradient(self, j: int, model: np.ndarray) -> np.ndarray:
        return np.asarray(self.clients[j].gradient(model), dtype=np.float64)


def client_round(pool: ClientPool, j: int, model: np.ndarray, alpha: float, codec: FixedPointCodec):
    """One client's local step: gradient, its norm, and the round threshold.

    The gradient is quantized to the protocol grid first so every derived
    quantity matches what the servers can actually reconstruct. delta is the
    value that exactly an alpha fraction of |g| coordinates strictly exceed
    (lower-interpolation empirical quantile; alpha=1 pins it to zero).
    """
    g = codec.quantize(pool.gradient(j, model))
    norm = float(np.linalg.norm(g))
    if alpha >= 1.0 or not np.any(g):
        delta = 0.0
    else:
        delta = float(np.quantile(np.abs(g), 1.0 - alpha, method="lower"))
    return g, norm, delta


def _meter_totals(sess: Session) -> tuple[int, int]:
    rounds = sum(st.rounds for st in sess.meter.per_op.values())
    return rounds, sess.meter.total_online_bytes


# -- history ---------------------------------------------------------------


_SFH1 = struct.Struct("<4sBBHIIIHBBd")
_SFH1_VERSION = 2


@dataclass
class HistoryStore:
    """One party's half of the training history plus the public models.

    models[i] is the global model entering round i, so grads[i] was computed
    at models[i] and produced models[i+1].
    """

    party: int
    codec: FixedPointCodec
    eta_l: float
    models: np.ndarray      # (T+1, m) float64, public
    grads: np.ndarray       # (T, n, m) raw shares
    norms: np.ndarray       # (T, n) raw shares
    thresholds: np.ndarray  # (n,) raw shares of each client's max threshold

    @property
    def t(self) -> int:
        return self.grads.shape[0]

    @property
    def n(self) -> int:
        return self.grads.shape[1]

    @property
    def m(self) -> int:
        return self.grads.shape[2]

    def model_updates(self) -> np.ndarray:
        return np.diff(self.models, axis=0)

    def selection_inputs(self, target: int) -> SelectionInputs:
        return SelectionInputs(
            target_grads=self.grads[:, target],
            deltas=self.model_updates(),
            target_norms=self.norms[:, target],
        )

    def save(self, path) -> None:
        codec = self.codec
        header = _SFH1.pack(
            b"SFH1", _SFH1_VERSION, self.party, 0,
            self.n, self.m, self.t,
            WORD_BITS, codec.precision_p, codec.range_e,
            self.eta_l,
        )
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(self.models, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.grads, dtype="<u8").tobytes())
            fh.write(np.ascontiguousarray(self.norms, dtype="<u8").tobytes())
            fh.write(np.ascontiguousarray(self.thresholds, dtype="<u8").tobytes())

    @classmethod
    def load(cls, path) -> "HistoryStore":
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < _SFH1.size or blob[:4] != b"SFH1":
            raise ConfigError(f"{path} is not a history file")
        magic, version, party, _, n, m, t, word_bits, p, e, eta_l = _SFH1.unpack_from(blob)
        if version != _SFH1_VERSION:
            raise ConfigError(f"{path} is history version {version}, expected {_SFH1_VERSION}; "
                              "rerun starfish train")
        if word_bits != WORD_BITS:
            raise ConfigError(f"{path} has {word_bits}-bit words, expected {WORD_BITS}")
        # models, grads, norms and thresholds, all 8-byte words
        size = _SFH1.size + 8 * ((t + 1) * m + t * n * m + t * n + n)
        if len(blob) != size:
            raise ConfigError(f"{path} holds {len(blob)} bytes, its header implies {size}")
        codec = FixedPointCodec(precision_p=p, range_e=e)
        off = _SFH1.size
        def take(count, dtype):
            nonlocal off
            arr = np.frombuffer(blob, dtype=dtype, count=count, offset=off)
            off += arr.nbytes
            return arr
        models = take((t + 1) * m, "<f8").reshape(t + 1, m).copy()
        grads = take(t * n * m, "<u8").reshape(t, n, m).copy()
        norms = take(t * n, "<u8").reshape(t, n).copy()
        thresholds = take(n, "<u8").copy()
        return cls(party=party, codec=codec, eta_l=eta_l, models=models,
                   grads=grads, norms=norms, thresholds=thresholds)


def stage_one(
    sess: Session,
    pool: ClientPool,
    config: UnlearnConfig,
    on_round=None,
) -> HistoryStore:
    """Federated training with assistive-information sharing.

    Aggregation reveals only the summed gradient; per-client contributions
    stay shared in the history. A client's thresholds are all in the clear at
    the client, and stage II reads only their max, so after round T each
    client shares that max alone.
    """
    if pool.n != config.n:
        raise ConfigError(f"pool has {pool.n} clients, config says {config.n}")
    codec = sess.codec
    n, m, t = config.n, config.m, config.t
    models = np.zeros((t + 1, m))
    models[0] = np.asarray(pool.initial_model, dtype=np.float64)
    grads = np.zeros((t, n, m), dtype=np.uint64)
    norms = np.zeros((t, n), dtype=np.uint64)
    max_delta = np.zeros(n)

    for i in range(t):
        for j in range(n):
            g, norm, delta = client_round(pool, j, models[i], config.alpha, codec)
            rng = keyed_rng(config.seed, STREAM_CLIENT_SHARES, _SHARE_STAGE1, i, j)
            grads[i, j] = sec_share(g, codec, rng)[sess.party].value
            norms[i, j] = sec_share(norm, codec, rng)[sess.party].value
            max_delta[j] = max(max_delta[j], delta)
        total = sec_rec(sess, grads[i].sum(axis=0, dtype=np.uint64))
        avg = codec.decode(total) / n
        models[i + 1] = models[i] - config.eta_l * avg
        if on_round is not None:
            on_round(i, models[i + 1])

    thresholds = np.zeros(n, dtype=np.uint64)
    for j in range(n):
        rng = keyed_rng(config.seed, STREAM_CLIENT_SHARES, _SHARE_THRESHOLD, j)
        thresholds[j] = sec_share(max_delta[j], codec, rng)[sess.party].value
    return HistoryStore(party=sess.party, codec=codec, eta_l=config.eta_l,
                        models=models, grads=grads, norms=norms, thresholds=thresholds)


# -- stage II building blocks ------------------------------------------------


@dataclass
class LbfgsState:
    """Sliding window of secant pairs, batched over the remaining clients."""

    capacity: int
    pairs: list = field(default_factory=list)  # (dg shares (n_rem, m), dm float (m,))

    def push(self, dg: np.ndarray, dm: np.ndarray) -> None:
        if self.capacity <= 0:
            return
        self.pairs.append((dg, dm))
        del self.pairs[: -self.capacity]


def sec_ue(sess: Session, gradients: np.ndarray, state: LbfgsState) -> np.ndarray:
    """Estimate the remaining clients' current gradients.

    The inverse Hessian is rebuilt from the identity by folding the buffered
    pairs as rank-one secant updates, then applied to the stored round
    gradients. A pair's curvature denominator u = <dG, dM> is zero-tested
    through a revealed flag first: flat lanes keep their current curvature
    (1/u has no meaning there), live lanes proceed. With an empty buffer the
    estimate is the stored gradient itself.
    """
    with sess.op("sec_ue"):
        if not state.pairs:
            return gradients.copy()
        codec = sess.codec
        nr, m = gradients.shape
        def eye_shares(count):
            block = np.broadcast_to(codec.encode(np.eye(m)), (count, m, m))
            return const_share(sess, block.copy())
        h = eye_shares(nr)
        used = False
        for dg, dm in state.pairs:
            enc_dm = codec.encode(dm)
            u = sp_public(sess, dg, enc_dm)
            usq = sec_mul(sess, u, u, truncate=False)  # exact at double scale
            zflag = sec_ge(sess, usq, const_share(sess, 1))
            live = np.flatnonzero(to_signed(sec_rec(sess, zflag)) == 1)
            if live.size == 0:
                continue
            rho = sec_mi(sess, u[live])
            rdg = sec_mul(sess, rho[:, None], dg[live])
            outer = mul_public(
                sess, rdg[:, :, None],
                np.broadcast_to(enc_dm, (live.size, 1, m)), matmul=True,
            )
            v = np.subtract(eye_shares(live.size), outer)
            vt = np.ascontiguousarray(np.swapaxes(v, -1, -2))
            folded = sec_mul(sess, sec_mul(sess, vt, h[live], matmul=True), v, matmul=True)
            rank_one = sec_mul(sess, rdg[:, :, None], dg[live][:, None, :], matmul=True)
            h[live] = np.add(folded, rank_one)
            used = True
        if not used:
            return gradients.copy()
        est = sec_mul(sess, h, gradients[:, :, None], matmul=True)
        return est[..., 0]


def aggregate_reveal(sess: Session, estimates: np.ndarray, model: np.ndarray, eta: float):
    """Average the shared estimates, reveal, and step the recovered model."""
    total = sec_rec(sess, estimates.sum(axis=0, dtype=np.uint64))
    avg = sess.codec.decode(total) / estimates.shape[0]
    return model - eta * avg, avg


def sec_tc(sess: Session, estimates: np.ndarray, threshold_shares: np.ndarray) -> np.ndarray:
    """Reveal one flag per client: does any |coordinate| reach the threshold?

    Squares are compared at double scale without truncating, so the test is
    exact on the encoded values.
    """
    with sess.op("sec_tc"):
        sq = sec_mul(sess, estimates, estimates, truncate=False)
        dsq = sec_mul(sess, threshold_shares, threshold_shares, truncate=False)
        exceed = sec_ge(sess, sq, dsq[:, None])
        count = exceed.sum(axis=-1, dtype=np.uint64)
        flag = sec_ge(sess, count, const_share(sess, 1))
        return to_signed(sec_rec(sess, flag)).astype(np.int64)


# -- the full stage II -------------------------------------------------------


@dataclass
class RunResult:
    model: np.ndarray
    trajectory: np.ndarray        # (rounds+1, m) public recovered models
    transcript: list
    selected: np.ndarray          # chronological round indices
    corrections: dict             # client -> number of corrected rounds
    check_rounds: int             # how many sec_tc rounds ran

    def transcript_jsonl(self) -> str:
        return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in self.transcript)


def _agreed_run(res: RunResult, peer: RunResult | None) -> RunResult:
    """Return res after checking the peer's public outputs, if any, equal it bit for bit."""
    if peer is not None:
        if not np.array_equal(res.trajectory, peer.trajectory) or res.transcript != peer.transcript:
            raise ProtocolError("parties disagree on public outputs")
    return res


def starfish_run(
    sess: Session,
    history: HistoryStore,
    pool: ClientPool,
    config: UnlearnConfig,
    target: int,
) -> RunResult:
    """Stage II: round selection, then the unlearning loop.

    The correction thresholds are the per-client maxima stage I shared, so
    the transcript starts at sec_rs.
    """
    if not (0 <= target < history.n):
        raise ConfigError(f"target {target} outside client range")
    codec = sess.codec
    transcript: list = []
    last = _meter_totals(sess)

    def record(op: str, flags=None) -> None:
        """Append op's rounds and bytes since the previous record."""
        nonlocal last
        now = _meter_totals(sess)
        transcript.append({
            "op": op,
            "rounds": now[0] - last[0],
            "bytes": now[1] - last[1],
            "flags": None if flags is None else [int(f) for f in flags],
        })
        last = now

    remaining = [j for j in range(history.n) if j != target]
    params = SelectionParams(t=history.t, sigma=config.sigma)
    selection = sec_rs(sess, history.selection_inputs(target), params)
    record("sec_rs")

    state = LbfgsState(capacity=config.buffer_b)
    m_hat = history.models[0].copy()
    trajectory = [m_hat.copy()]
    corrections = {j: 0 for j in remaining}
    check_rounds = 0

    for i, r in enumerate(selection.chronological(), start=1):
        # the recovered model and its gradients are public: a value that
        # leaves the codec's range means the recovery diverged at round i
        try:
            g_round = history.grads[r][remaining]
            estimates = sec_ue(sess, g_round, state)
            if i % config.t_c == 0:
                record("sec_ue")
                flags = sec_tc(sess, estimates, history.thresholds[remaining])
                check_rounds += 1
                estimates = np.array(estimates, copy=True)
                for idx, j in enumerate(remaining):
                    if flags[idx]:
                        corrections[j] += 1
                        exact = codec.quantize(pool.gradient(j, m_hat))
                        rng = keyed_rng(config.seed, STREAM_CLIENT_SHARES, _SHARE_CORRECTION, int(i), int(j))
                        estimates[idx] = sec_share(exact, codec, rng)[sess.party].value
                record("sec_tc", flags)
            m_hat_prev = m_hat
            m_hat, _ = aggregate_reveal(sess, estimates, m_hat, config.eta_u)
            trajectory.append(m_hat.copy())
            record("sec_ue")
            state.push(np.subtract(estimates, g_round), m_hat_prev - history.models[r])
        except RangeError as exc:
            raise DivergenceError(i, str(exc)) from exc

    return RunResult(model=m_hat, trajectory=np.array(trajectory), transcript=transcript,
                     selected=selection.chronological(),
                     corrections=corrections, check_rounds=check_rounds)


def simulate(config: UnlearnConfig, pool: ClientPool, target: int, codec: FixedPointCodec | None = None):
    """Run both stages on an in-process session pair.

    Returns (RunResult, history by party, sessions). Public outputs from the
    two parties must agree bit for bit; a mismatch is a protocol error.
    """
    sessions = make_inproc_sessions(config.seed, codec=codec)
    outputs: dict[int, tuple] = {}

    def proto(sess: Session):
        hist = stage_one(sess, pool, config)
        res = starfish_run(sess, hist, pool, config, target)
        outputs[sess.party] = (hist, res)
        return res

    run_pair(proto, sessions)
    h0, r0 = outputs[0]
    h1, r1 = outputs[1]
    return _agreed_run(r0, r1), {0: h0, 1: h1}, sessions
