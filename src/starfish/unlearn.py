"""The Starfish protocol: assisted federated training, then secure unlearning.

Stage I runs plain FedAvg while squirreling away shared per-client gradients
and norms; each client keeps the largest of its tolerance thresholds in the
clear. Stage II removes one client: pick the rounds that mattered most to
it, replay them with BFGS-estimated gradients from everyone else, and
periodically let clients whose estimates drifted past their threshold push
exact corrections.

Each estimate is g + B s, with s the public gap to the stored round's model.
Every client that sends an exact gradient also holds its own secant pair in
the clear: y is that gradient minus its stage-I gradient at the stored
model, which it recomputes. So the client runs the BFGS update of its B
itself and shares B, and stage II runs no curvature protocol. This departs
from the paper, whose servers update the curvature on shares; the servers
here see only shares of B, and nothing about the update is revealed.

A check departs from the paper the same way. Every input of the test is in
the clear at the client it flags (its stage-I gradient, its B, the public
gap and its largest threshold), so each remaining client forms its own
estimate, tests it and sends one flag (client_check); stage II runs no
comparison after selection.

Clients are simulated in-process, in one layer that the plaintext mirror
calls too: clients_stage_one is every client's stage-I step, and
RemainingClients.step a replay round's checks, exact gradients and folds.
The servers reach the clients only through their session's client feed
(sharing.ClientFeed). A client "sending shares" is one split of the whole
block the clients send, keyed by the seed, the kind of block (stage-I
gradients and norms, exact gradients, B) and the round; the feed keeps both
shares and each party takes its own. An in-process pair shares one feed, so
whichever party asks first runs the clients' round and the other reads it;
over TCP each process runs its own clients, and the keyed split gives it
the same shares.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DivergenceError, ProtocolError, RangeError
from .fixedpoint import WORD_BITS, FixedPointCodec
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
_SHARE_CURVATURE = 3

# the largest history a run may hold: T * n * (m + 1) words per party, 128 MiB
MAX_HISTORY_WORDS = 1 << 24


def check_finite(config) -> None:
    """Raise ConfigError on the first float field of a config dataclass
    that is nan or infinite."""
    for field in fields(config):
        value = getattr(config, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{field.name} must be finite, got {value}")


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
        check_finite(self)
        if self.n < 2:
            raise ConfigError("need at least two clients to unlearn one")
        if self.m < 1 or self.t < 1:
            raise ConfigError("model size and round count must be positive")
        if self.t * self.n * (self.m + 1) > MAX_HISTORY_WORDS:
            raise ConfigError(f"a history of t * n * (m + 1) = {self.t * self.n * (self.m + 1)} words per party "
                              f"exceeds the limit of {MAX_HISTORY_WORDS}")
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
    """Simulated client population: anything with gradient(model) -> (m,).

    Each client keeps the largest of its stage-I thresholds in the clear.
    trained holds them with the public models of the stage I that took
    them; stage_one fills it, and so does its plaintext mirror.
    """

    clients: list
    initial_model: np.ndarray
    trained: tuple | None = None  # (models (T+1, m), largest thresholds (n,))

    @property
    def n(self) -> int:
        return len(self.clients)

    def gradient(self, j: int, model: np.ndarray) -> np.ndarray:
        return np.asarray(self.clients[j].gradient(model), dtype=np.float64)

    def gradients(self, clients, model: np.ndarray, codec: FixedPointCodec) -> np.ndarray:
        """The clients' own gradients at model, on the codec grid: (len(clients), m)."""
        return codec.quantize([self.gradient(j, model) for j in clients]).reshape(len(clients), model.size)

    def max_thresholds(self, models: np.ndarray) -> np.ndarray:
        """The clients' largest thresholds from the stage I whose models these are."""
        if self.trained is None or not np.array_equal(self.trained[0], models):
            raise ConfigError("the clients hold no thresholds from this history's stage I; "
                              "run stage I on this pool first")
        return self.trained[1]


def clients_stage_one(pool: ClientPool, model: np.ndarray, alpha: float, codec: FixedPointCodec):
    """Every client's local step at model: gradients (n, m), their norms (n,)
    and the round thresholds (n,).

    The gradients are quantized to the protocol grid first so every derived
    quantity matches what the servers can actually reconstruct. A norm is at
    least one grid step, 2^-p: a nonzero grid gradient's already is, and an
    exactly-zero gradient, whose cosine numerator is 0, reports one step, so
    every score (u, v) has v > 0 and scores cosine 0. A threshold is the
    value that exactly an alpha fraction of the client's |g| coordinates
    strictly exceed (lower-interpolation empirical quantile); alpha=1 pins it
    to zero, and so does a zero gradient.
    """
    g = pool.gradients(range(pool.n), model, codec)
    norms = np.maximum(np.linalg.norm(g, axis=1), 1.0 / codec.scale)
    if alpha >= 1.0:
        return g, norms, np.zeros(pool.n)
    k = int((g.shape[1] - 1) * (1.0 - alpha))  # np.quantile's "lower" index
    return g, norms, np.partition(np.abs(g), k, axis=1)[:, k]


def _split(codec: FixedPointCodec, seed: int, kind: int, i: int, block: np.ndarray) -> tuple:
    """Both shares of the block the clients send at round i: one keyed split
    per round and kind of block."""
    s0, s1 = sec_share(block, codec, keyed_rng(seed, STREAM_CLIENT_SHARES, kind, i))
    return s0.value, s1.value


def _meter_totals(sess: Session) -> tuple[int, int]:
    rounds = sum(st.rounds for st in sess.meter.per_op.values())
    return rounds, sess.meter.total_online_bytes


# -- history ---------------------------------------------------------------


_SFH1 = struct.Struct("<4sBBHIIIHBBd")
_SFH1_VERSION = 3


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
        # models, grads and norms, all 8-byte words
        size = _SFH1.size + 8 * ((t + 1) * m + t * n * m + t * n)
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
        return cls(party=party, codec=codec, eta_l=eta_l, models=models, grads=grads, norms=norms)


def stage_one(
    sess: Session,
    pool: ClientPool,
    config: UnlearnConfig,
    on_round=None,
) -> HistoryStore:
    """Federated training with assistive-information sharing.

    Aggregation reveals only the summed gradient; per-client contributions
    stay shared in the history. A client's thresholds are all in the clear at
    the client, and stage II's checks read only their max, so each client
    keeps that max (in pool.trained) and shares none of them.
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

    def upload(i: int):
        g, norm, delta = clients_stage_one(pool, models[i], config.alpha, codec)
        return _split(codec, config.seed, _SHARE_STAGE1, i, np.column_stack([g, norm])), delta  # g's words, then norm's

    for i in range(t):
        shares, delta = sess.feed.get(("stage1", i), lambda: upload(i))
        grads[i], norms[i] = shares[sess.party][:, :-1], shares[sess.party][:, -1]
        max_delta = np.maximum(max_delta, delta)
        total = sec_rec(sess, grads[i].sum(axis=0, dtype=np.uint64))
        avg = codec.decode(total) / n
        models[i + 1] = models[i] - config.eta_l * avg
        if on_round is not None:
            on_round(i, models[i + 1])

    pool.trained = (models.copy(), max_delta)
    return HistoryStore(party=sess.party, codec=codec, eta_l=config.eta_l,
                        models=models, grads=grads, norms=norms)


# -- stage II building blocks ------------------------------------------------


# a client folds a pair only if |s|^2 >= MIN_STEP_SQ and y's and s'Bs exceed
# |s|^2 / 2^CURVATURE_SHIFT: flat and near-flat pairs are skipped, which keeps
# 1/y's and 1/s'Bs below 2^10
CURVATURE_SHIFT = 1
MIN_STEP_SQ = 2.0 ** -9


def client_fold(curv: np.ndarray, curved: np.ndarray, rows, y, dm, codec: FixedPointCodec) -> None:
    """The BFGS update B <- B - (Bs)(Bs)'/s'Bs + yy'/y's that each client in
    rows runs in the clear on its own pair: its row of y and the public
    s = quantize(dm). A first pair starts from B0 = gamma I, gamma = y'y/y's
    (Nocedal & Wright eq. 7.20): gamma (I - ss'/|s|^2) + yy'/y's. curv
    (n, m, m) holds the clients' float B, curved (n,) whether B has taken a
    pair; the plaintext mirror folds with the same function."""
    s = codec.quantize(dm)
    s_sq = float(s @ s)
    if s_sq < MIN_STEP_SQ:
        return
    floor, ys, bs = s_sq / 2 ** CURVATURE_SHIFT, y @ s, curv[rows] @ s
    keep = (ys > floor) & (~curved[rows] | (bs @ s > floor))
    rows, y, bs, ys = rows[keep], y[keep], bs[keep], ys[keep]
    fresh = ~curved[rows]
    gamma = (y[fresh] ** 2).sum(axis=1) / ys[fresh]
    new = curv[rows] - bs[:, :, None] * bs[:, None, :] / np.where(fresh, 1.0, bs @ s)[:, None, None]
    new[fresh] = gamma[:, None, None] * (np.eye(s.size) - np.outer(s, s) / s_sq)
    curv[rows] = new + y[:, :, None] * y[:, None, :] / ys[:, None, None]
    curved[rows] = True


@dataclass
class LbfgsState:
    """The servers' shares of each remaining client's curvature matrix B
    (dense, no window). capacity is buffer_b, the warm-up rounds that seed
    every B; at 0 no client folds and B stays zero."""

    capacity: int
    curvature: np.ndarray | None = None  # (n_rem, m, m) shares of B

    # no protocol phase calls this; it stays while perfbench/gategrid.py pushes pairs
    def push(self, _dg: np.ndarray, _dm: np.ndarray) -> None:
        """Does nothing: each client folds its own pairs (client_fold)."""


def sec_ue(sess: Session, gradients: np.ndarray, state: LbfgsState, dm=None) -> np.ndarray:
    """Estimate the remaining clients' gradients at the recovered model,
    g + B dm, where dm = m_hat - m_r is the public gap to the stored round's
    model: a local product, no round. The estimate sits at 2^-2p, the scale
    of B dm: g shifted up by p bits, plus the product, which is exact. With
    no dm or no B, it is g itself."""
    with sess.op("sec_ue"):
        estimates = gradients << np.uint64(sess.codec.precision_p)
        if dm is None or state.curvature is None:
            return estimates
        return np.add(estimates, np.matmul(state.curvature, sess.codec.encode(dm)))


def aggregate_reveal(sess: Session, estimates: np.ndarray, model: np.ndarray, eta: float):
    """Average the shared estimates at 2^-2p, reveal, and step the recovered model."""
    total = sec_rec(sess, estimates.sum(axis=0, dtype=np.uint64))
    avg = sess.codec.decode(total) / sess.codec.scale / estimates.shape[0]
    return model - eta * avg, avg


def client_check(stage1: np.ndarray, curv: np.ndarray, dm, thresholds, codec: FixedPointCodec) -> np.ndarray:
    """The flags the remaining clients send at a checking round. Each forms
    its estimate g + B s in the clear, from its stage-I gradient g at the
    stored round's model, its own B and the public s = quantize(dm), and
    flags itself when any |coordinate| reaches its largest stage-I threshold
    on the codec grid. stage1 (n, m) holds the clients' g, curv (n, m, m)
    their B, thresholds (n,) their raw largest thresholds; the plaintext
    mirror checks with the same function."""
    estimates = stage1 + curv @ codec.quantize(dm)
    return (np.abs(estimates) >= codec.quantize(thresholds)[:, None]).any(axis=1)


class RemainingClients:
    """The clients left after removing target, in stage II, each with its
    own state in the clear: its B (curv), whether B has taken a pair
    (curved), its corrected rounds and, from the first check on, its largest
    stage-I threshold. The secure run and the plaintext mirror both replay
    them through step."""

    def __init__(self, pool: ClientPool, models: np.ndarray, target: int,
                 config: UnlearnConfig, codec: FixedPointCodec):
        self.pool, self.models, self.config, self.codec = pool, models, config, codec
        self.ids = np.array([j for j in range(pool.n) if j != target])
        m = models.shape[1]
        self.curv, self.curved = np.zeros((self.ids.size, m, m)), np.zeros(self.ids.size, dtype=bool)
        self.corrections = dict.fromkeys(self.ids.tolist(), 0)
        self.thresholds = None

    def step(self, i: int, r: int, m_hat: np.ndarray):
        """Replay round i on stored round r at the recovered model m_hat. A
        warm-up round (i <= buffer_b) takes every exact gradient; a checking
        round recomputes the stage-I gradients at m_r, checks them
        (client_check) and takes the flagged clients' exact gradients. Each
        client that sends folds its pair into its B (client_fold). Returns
        (rows that send, their exact gradients, the flags or None)."""
        config, codec = self.config, self.codec
        warm = i <= config.buffer_b
        check = not warm and i % config.t_c == 0
        dm = m_hat - self.models[r]
        stage1 = self.pool.gradients(self.ids, self.models[r], codec) if warm or check else None
        rows, flags = np.arange(self.ids.size if warm else 0), None
        if check:
            if self.thresholds is None:
                self.thresholds = self.pool.max_thresholds(self.models)[self.ids]
            flags = client_check(stage1, self.curv, dm, self.thresholds, codec)
            rows = np.flatnonzero(flags)
            for j in self.ids[rows].tolist():
                self.corrections[j] += 1
        grads = self.pool.gradients(self.ids[rows], m_hat, codec)
        if rows.size and config.buffer_b > 0:
            client_fold(self.curv, self.curved, rows, grads - stage1[rows], dm, codec)
        return rows, grads, flags


# -- the full stage II -------------------------------------------------------


@dataclass
class RunResult:
    model: np.ndarray
    trajectory: np.ndarray        # (rounds+1, m) public recovered models
    transcript: list
    selected: np.ndarray          # chronological round indices
    corrections: dict             # client -> number of corrected rounds
    check_rounds: int             # how many checking rounds ran

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
    """Stage II: round selection, then the unlearning loop; the transcript
    starts at sec_rs. The remaining clients run each round's warm-up or
    check, exact gradients and folds (RemainingClients.step), so a sec_tc
    record holds a check's flags at no round; they run through the
    session's client feed, once per in-process pair. The exact gradients
    and the B of the clients that send are shared at no round, so each
    sec_ue record is the aggregate reveal alone."""
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

    params = SelectionParams(t=history.t, sigma=config.sigma)
    selection = sec_rs(sess, history.selection_inputs(target), params)
    record("sec_rs")

    clients = sess.feed.get("clients", lambda: RemainingClients(pool, history.models, target, config, codec))
    state = LbfgsState(capacity=config.buffer_b)

    def upload(i: int, r: int, m_hat: np.ndarray):
        """What the clients send at replay round i: the rows that send, the
        check's flags or None, and both shares of the senders' exact
        gradients and of their B (None when nobody sends or folds)."""
        rows, grads, flags = clients.step(i, r, m_hat)
        exact = curv = None
        if rows.size:
            exact = _split(codec, config.seed, _SHARE_CORRECTION, i, grads)
            if state.capacity > 0:
                curv = _split(codec, config.seed, _SHARE_CURVATURE, i, clients.curv[rows])
        return rows, flags, exact, curv

    m_hat = history.models[0].copy()
    trajectory = [m_hat.copy()]
    check_rounds = 0

    for i, r in enumerate(selection.chronological(), start=1):
        # the recovered model and its gradients are public: a value that
        # leaves the codec's range means the recovery diverged at round i
        try:
            estimates = sec_ue(sess, history.grads[r][clients.ids], state, m_hat - history.models[r])
            rows, flags, exact, curv = sess.feed.get(("replay", i), lambda: upload(i, r, m_hat))
            if flags is not None:
                check_rounds += 1
                record("sec_tc", flags)
            if exact is not None:
                estimates[rows] = exact[sess.party] << np.uint64(codec.precision_p)  # at sec_ue's 2^-2p
            if curv is not None:
                if state.curvature is None:
                    state.curvature = np.zeros(clients.curv.shape, dtype=np.uint64)
                state.curvature[rows] = curv[sess.party]
            m_hat, _ = aggregate_reveal(sess, estimates, m_hat, config.eta_u)
            trajectory.append(m_hat.copy())
            record("sec_ue")
        except RangeError as exc:
            raise DivergenceError(i, str(exc)) from exc

    return RunResult(model=m_hat, trajectory=np.array(trajectory), transcript=transcript,
                     selected=selection.chronological(),
                     corrections=clients.corrections, check_rounds=check_rounds)


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
