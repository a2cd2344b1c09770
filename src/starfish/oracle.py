"""Plaintext reference world for the secure protocol.

Synthetic convex tasks stand in for the usual image benchmarks: quadratics
with a known spectrum and an l2-regularized logistic family. On top of them
live a float64 mirror of the two-stage protocol, retraining baselines, the
closed-form recovery-distance bound, and exact-arithmetic oracles for the
individual gates.

The mirror computes the integers the secure run's shares sum to, so the
two are equal bit for bit. Client gradients are snapped to the codec grid
before use. The simulated clients are one layer that both worlds call:
stage I's unlearn.clients_stage_one, and stage II's
unlearn.RemainingClients, which checks, takes exact gradients and folds each
client's float B. So stage-I values, check flags, corrections and every B
are equal by construction. No gate truncates, so selection compares the
exact cross products sec_rs compares, under its own rules, and each
recovery round sums the words g + B dm at 2^-2p that the servers reveal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AssumptionError,
    ConfigError,
    DivisionDomainError,
    UnknownFunctionality,
)
from .costs import RS_KEY_WIDTH, padded_size, ranks, topk_layers
from .fixedpoint import FixedPointCodec, to_signed
from .sharing import STREAM_BASELINE, STREAM_DATA, keyed_rng
from .unlearn import ClientPool, RemainingClients, UnlearnConfig, clients_stage_one


# -- synthetic convex tasks ---------------------------------------------------


@dataclass
class QuadraticClient:
    """Local objective 0.5 (M - opt)' A (M - opt) with an SPD curvature A."""

    matrix: np.ndarray
    opt: np.ndarray
    weight: int = 1

    def gradient(self, model: np.ndarray) -> np.ndarray:
        return self.matrix @ (model - self.opt)

    def objective(self, model: np.ndarray) -> float:
        d = model - self.opt
        return 0.5 * float(d @ self.matrix @ d)


@dataclass
class LogisticClient:
    """l2-regularized logistic loss over a private sample (labels in +-1)."""

    features: np.ndarray
    labels: np.ndarray
    reg: float

    @property
    def weight(self) -> int:
        return int(self.labels.size)

    def gradient(self, model: np.ndarray) -> np.ndarray:
        z = self.labels * (self.features @ model)
        s = -self.labels / (1.0 + np.exp(z))
        return self.features.T @ s / self.labels.size + self.reg * model

    def objective(self, model: np.ndarray) -> float:
        z = self.labels * (self.features @ model)
        return float(np.mean(np.logaddexp(0.0, -z)) + 0.5 * self.reg * float(model @ model))

    def hessian(self, model: np.ndarray) -> np.ndarray:
        z = self.features @ model
        w = 1.0 / ((1.0 + np.exp(z)) * (1.0 + np.exp(-z)))
        m = model.size
        return (self.features.T * w) @ self.features / self.labels.size + self.reg * np.eye(m)


@dataclass
class ConvexTask:
    """A federated convex objective with declared curvature bounds.

    mu and lip bound the averaged Hessian from below and above. They may be
    loose (any valid sandwich works; a loose lip is how callers pin a wanted
    mu/L step size) but never invalid.
    """

    kind: str
    clients: list
    initial_model: np.ndarray
    mu: float
    lip: float
    heldout: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("quadratic", "logistic"):
            raise ConfigError(f"unknown task family {self.kind!r}")
        if not (0.0 < self.mu <= self.lip):
            raise ConfigError(f"curvature bounds need 0 < mu <= L, got {self.mu}, {self.lip}")
        self.initial_model = np.asarray(self.initial_model, dtype=np.float64)

    @property
    def n(self) -> int:
        return len(self.clients)

    @property
    def m(self) -> int:
        return int(self.initial_model.size)

    def pool(self) -> ClientPool:
        return ClientPool(clients=list(self.clients), initial_model=self.initial_model.copy())

    def _included(self, excluded):
        picked = [c for j, c in enumerate(self.clients) if j != excluded]
        weights = np.array([c.weight for c in picked], dtype=np.float64)
        if weights.sum() <= 0:
            raise ConfigError("no data left after exclusion")
        return picked, weights / weights.sum()

    def gradient(self, model: np.ndarray, excluded: int | None = None) -> np.ndarray:
        """Data-size weighted average gradient of the included clients."""
        picked, w = self._included(excluded)
        return np.einsum("j,jk->k", w, np.stack([c.gradient(model) for c in picked]))

    def objective(self, model: np.ndarray, excluded: int | None = None) -> float:
        picked, w = self._included(excluded)
        return float(sum(wi * c.objective(model) for wi, c in zip(w, picked)))

    def optimum(self, excluded: int | None = None) -> np.ndarray:
        """Minimizer of the (weighted) average objective.

        Closed form for quadratics; a short Newton run for the logistic
        family, which the regularizer keeps strictly convex.
        """
        picked, w = self._included(excluded)
        if self.kind == "quadratic":
            lhs = sum(wi * c.matrix for wi, c in zip(w, picked))
            rhs = sum(wi * (c.matrix @ c.opt) for wi, c in zip(w, picked))
            return np.linalg.solve(lhs, rhs)
        model = np.zeros(self.m)
        for _ in range(100):
            g = self.gradient(model, excluded=excluded)
            if float(np.linalg.norm(g)) < 1e-13:
                break
            h = sum(wi * c.hessian(model) for wi, c in zip(w, picked))
            model = model - np.linalg.solve(h, g)
        return model

    def objective_gap(self, excluded: int | None = None) -> float:
        return self.objective(self.initial_model, excluded) - self.objective(self.optimum(excluded), excluded)

    def test_error(self, model: np.ndarray) -> float:
        """Held-out error: excess objective for quadratics, misclassification
        rate on the reserved sample for logistic tasks."""
        if self.kind == "quadratic":
            return max(0.0, self.objective(model) - self.objective(self.optimum()))
        x, y = self.heldout
        predicted = np.where(x @ model >= 0.0, 1.0, -1.0)
        return float(np.mean(predicted != y))


def quadratic_task(
    n: int,
    m: int,
    *,
    mu: float = 4.0,
    lam_max: float | None = None,
    lip: float | None = None,
    spread: float = 1.0,
    start: float = 1.0,
    heterogeneity: float = 0.4,
    seed: int = 0,
) -> ConvexTask:
    """Quadratic clients sharing one curvature shape, scaled per client.

    The scales are centered on 1, so the averaged Hessian keeps the base
    spectrum [mu, lam_max] and the declared bounds are honest and tight.
    Passing a larger lip loosens the smoothness constant on purpose.
    """
    if n < 2 or m < 1:
        raise ConfigError("need at least two clients and one coordinate")
    lam_max = 1.25 * mu if lam_max is None else float(lam_max)
    if lam_max < mu:
        raise ConfigError("lam_max below mu")
    lip = lam_max if lip is None else float(lip)
    if lip < lam_max:
        raise ConfigError("declared smoothness below the actual spectrum")
    rng = keyed_rng(seed, STREAM_DATA, 0)
    basis, _ = np.linalg.qr(rng.normal(size=(m, m)))
    lam = rng.uniform(mu, lam_max, size=m)
    lam[0] = mu
    lam[-1] = lam_max
    base = (basis * lam) @ basis.T
    base = 0.5 * (base + base.T)
    scales = 1.0 + heterogeneity * rng.uniform(-1.0, 1.0, size=n)
    scales = scales / scales.mean()
    center = rng.normal(size=m) / math.sqrt(m)
    opts = center + spread * rng.normal(size=(n, m)) / math.sqrt(m)
    direction = rng.normal(size=m)
    m0 = center + start * direction / float(np.linalg.norm(direction))
    clients = [QuadraticClient(matrix=scales[j] * base, opt=opts[j]) for j in range(n)]
    return ConvexTask("quadratic", clients, m0, mu=mu, lip=lip)


HELDOUT_SAMPLES = 256  # test-error sample of the logistic task


def logistic_task(
    n: int,
    m: int,
    *,
    samples: int = 16,
    reg: float = 0.5,
    scale: float = 1.0,
    seed: int = 0,
) -> ConvexTask:
    """Synthetic binary classification split evenly across clients."""
    if n < 2 or m < 1 or samples < 1:
        raise ConfigError("need two clients, one coordinate, one sample")
    if reg <= 0.0:
        raise ConfigError("the regularizer is what makes the task strongly convex")
    rng = keyed_rng(seed, STREAM_DATA, 1)
    truth = rng.normal(size=m) * (3.0 / math.sqrt(m))

    def draw(count):
        x = scale * rng.normal(size=(count, m)) / math.sqrt(m)
        probs = 1.0 / (1.0 + np.exp(-(x @ truth)))
        y = np.where(rng.uniform(size=count) < probs, 1.0, -1.0)
        return x, y

    clients = []
    for _ in range(n):
        x, y = draw(samples)
        clients.append(LogisticClient(features=x, labels=y, reg=reg))
    heldout = draw(HELDOUT_SAMPLES)
    stacked = np.vstack([c.features for c in clients])
    # sigmoid'' <= 1/4 bounds the data term's curvature
    lip = reg + float(np.linalg.eigvalsh(stacked.T @ stacked)[-1]) / (4.0 * stacked.shape[0])
    return ConvexTask("logistic", clients, np.zeros(m), mu=reg, lip=lip, heldout=heldout)


# -- plaintext protocol mirror ------------------------------------------------


@dataclass
class PlainHistory:
    """Stage-I artifacts in the clear: public models, quantized gradients,
    and the raw (unsnapped) norms and thresholds each client reported."""

    models: np.ndarray   # (T+1, m)
    grads: np.ndarray    # (T, n, m), on the codec grid
    norms: np.ndarray    # (T, n)
    deltas: np.ndarray   # (T, n)

    @property
    def t(self) -> int:
        return self.grads.shape[0]

    def model_updates(self) -> np.ndarray:
        return np.diff(self.models, axis=0)


def _as_pool(task) -> ClientPool:
    return task.pool() if isinstance(task, ConvexTask) else task


def plaintext_history(config: UnlearnConfig, pool: ClientPool, codec: FixedPointCodec) -> PlainHistory:
    """Mirror of stage I; the model track is bit-identical to the secure run
    because gradient sums of grid values are exact in float64. Like
    stage_one, it leaves each client's largest threshold with the pool."""
    if pool.n != config.n:
        raise ConfigError(f"pool has {pool.n} clients, config says {config.n}")
    n, m, t = config.n, config.m, config.t
    models = np.zeros((t + 1, m))
    models[0] = np.asarray(pool.initial_model, dtype=np.float64)
    grads = np.zeros((t, n, m))
    norms = np.zeros((t, n))
    deltas = np.zeros((t, n))
    for i in range(t):
        grads[i], norms[i], deltas[i] = clients_stage_one(pool, models[i], config.alpha, codec)
        models[i + 1] = models[i] - config.eta_l * (grads[i].sum(axis=0) / n)
    pool.trained = (models.copy(), deltas.max(axis=0))
    return PlainHistory(models=models, grads=grads, norms=norms, deltas=deltas)


def selection_scores(history: PlainHistory, target: int, codec: FixedPointCodec):
    """Cosine scores of the target's stored gradients against the public
    model updates, as the exact fractions sec_rs compares: int64 rows (u, v)
    of u = <g, encode(Delta/|Delta|)> at 2^-2p and the encoded norm v at
    2^-p, the integers the servers' shares sum to.

    Returns (scores, keep): rounds whose model update is exactly zero (it
    has no direction) are unkeepable. A zero gradient scores u = 0 over the
    one grid step its client reports as its norm.
    """
    updates = history.model_updates()
    dnorm = np.linalg.norm(updates, axis=1)
    directions = codec.encode(updates / np.where(dnorm > 0.0, dnorm, 1.0)[:, None])
    u = np.multiply(codec.encode(history.grads[:, target]), directions).sum(axis=1, dtype=np.uint64)
    scores = to_signed(np.stack([u, codec.encode(history.norms[:, target])], axis=1))
    return scores, dnorm > 0.0


def _ge(a, b) -> np.ndarray:
    """The comparator's [a >= b] on (u, v) key rows with v > 0, by exact cross products."""
    return a[..., 0] * b[..., 1] >= b[..., 0] * a[..., 1]


def _top_network(key: np.ndarray, count: int, codec: FixedPointCodec) -> np.ndarray:
    """Row positions of sec_srt's top count of (u, v) key rows, best first:
    its bitonic network (costs.topk_layers) replayed in the clear. The pad
    rows hold sec_srt's padding numerator over 1, below every key."""
    t = len(key)
    pad = [-(1 << (2 * codec.precision_p + codec.range_e - 1)), 1, -1]
    rows = np.vstack([np.column_stack([key, np.arange(t)]), np.tile(pad, (padded_size(t) - t, 1))])
    for k, j in topk_layers(t, count):
        span = j or k
        idx = np.arange(len(rows))
        hi_idx = idx[(idx & span) == 0]
        hi, lo = rows[hi_idx], rows[hi_idx + span]
        top = np.where((_ge(hi, lo) ^ ((hi_idx & k) != 0))[:, None], hi, lo)
        if j:
            rows[hi_idx], rows[hi_idx + span] = top, hi + lo - top
        else:
            rows = top
    return rows[: min(count, t), 2]


def cosine_selection(history: PlainHistory, target: int, t_prime: int, codec: FixedPointCodec,
                     method: int = 1) -> np.ndarray:
    """Chronological indices of the rounds sec_rs selects, from the same
    integers and under its rules: every kept round when at most t_prime are
    kept; else, where costs.ranks picks ranking, the rounds with fewer than
    t_prime losses, an earlier round beating a later one it ties; else the
    top t_prime of its network. Method 2 compares the quotients sec_div
    forms, round toward zero, over 1."""
    scores, keep = selection_scores(history, target, codec)
    kept = np.flatnonzero(keep)
    if kept.size <= t_prime:
        return kept
    key = scores[kept]
    if method == 2:
        key = np.column_stack([np.sign(key[:, 0]) * (np.abs(key[:, 0]) // key[:, 1]), np.ones_like(kept)])
    if ranks(kept.size, t_prime, RS_KEY_WIDTH[method]):
        beats = _ge(key[:, None], key[None, :])  # [row i >= row j]
        losses = np.triu(beats, 1).sum(axis=0) + np.triu(~beats, 1).sum(axis=1)
        return kept[losses < t_prime]
    return np.sort(kept[_top_network(key, t_prime, codec)])


@dataclass
class PlainRun:
    """One recovery trajectory plus everything needed to audit it."""

    trajectory: np.ndarray   # (rounds+1, m)
    selected: np.ndarray
    corrections: dict
    check_flags: list        # (round counter, per-remaining-client 0/1 list)
    history: PlainHistory

    @property
    def model(self) -> np.ndarray:
        return self.trajectory[-1]


def _plain_recovery(
    config: UnlearnConfig,
    pool: ClientPool,
    history: PlainHistory,
    selected: np.ndarray,
    target: int,
    codec: FixedPointCodec,
) -> PlainRun:
    """Stage II on the words the servers' shares sum to: each estimate is
    g + B dm at 2^-2p, with B the encoded curvature the clients last sent."""
    clients = RemainingClients(pool, history.models, target, config, codec)
    shift = np.uint64(codec.precision_p)
    held = None  # the servers' B
    m_hat = history.models[0].copy()
    trajectory = [m_hat.copy()]
    check_flags: list = []

    for i, r in enumerate(selected, start=1):
        estimates = codec.encode(history.grads[r][clients.ids]) << shift
        if held is not None:
            estimates = np.add(estimates, np.matmul(held, codec.encode(m_hat - history.models[r])))
        rows, grads, flags = clients.step(i, r, m_hat)
        if flags is not None:
            check_flags.append((i, flags.astype(int).tolist()))
        if rows.size:
            estimates[rows] = codec.encode(grads) << shift
            if config.buffer_b > 0:
                held = codec.encode(clients.curv)
        total = estimates.sum(axis=0, dtype=np.uint64)
        m_hat = m_hat - config.eta_u * (codec.decode(total) / codec.scale / clients.ids.size)
        trajectory.append(m_hat.copy())

    return PlainRun(trajectory=np.array(trajectory), selected=np.asarray(selected, dtype=np.int64),
                    corrections=clients.corrections, check_flags=check_flags, history=history)


def plaintext_starfish(config: UnlearnConfig, task, target: int, codec: FixedPointCodec | None = None) -> PlainRun:
    """Float mirror of the full two-stage protocol for one unlearned client."""
    codec = FixedPointCodec() if codec is None else codec
    if not (0 <= target < config.n):
        raise ConfigError(f"target {target} outside client range")
    pool = _as_pool(task)
    history = plaintext_history(config, pool, codec)
    selected = cosine_selection(history, target, config.t_prime, codec)
    return _plain_recovery(config, pool, history, selected, target, codec)


def random_selection_baseline(config: UnlearnConfig, task, target: int, codec: FixedPointCodec | None = None) -> PlainRun:
    """Same recovery loop on a uniformly drawn round subset."""
    codec = FixedPointCodec() if codec is None else codec
    if not (0 <= target < config.n):
        raise ConfigError(f"target {target} outside client range")
    pool = _as_pool(task)
    history = plaintext_history(config, pool, codec)
    rng = keyed_rng(config.seed, STREAM_BASELINE, target)
    picked = rng.choice(config.t, size=min(config.t_prime, config.t), replace=False)
    return _plain_recovery(config, pool, history, np.sort(picked), target, codec)


def train_from_scratch(
    config: UnlearnConfig,
    task: ConvexTask,
    excluded: int | None = None,
    rounds: int | None = None,
) -> np.ndarray:
    """Weighted FedAvg over the remaining clients; returns the whole
    trajectory, one row per round, starting at the initial model.

    The step size is the recovery rate, so retrained and recovered
    trajectories are directly comparable.
    """
    rounds = config.t if rounds is None else int(rounds)
    if rounds < 0:
        raise ConfigError("round count cannot be negative")
    model = task.initial_model.copy()
    trajectory = [model.copy()]
    for _ in range(rounds):
        model = model - config.eta_u * task.gradient(model, excluded=excluded)
        trajectory.append(model.copy())
    return np.array(trajectory)


# -- recovery-distance bound --------------------------------------------------


def theorem1_bound(task: ConvexTask, config: UnlearnConfig, t_i: int) -> float:
    """Closed-form cap on the recovered-vs-retrained model distance after
    t_i recovery rounds: 2 sqrt(eta_u [1/mu + 1/(sigma (mu-2))] dF t_i).

    Only proved for mu > 2 and eta_u = mu/L, so both are enforced here.
    """
    if task.mu <= 2.0:
        raise AssumptionError(f"the distance bound needs mu > 2, task has mu={task.mu}")
    if t_i < 0:
        raise ConfigError("checkpoint index cannot be negative")
    eta_req = task.mu / task.lip
    if not math.isclose(config.eta_u, eta_req, rel_tol=1e-9, abs_tol=1e-15):
        raise AssumptionError(
            f"the bound assumes eta_u = mu/L = {eta_req}, config has {config.eta_u}"
        )
    gap = max(0.0, task.objective_gap())
    inner = eta_req * (1.0 / task.mu + 1.0 / (config.sigma * (task.mu - 2.0))) * gap * t_i
    return 2.0 * math.sqrt(inner)


@dataclass
class BoundReport:
    """Measured distances against the closed-form cap, one row per checkpoint."""

    checkpoints: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    margin: np.ndarray   # bound - measured

    def violations(self) -> int:
        return int(np.sum(self.margin < 0.0))

    def as_dict(self) -> dict:
        return {
            "checkpoints": [int(t) for t in self.checkpoints],
            "measured": [float(x) for x in self.measured],
            "bound": [float(x) for x in self.bound],
            "margin": [float(x) for x in self.margin],
            "violations": self.violations(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def bound_report(
    task: ConvexTask,
    config: UnlearnConfig,
    target: int,
    codec: FixedPointCodec | None = None,
    recovered: np.ndarray | None = None,
) -> BoundReport:
    """Score a recovery trajectory against the bound at every checkpoint.

    Checkpoint t_i compares the recovered model after t_i rounds with the
    from-scratch model after ceil(t_i / sigma) rounds. A precomputed
    trajectory (e.g. from the secure engine) can be passed in; by default
    the plaintext mirror is run.
    """
    if recovered is None:
        recovered = plaintext_starfish(config, task, target, codec=codec).trajectory
    steps = recovered.shape[0] - 1
    horizon = math.ceil(steps / config.sigma) if steps else 0
    retrained = train_from_scratch(config, task, excluded=target, rounds=horizon)
    checkpoints = np.arange(1, steps + 1)
    measured = np.array([
        float(np.linalg.norm(recovered[i] - retrained[math.ceil(i / config.sigma)]))
        for i in checkpoints
    ])
    bound = np.array([theorem1_bound(task, config, int(i)) for i in checkpoints])
    return BoundReport(checkpoints=checkpoints, measured=measured,
                       bound=bound, margin=bound - measured)


# -- exact gate oracles --------------------------------------------------------


#: Absolute per-element error allowed between a secure gate and its exact
#: oracle. Zero means the gate is exact on the grid; sec_div rounds its
#: quotient toward zero, less than one unit of 2^-p.
ERROR_BUDGETS = {
    "sec_rec": 0.0,
    "sec_ge": 0.0,
    "sec_srt": 0.0,
    "sec_div": 2.0 ** -12,
}


def _exact_div(u, v) -> np.ndarray:
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    if np.any(v == 0):
        raise DivisionDomainError("division by exact zero")
    return np.array([float(Fraction(a) / Fraction(b)) for a, b in zip(u.ravel().tolist(), v.ravel().tolist())],
                    dtype=np.float64).reshape(u.shape)


def exact_gate_oracle(gate: str, *inputs):
    """Exact-arithmetic mirror of one gate's plaintext function.

    Inputs are plain float values already on the codec grid; comparisons come
    back as int64, a sort as its reordered payload, everything else as
    float64 computed over rationals. Domain errors match the secure gates.
    """
    if gate == "sec_rec":
        (x,) = inputs
        return np.asarray(x, float)
    if gate == "sec_ge":
        x, y = np.broadcast_arrays(*(np.asarray(a, float) for a in inputs))
        return (x >= y).astype(np.int64)
    if gate == "sec_srt":
        keys, payload = inputs
        order = np.argsort(-np.asarray(keys, float), kind="stable")
        return np.asarray(payload)[order]
    if gate == "sec_div":
        return _exact_div(*inputs)
    raise UnknownFunctionality(f"no exact oracle for {gate!r}")


# -- metrics -------------------------------------------------------------------


def metrics(
    task: ConvexTask,
    config: UnlearnConfig,
    recovered: np.ndarray,
    retrained: np.ndarray | None,
    transcript: list | None = None,
) -> dict:
    """JSON-ready report: held-out error, distance curve, participation.

    ARP counts, per remaining client, the checking rounds whose flag fired:
    100 (1 - T_r / T). With no corrections at all it is exactly 100. With no
    retrained trajectory the fields that compare against it are None.
    """
    recovered = np.asarray(recovered, dtype=np.float64)
    report = {"ter_recovered": task.test_error(recovered[-1]), "ter_retrained": None,
              "distance_final": None, "distances": None}
    if retrained is not None:
        retrained = np.asarray(retrained, dtype=np.float64)
        distances = []
        for i in range(1, recovered.shape[0]):
            ref = min(math.ceil(i / config.sigma), retrained.shape[0] - 1)
            distances.append(float(np.linalg.norm(recovered[i] - retrained[ref])))
        report.update(ter_retrained=task.test_error(retrained[-1]),
                      distance_final=float(np.linalg.norm(recovered[-1] - retrained[-1])),
                      distances=distances)
    flag_totals = None
    for rec in transcript or []:
        if rec.get("op") == "sec_tc" and rec.get("flags") is not None:
            flags = np.asarray(rec["flags"], dtype=np.int64)
            flag_totals = flags if flag_totals is None else flag_totals + flags
    if flag_totals is None:
        arp = 100.0
    else:
        arp = float(np.mean((config.t - flag_totals) / config.t) * 100.0)
    return report | {"arp": arp}
