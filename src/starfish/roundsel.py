"""Secure round selection.

Rank the training history by the target client's cosine similarity to the
global model update and pick the top T' rounds. Two equivalent orderings:

  Method 1 keeps the score as a (numerator, denominator) pair and lets the
  comparator cross-multiply, so no secure division ever runs.
  Method 2 divides once per round up front and compares plain quotients.

Method 1 sends fewer bytes until T crosses switching_threshold; the auto
path picks accordingly. The score is a key matrix with one row per kept
round: (u, v) under method 1, the quotient under method 2, ordered by the
one gates.comparator. u is the inner product of the target's gradient with
the direction Delta/|Delta| of the public update, and v is the gradient's
norm, which stage I shares next to the gradient. A client reports at least
one grid step for it (unlearn.clients_stage_one), so an exactly-zero
gradient competes with u = 0, cosine 0, between the positive and the
negative cosines.

Only an exactly-zero update has no direction. Its rounds are dropped before
anything runs: the updates are public, so the kept rounds are too, at no
cost and with nothing revealed. What follows depends on public sizes only:

  kept <= T'      every kept round is selected; nothing more runs or is revealed.
  costs.ranks     sec_rank counts each round's pairwise wins in constant
                  rounds and reveals one membership flag per kept round,
                  looked up from its loss count: the selected set, not its
                  order.
  otherwise       sec_srt runs its bitonic top-T' network over the key with
                  each round's index as a payload column and reveals the top
                  T' indices in rank order.

costs.ranks picks ranking whenever it ships no more online bytes than the
top-T' network; stage II only uses the selected set
(SelectionResult.chronological).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import ranks
from .errors import ConfigError
from .fixedpoint import WORD_BITS, from_signed, to_signed
from .gates import const_share, sec_div, sec_rank, sec_srt
from .sharing import Session, sec_rec

KAPPA = 128  # statistical security parameter of the method-switching formula


def switching_threshold(ell_q: int, kappa: int) -> int:
    """Largest T for which the cross-multiplication method is cheaper."""
    if ell_q <= 0 or kappa < 0:
        raise ConfigError("ell_q must be positive and kappa nonnegative")
    exponent = (math.sqrt(1 + 40 * ell_q + 4 * (kappa + 1)) - 1) / 2
    return math.floor(2.0 ** exponent)


@dataclass
class SelectionParams:
    t: int
    sigma: float
    t_prime: int | None = None

    def __post_init__(self):
        if not (0.0 < self.sigma <= 1.0):
            raise ConfigError(f"sigma must be in (0, 1], got {self.sigma}")
        if self.t < 1:
            raise ConfigError("need at least one round of history")
        if self.t_prime is None:
            self.t_prime = math.ceil(self.sigma * self.t)
        if not (1 <= self.t_prime <= self.t):
            raise ConfigError(f"t_prime {self.t_prime} outside [1, {self.t}]")

    @property
    def t_delta(self) -> int:
        """Largest history length that selects with method 1."""
        return switching_threshold(WORD_BITS, KAPPA)


@dataclass
class SelectionInputs:
    """Per-round material for one target client, leading axis = round.

    target_grads and target_norms are this party's raw shares; deltas are
    the public global model updates M_i - M_{i-1}. Every target norm is at
    least one grid step, 2^-p (see unlearn.clients_stage_one).
    """

    target_grads: np.ndarray
    deltas: np.ndarray
    target_norms: np.ndarray


@dataclass
class SelectionResult:
    """The selected rounds of one target client.

    indices are best similarity first when the kept rounds were sorted, and
    ascending when they were ranked (only the set is revealed) or all kept.
    """

    indices: np.ndarray
    method: int
    kept: np.ndarray           # rounds whose public update is nonzero

    def chronological(self) -> np.ndarray:
        return np.sort(self.indices)


# -- selection pipeline --------------------------------------------------------


def sec_rs(
    sess: Session,
    inputs: SelectionInputs,
    params: SelectionParams,
    method: int | None = None,
) -> SelectionResult:
    """Select the T' most cosine-similar rounds for the target client.

    Rounds whose public update is exactly zero have no direction and are
    dropped at no cost; a zero-gradient round stays and scores cosine 0. If
    no more than T' rounds are kept, all of them are returned.
    """
    with sess.op("sec_rs"):
        if method is None:
            method = 1 if params.t <= params.t_delta else 2
        delta_norms = np.linalg.norm(np.asarray(inputs.deltas, dtype=np.float64), axis=-1)
        kept = np.flatnonzero(delta_norms > 0)  # a zero update has no direction
        if kept.size <= params.t_prime:
            return SelectionResult(indices=kept, method=method, kept=kept)
        # the cosine ignores the scale of the public update, so encode its
        # direction: a small update on the grid would lose its digits
        directions = inputs.deltas[kept] / delta_norms[kept, None]
        u = np.multiply(inputs.target_grads[kept], sess.codec.encode(directions)).sum(axis=1, dtype=np.uint64)
        v = inputs.target_norms[kept]
        key = np.stack([u, v], axis=1) if method == 1 else sec_div(sess, u, v)[:, None]
        width = key.shape[1]
        if ranks(kept.size, params.t_prime, width):
            indices = kept[sec_rank(sess, key, params.t_prime) == 1]
        else:
            rows = np.column_stack([key, const_share(sess, from_signed(kept))])
            top = sec_srt(sess, rows, width, params.t_prime)
            # padding rows sink below every kept round, whose v is at least one
            # grid step, so the top T' are all rounds
            indices = to_signed(sec_rec(sess, top[:, -1])).astype(np.int64)
        return SelectionResult(indices=indices, method=method, kept=kept)

