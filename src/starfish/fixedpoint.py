"""Fixed-point encoding over the ring Z_{2^64}.

Real values are carried as two's-complement integers scaled by 2^p. A ring
tensor is a plain numpy uint64 array with native wraparound. Ownership of a
share is implicit in which party's session holds the array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RangeError, ShapeError

WORD_BITS = 64


class Ring:
    """Arithmetic mod 2^64 on numpy uint64 arrays.

    All operations wrap; callers that need signed semantics go through
    to_signed/from_signed.
    """

    def __init__(self, word_bits: int = WORD_BITS):
        if word_bits != WORD_BITS:
            raise RangeError(f"word_bits must be {WORD_BITS}, got {word_bits}")
        self.word_bits = word_bits
        self.mask = (1 << word_bits) - 1

    # -- construction -------------------------------------------------

    def array(self, x) -> np.ndarray:
        """Coerce nonnegative raw words into a ring tensor."""
        return np.asarray(x, dtype=np.uint64)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.uint64)

    def from_signed(self, x) -> np.ndarray:
        """Signed integers (python or numpy) to two's-complement words."""
        return np.asarray(x, dtype=np.int64).view(np.uint64)

    def to_signed(self, v) -> np.ndarray:
        """Two's-complement lift to signed integers."""
        return np.asarray(v, dtype=np.uint64).view(np.int64)

    def rand(self, rng: np.random.Generator, shape=()) -> np.ndarray:
        """Uniform ring elements from the given generator."""
        return rng.integers(0, 2**64, size=shape, dtype=np.uint64)

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b) -> np.ndarray:
        return np.add(a, b)

    def sub(self, a, b) -> np.ndarray:
        return np.subtract(a, b)

    def neg(self, a) -> np.ndarray:
        return np.negative(np.asarray(a, dtype=np.uint64))

    def mul(self, a, b) -> np.ndarray:
        return np.multiply(a, b)

    def matmul(self, a, b) -> np.ndarray:
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
            raise ShapeError(f"matmul shapes {a.shape} x {b.shape}")
        return np.matmul(a, b)

    def scale_int(self, a, k: int) -> np.ndarray:
        """Multiply by a public (possibly negative) integer constant."""
        return np.multiply(np.asarray(a, dtype=np.uint64), np.uint64(k & self.mask))

    def shift_right_logical(self, a, k: int) -> np.ndarray:
        return np.asarray(a, dtype=np.uint64) >> np.uint64(k)


@dataclass(frozen=True)
class FixedPointCodec:
    """Parameters of the fixed-point embedding.

    precision_p fractional bits, values bounded by 2^(range_e - 1) in
    magnitude. The statistical slack is what keeps probabilistic share
    truncation from wrapping: 2p + 2e + slack <= word_bits.
    """

    precision_p: int = 13
    range_e: int = 12
    word_bits: int = WORD_BITS
    slack: int = 14

    def __post_init__(self):
        if self.word_bits != WORD_BITS:
            raise RangeError(f"word_bits must be {WORD_BITS}, got {self.word_bits}")
        if self.precision_p < 1 or self.range_e < 1 or self.slack < 0:
            raise RangeError("codec parameters must be positive (slack >= 0)")
        budget = 2 * self.precision_p + 2 * self.range_e + self.slack
        if budget > self.word_bits:
            raise RangeError(
                f"2p + 2e + slack = {budget} exceeds word_bits = {self.word_bits}"
            )

    @cached_property
    def ring(self) -> Ring:
        return Ring(self.word_bits)

    @property
    def scale(self) -> int:
        return 1 << self.precision_p

    @property
    def max_value(self) -> float:
        return float(2 ** (self.range_e - 1))

    # -- encode / decode ----------------------------------------------

    def encode(self, x) -> np.ndarray:
        """Round half away from zero onto the 2^-p grid; RangeError if out of range."""
        arr = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise RangeError("cannot encode non-finite values")
        if np.any(np.abs(arr) >= self.max_value):
            raise RangeError(
                f"magnitude >= 2^{self.range_e - 1} not representable"
            )
        mag = np.floor(np.abs(arr) * self.scale + 0.5)
        signed = np.where(arr < 0, -mag, mag)
        return signed.astype(np.int64).view(np.uint64)

    def decode(self, v) -> np.ndarray:
        """Ring words back to floats at precision p."""
        return self.decode_at(v, self.precision_p)

    def decode_at(self, v, scale_bits: int) -> np.ndarray:
        """Decode at a non-default scale (products before truncation sit at 2p)."""
        signed = self.ring.to_signed(v)
        return np.asarray(signed, dtype=np.float64) / float(1 << scale_bits)

    def quantize(self, x) -> np.ndarray:
        """Snap floats to the representable grid (encode then decode)."""
        return self.decode(self.encode(np.asarray(x, dtype=np.float64)))

    # -- share truncation ----------------------------------------------

    def truncate_local(self, v, party: int) -> np.ndarray:
        """Per-party share truncation by p bits.

        Party 0 shifts its share; party 1 shifts the negation and negates
        back. Reconstruction lands within one unit in the last place of the
        true shifted value except with probability about 2^-slack.
        """
        ring = self.ring
        if party == 0:
            return ring.shift_right_logical(v, self.precision_p)
        return ring.neg(ring.shift_right_logical(ring.neg(v), self.precision_p))


def encode(x, codec: FixedPointCodec) -> np.ndarray:
    return codec.encode(x)


def decode(v, codec: FixedPointCodec) -> np.ndarray:
    return codec.decode(v)


def truncate_local(v, codec: FixedPointCodec, party: int) -> np.ndarray:
    return codec.truncate_local(v, party)
