"""Fixed-point encoding over the ring Z_{2^64}.

Real values are carried as two's-complement integers scaled by 2^p. A ring
tensor is a plain numpy uint64 array: numpy's array ufuncs (np.add,
np.subtract, np.multiply, np.matmul, np.negative) wrap mod 2^64, which is
the ring arithmetic. numpy *scalars* warn on wraparound, so code that may
see a 0-d value calls the ufunc rather than an operator. Ownership of a
share is implicit in which party's session holds the array.

Range budget: encoded values stay below 2^(e-1) in magnitude at scale 2^-p,
so a product of two of them sits below 2^(2p + 2e - 2) before truncation.
The statistical slack on top of that keeps probabilistic share truncation
from wrapping except with probability about 2^-slack, hence
2p + 2e + slack <= 64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError

WORD_BITS = 64
WORD_BYTES = WORD_BITS // 8


def from_signed(x) -> np.ndarray:
    """Signed integers (python or numpy) to two's-complement ring words."""
    return np.asarray(x, dtype=np.int64).view(np.uint64)


def to_signed(v) -> np.ndarray:
    """Two's-complement lift of ring words to signed integers."""
    return np.asarray(v, dtype=np.uint64).view(np.int64)


@dataclass(frozen=True)
class FixedPointCodec:
    """Parameters of the fixed-point embedding.

    precision_p fractional bits, values bounded by 2^(range_e - 1) in
    magnitude, slack bits of truncation headroom (see the module docstring).
    """

    precision_p: int = 13
    range_e: int = 12
    slack: int = 14

    def __post_init__(self):
        if self.precision_p < 1 or self.range_e < 1 or self.slack < 0:
            raise RangeError("codec parameters must be positive (slack >= 0)")
        budget = 2 * self.precision_p + 2 * self.range_e + self.slack
        if budget > WORD_BITS:
            raise RangeError(f"2p + 2e + slack = {budget} exceeds the {WORD_BITS}-bit word")

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
        """Words back to floats at precision p."""
        return self.decode_at(v, self.precision_p)

    def decode_at(self, v, scale_bits: int) -> np.ndarray:
        """Decode at a non-default scale (products before truncation sit at 2p)."""
        return np.asarray(to_signed(v), dtype=np.float64) / float(1 << scale_bits)

    def quantize(self, x) -> np.ndarray:
        """Snap floats to the representable grid (encode then decode)."""
        return self.decode(self.encode(np.asarray(x, dtype=np.float64)))

    # -- share truncation ----------------------------------------------

    def truncate_local(self, v, party: int, bits: int | None = None) -> np.ndarray:
        """Per-party share truncation by bits (p unless given).

        Party 0 shifts its share; party 1 shifts the negation and negates
        back. Reconstruction lands within one unit in the last place of the
        true shifted value except with probability about 2^-slack.
        """
        shift = np.uint64(self.precision_p if bits is None else bits)
        v = np.asarray(v, dtype=np.uint64)
        if party == 0:
            return v >> shift
        return np.negative(np.negative(v) >> shift)
