"""Adaptive arithmetic coding over explicit per-symbol tables.

Two layers live here.  The production path is an integer range coder:
32-bit range register, 64-bit low accumulator whose bit 32 carries into
already-buffered output bytes, byte-at-a-time renormalization whenever
the range drops below 2^24.  Its state and arithmetic live in the step
module (`kernel.load()`: the C extension or its numpy twin);
`RangeEncoder` and `RangeDecoder` are thin classes over them.  The second
layer is exact rational interval arithmetic (`IdealInterval`) used to
cross-check the coder against sessions small enough to work by hand.

Probabilities are quantized to integer widths summing to 2^16 before
they touch the coder, so encode/decode are integer-only and bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import kernel

PROB_BITS = 16
PROB_SCALE = 1 << PROB_BITS  # every quantized table sums to this
MAX_ALPHABET = PROB_SCALE
# the one weight dtype the step module's quantize reads: native int64
# (dtypes compare by byte order too, so a big-endian row is copied)
_INT64 = np.dtype(np.int64)


@dataclass(frozen=True)
class Distribution:
    """Per-symbol weights at any scale; at least one must be positive.

    Integer weights are required for quantization; exact rationals
    (`fractions.Fraction`) are also accepted by the ideal-interval ops.
    """

    weights: Sequence

    def __post_init__(self):
        n = len(self.weights)
        if not 2 <= n <= MAX_ALPHABET:
            raise ValueError(f"alphabet size {n} outside [2, {MAX_ALPHABET}]")
        w = self.weights
        if isinstance(w, np.ndarray):
            if w.min() < 0 or w.max() <= 0:
                raise ValueError("weights must be nonnegative with one positive")
        else:
            if any(x < 0 for x in w) or not any(x > 0 for x in w):
                raise ValueError("weights must be nonnegative with one positive")


def quantize_weights(weights: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """A row of integer weights to its cumulative table.

    A table is the int64 array cum, strictly increasing from cum[0] = 0 to
    cum[m] = 2^16; symbol s has the width cum[s+1] - cum[s].  A C-contiguous
    int64 row goes to the step module as it is; a strided row, or a row of
    another integer dtype, is first copied to int64.  A row that is
    not of an integer dtype raises TypeError.  A row that is not a
    distribution (fewer than 2 or more than 2^16 weights, a negative weight,
    none positive, or a total of 2^46 or more) raises ValueError.

    The table is written into out and out returned, when given: a writable,
    C-contiguous int64 array of m + 1 entries, else the step module raises
    ValueError and leaves it as it was.  Otherwise a new array is returned.
    """
    if weights.dtype != _INT64 or not weights.flags.c_contiguous:
        if not np.issubdtype(weights.dtype, np.integer):
            raise TypeError("quantization needs integer weights; rescale first")
        weights = np.ascontiguousarray(weights, dtype=np.int64)
    cum = np.empty(weights.size + 1, dtype=np.int64) if out is None else out
    kernel.load().quantize(weights, cum)
    return cum


def quantize_distribution(dist: Distribution) -> np.ndarray:
    """Apportion 2^16 across symbols: floor of 1 each, then largest remainder.

    Remainder ties go to the lower symbol index.  Pure integer arithmetic,
    so equal weights always produce equal tables; weights that are not
    integers raise TypeError.
    """
    return quantize_weights(np.asarray(dist.weights))


class RangeEncoder:
    """Streaming range encoder; call encode_symbol repeatedly, then finish().

    The state lives in the step module (`kernel.load().encoder()`): a 32-bit
    range, a low register whose bit 32 carries into the bytes not yet
    written, and a phantom leading byte for that carry to land in.
    """

    def __init__(self) -> None:
        step = kernel.load()
        self._state = step.encoder()
        self._encode, self._finish = step.encode, step.finish

    def encode_symbol(self, cum: np.ndarray, sym: int) -> int:
        """Code sym under the table cum and return its width cum[sym + 1] - cum[sym].

        ValueError, with nothing coded, unless 0 <= cum[sym] < cum[sym + 1] <= 2^16.
        """
        return self._encode(self._state, cum, sym)

    def finish(self) -> bytes:
        """Flush and return the payload: one byte per renormalization plus 5."""
        return self._finish(self._state)


class RangeDecoder:
    """Mirrors RangeEncoder's range evolution, reading symbols back.

    The state lives in the step module (`kernel.load().decoder(payload)`).
    Arbitrary (tampered) payloads decode to garbage but never crash; a
    payload that runs out of bytes raises TruncatedStreamError.
    """

    def __init__(self, payload: bytes) -> None:
        step = kernel.load()
        self._state = step.decoder(payload)
        self._decode = step.decode

    def decode_symbol(self, cum: np.ndarray) -> int:
        return self._decode(self._state, cum)

    @property
    def cursor(self) -> int:
        """Payload bytes read so far."""
        return self._state.cursor


# --- exact rational interval arithmetic ---------------------------------


@dataclass(frozen=True)
class IdealInterval:
    """Half-open subinterval of [0, 1) with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (0 <= self.lo < self.hi <= 1):
            raise ValueError("need 0 <= lo < hi <= 1")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


UNIT_INTERVAL = IdealInterval(Fraction(0), Fraction(1))


def ideal_refine(interval: IdealInterval, dist: Distribution, sym: int) -> IdealInterval:
    """Narrow `interval` to the cell of `sym`; widths multiply exactly."""
    weights = [Fraction(w) for w in dist.weights]
    total = sum(weights)
    before = sum(weights[:sym], Fraction(0))
    span = interval.width
    lo = interval.lo + before / total * span
    return IdealInterval(lo, lo + weights[sym] / total * span)


def shortest_binary_in_interval(interval: IdealInterval) -> str:
    """Shortest bit string b with 0.b in [lo, hi); ties pick the smaller value.

    Scans lengths upward; at each length the candidate is the smallest
    dyadic ceil(lo * 2^L) / 2^L, which is also the tie-break winner.
    """
    for length in range(0, 4096):
        k = math.ceil(interval.lo * (1 << length))
        if Fraction(k, 1 << length) < interval.hi:
            return format(k, f"0{length}b") if length else ""
    raise ValueError("interval too narrow for a 4096-bit code")
