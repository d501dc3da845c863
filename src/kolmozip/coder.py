"""Adaptive arithmetic coding over explicit per-symbol tables.

Two layers live here.  The production path is an integer range coder:
32-bit range register, 64-bit low accumulator whose bit 32 carries into
already-buffered output bytes, byte-at-a-time renormalization whenever
the range drops below 2^24.  The second layer is exact rational interval
arithmetic (`IdealInterval`) used to cross-check the coder against
sessions small enough to work by hand.

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
from .errors import TruncatedStreamError

PROB_BITS = 16
PROB_SCALE = 1 << PROB_BITS  # every quantized table sums to this
MAX_ALPHABET = PROB_SCALE
_RENORM = 1 << 24  # renormalize while range < 2^24
_MASK32 = 0xFFFFFFFF
_FLUSH_BYTES = 5  # tail bytes emitted by finish()
# the weight dtypes the kernel's quantize reads as they are (int32, int64)
_KERNEL_WEIGHTS = np.dtype(np.int32).char + np.dtype(np.int64).char


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

    def __len__(self) -> int:
        return len(self.weights)


def quantize_weights(weights: np.ndarray) -> np.ndarray:
    """Trusted fast path: int64 (or int32) weights straight to a cumulative table.

    A table is the int64 array cum, strictly increasing from cum[0] = 0 to
    cum[m] = 2^16; symbol s has the width cum[s+1] - cum[s].  Callers
    guarantee shape/positivity (predictors do by construction); use
    quantize_distribution for validated input.
    """
    if weights.dtype.char not in _KERNEL_WEIGHTS or not weights.flags.c_contiguous:
        weights = np.ascontiguousarray(weights, dtype=np.int64)
    cum = np.empty(weights.size + 1, dtype=np.int64)
    kernel.load().quantize(weights, cum)
    return cum


def quantize_distribution(dist: Distribution) -> np.ndarray:
    """Apportion 2^16 across symbols: floor of 1 each, then largest remainder.

    Remainder ties go to the lower symbol index.  Pure integer arithmetic,
    so equal weights always produce equal tables.
    """
    w = np.asarray(dist.weights)
    if not np.issubdtype(w.dtype, np.integer):
        raise TypeError("quantization needs integer weights; rescale first")
    return quantize_weights(w.astype(np.int64, copy=False))


class RangeEncoder:
    """Streaming range encoder; call encode_symbol repeatedly, then finish().

    `low` holds up to 33 bits between renormalizations; bit 32 is a carry
    that propagates into the buffered bytes (pending 0xFF run + cache byte,
    the usual delayed-emission scheme).  `emitted` starts with one phantom
    zero byte so a carry always has somewhere to land.
    """

    def __init__(self) -> None:
        self.low = 0
        self.range_ = _MASK32
        self.emitted = bytearray()
        self._cache_byte = 0
        self._pending = 1  # phantom leading byte
        self._finished = False

    def encode_symbol(self, cum: np.ndarray, sym: int) -> None:
        if self._finished:
            raise ValueError("encoder already finished")
        r = self.range_
        lo = (r * int(cum[sym])) >> PROB_BITS
        hi = (r * int(cum[sym + 1])) >> PROB_BITS
        self.low += lo
        self.range_ = hi - lo
        while self.range_ < _RENORM:
            self._shift_low()
            self.range_ <<= 8

    def _shift_low(self) -> None:
        low = self.low
        if low < 0xFF000000 or low > _MASK32:
            carry = low >> 32
            self.emitted.append((self._cache_byte + carry) & 0xFF)
            if self._pending > 1:
                self.emitted.extend(bytes([(0xFF + carry) & 0xFF]) * (self._pending - 1))
            self._pending = 0
            self._cache_byte = (low >> 24) & 0xFF
        self._pending += 1
        self.low = (low << 8) & _MASK32

    def finish(self) -> bytes:
        """Snap to a code value with a zero 16-bit tail and flush everything.

        range >= 2^24 holds here, so rounding low up to a multiple of 2^16
        stays inside [low, low + range); the zero tail guarantees the
        pending-byte run drains and the payload length equals exactly
        (#renormalizations + 5) bytes.
        """
        if not self._finished:
            self.low = (self.low + 0xFFFF) & ~0xFFFF
            for _ in range(_FLUSH_BYTES):
                self._shift_low()
            self._finished = True
        return bytes(self.emitted)


class RangeDecoder:
    """Mirrors RangeEncoder's range evolution, reading symbols back.

    Keeps code = (value - low) so no explicit low register is needed; the
    renormalization schedule is identical to the encoder's by construction.
    Arbitrary (tampered) payloads decode to garbage but never crash; a
    payload that runs out of bytes raises TruncatedStreamError.
    """

    def __init__(self, payload: bytes) -> None:
        self.payload = payload
        self.cursor = 0
        self.range_ = _MASK32
        self._next_byte()  # phantom byte; content ignored
        code = 0
        for _ in range(4):
            code = (code << 8) | self._next_byte()
        self.code = code
        self._locate = kernel.load().locate

    def _next_byte(self) -> int:
        if self.cursor >= len(self.payload):
            raise TruncatedStreamError(
                f"payload exhausted at byte {self.cursor}; stream is truncated"
            )
        b = self.payload[self.cursor]
        self.cursor += 1
        return b

    def decode_symbol(self, cum: np.ndarray) -> int:
        r = self.range_
        target = (((self.code + 1) << PROB_BITS) - 1) // r
        if target >= PROB_SCALE:  # only reachable on corrupted payloads
            target = PROB_SCALE - 1
        sym = self._locate(cum, target)
        lo = (r * int(cum[sym])) >> PROB_BITS
        hi = (r * int(cum[sym + 1])) >> PROB_BITS
        self.code -= lo
        self.range_ = hi - lo
        while self.range_ < _RENORM:
            self.code = ((self.code << 8) | self._next_byte()) & _MASK32
            self.range_ <<= 8
        return sym


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
