"""Test oracles the package does not run: exact rational interval
arithmetic, and kclab's literal program and prefix decoder.

The interval model is that of Witten, Neal & Cleary, *Arithmetic Coding
for Data Compression* (CACM 1987): each coded symbol narrows a half-open
subinterval of [0, 1) to its cell, and the code is the shortest dyadic
inside the final interval.  Sessions small enough to work by hand are
checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from kolmozip.coder import PROB_SCALE, quantize_weights
from kolmozip.errors import FormatError
from kolmozip.kclab import OUT0, OUT1, TinyProgram, _check_bits


@dataclass(frozen=True)
class Distribution:
    """Per-symbol weights at any scale; at least one must be positive.

    Integer weights are required for quantization; exact rationals
    (`fractions.Fraction`) are also accepted by the ideal-interval ops.
    """

    weights: Sequence

    def __post_init__(self):
        n = len(self.weights)
        if not 2 <= n <= PROB_SCALE:
            raise ValueError(f"alphabet size {n} outside [2, {PROB_SCALE}]")
        w = self.weights
        if isinstance(w, np.ndarray):
            if w.min() < 0 or w.max() <= 0:
                raise ValueError("weights must be nonnegative with one positive")
        else:
            if any(x < 0 for x in w) or not any(x > 0 for x in w):
                raise ValueError("weights must be nonnegative with one positive")


def quantize_distribution(dist: Distribution) -> np.ndarray:
    """Apportion 2^16 across symbols: floor of 1 each, then largest remainder.

    Remainder ties go to the lower symbol index.  Pure integer arithmetic,
    so equal weights always produce equal tables; weights that are not
    integers raise TypeError.
    """
    return quantize_weights(np.asarray(dist.weights))


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


# --- the artifact format -------------------------------------------------------


def max_tokens(payload_len: int) -> int:
    """The token bound of pipeline._max_tokens, from its docstring's closed
    form in exact rationals: the largest d with d * (65279/2^24) * 1.4426 <=
    8 (payload_len - 4), and 0 where payload_len <= 4.  1.4426 lies below
    log2(e), so the true per-symbol shrink bound log2(1/f) is above the one
    used, and the bound is safe."""
    assert Fraction("1.4426") < math.log2(math.e)
    if payload_len <= 4:
        return 0
    return math.floor(Fraction(8 * (payload_len - 4)) / (Fraction(65279, 1 << 24) * Fraction("1.4426")))


# --- kclab ------------------------------------------------------------------


def literal_program(x: str) -> TinyProgram:
    """One OUT per bit; its 3*l(x) bits are the ceiling for phi."""
    _check_bits(x, "x")
    return TinyProgram(tuple(OUT1 if b == "1" else OUT0 for b in x))


def prefix_decode(bits: str) -> tuple[str, str]:
    """Inverse of prefix_encode; returns (s, remainder)."""
    _check_bits(bits, "bits")
    marker = bits.find("0")
    if marker < 0:
        raise FormatError("prefix code missing its 0 marker")
    body = bits[marker + 1 : marker + 1 + marker]
    if len(body) < marker:
        raise FormatError("prefix code shorter than its declared length")
    return body, bits[marker + 1 + marker :]
