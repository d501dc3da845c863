"""Adaptive arithmetic coding over explicit per-symbol tables.

The coder is an integer range coder: 32-bit range register, 64-bit low
accumulator whose bit 32 carries into already-buffered output bytes,
byte-at-a-time renormalization whenever the range drops below 2^24.
Its state and arithmetic live in the step module (`kernel.load()`: the
C extension or its numpy twin); `RangeEncoder` and `RangeDecoder` are
thin classes over them.

Probabilities are quantized to integer widths summing to 2^16 before
they touch the coder, so encode/decode are integer-only and bit-exact.
"""

from __future__ import annotations

import numpy as np

from . import kernel

PROB_BITS = 16
PROB_SCALE = 1 << PROB_BITS  # every quantized table sums to this


def quantize_weights(weights: np.ndarray) -> np.ndarray:
    """A predictor's row of 256 weights to its cumulative table, a new array.

    A table is the int64 array cum, strictly increasing from cum[0] = 0 to
    cum[256] = 2^16; byte s has the width cum[s+1] - cum[s].  The row goes
    to the step module as it is, so it must be a one-dimensional,
    C-contiguous int64 array of 256 weights, each nonnegative, one
    positive, totalling below 2^37; any other raises the step module's
    ValueError ("weights must be int64", "weights must hold 256 entries",
    ...).
    """
    cum = np.empty(257, dtype=np.int64)
    kernel.load().quantize(weights, cum)
    return cum


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
