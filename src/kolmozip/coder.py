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
# the one weight dtype the step module's quantize reads: native int64
# (dtypes compare by byte order too, so a big-endian row is copied)
_INT64 = np.dtype(np.int64)


def quantize_weights(weights: np.ndarray) -> np.ndarray:
    """A row of integer weights to its cumulative table, a new array.

    A table is the int64 array cum, strictly increasing from cum[0] = 0 to
    cum[m] = 2^16; symbol s has the width cum[s+1] - cum[s].  A C-contiguous
    int64 row goes to the step module as it is; a strided row, or a row of
    another integer dtype, is first copied to int64.  A row that is
    not of an integer dtype raises TypeError.  A row that is not a
    distribution (fewer than 2 or more than 2^16 weights, a negative weight,
    none positive, or a total of 2^37 or more) raises ValueError.
    """
    if weights.dtype != _INT64 or not weights.flags.c_contiguous:
        if not np.issubdtype(weights.dtype, np.integer):
            raise TypeError("quantization needs integer weights; rescale first")
        weights = np.ascontiguousarray(weights, dtype=np.int64)
    cum = np.empty(weights.size + 1, dtype=np.int64)
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
