"""Online byte predictors: uniform, context counting, tiny fixed-point net.

All three share one duck-typed surface:

    predict_weights() -> ndarray  weights for the next byte, one per byte
                                  value; read-only, valid until update()
    update(token)                 advance state by one observed byte
    keep_table(cum)               cum holds the current table; each later
                                  update() writes the next one there
    digest() -> bytes             16-byte canonical hash of all state
    token_position                number of tokens consumed so far

The per-token protocol is always predict -> code -> update, and every
predictor is built from its config alone, so an encoder and a decoder
that see the same byte sequence replay identical state.  Mutating state
arithmetic is integer-only with truncation toward zero; the only floats
anywhere are in reporting, never in state.

Digest byte order (md5 over): magic ``KZPD``, canonical config bytes,
token position as u64 LE, then the kind-specific state payload described
on each class.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import kernel
from .rng import INCREMENT, MULTIPLIER, Lcg64, mix64

KIND_UNIFORM = "uniform"
KIND_FREQ = "freq"
KIND_NEURAL = "neural"
_KIND_TAGS = {KIND_UNIFORM: 0, KIND_FREQ: 1, KIND_NEURAL: 2}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}

ONE = 1 << 16  # Q16.16 unit
DEFAULT_LEARNING_RATE = ONE // 8  # 0.125 in Q16.16; stable across widths 8..256


ALPHABET = 256  # every predictor codes bytes
_MASK64 = (1 << 64) - 1
_MAX_LEARNING_RATE = 1 << 20  # 16.0; keeps lr * grad inside int64


@dataclass(frozen=True)
class PredictorConfig:
    """Everything a decoder needs to rebuild the predictor from scratch.

    `order` applies to freq, `context`/`width` to neural; unused fields
    must stay at their defaults so configs round-trip through the
    canonical bytes unambiguously.
    """

    kind: str
    order: int = 0  # freq: context length in bytes
    context: int = 2  # neural: context bytes fed to the net
    width: int = 16  # neural: hidden units
    seed: int = 0
    learning_rate: int = DEFAULT_LEARNING_RATE  # Q16.16

    def __post_init__(self):
        if self.kind not in _KIND_TAGS:
            raise ValueError(f"unknown predictor kind {self.kind!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if not 1 <= self.learning_rate <= _MAX_LEARNING_RATE:
            raise ValueError("learning_rate (Q16.16) must be in [1, 2^20]")
        if self.kind == KIND_FREQ and not 0 <= self.order <= 3:
            raise ValueError("freq order must be 0..3")
        if self.kind == KIND_NEURAL:
            if not 1 <= self.context <= 8:
                raise ValueError("neural context must be 1..8")
            if not 8 <= self.width <= 256:
                raise ValueError("neural width must be 8..256")
        defaults = {"uniform": ("order", "context", "width"), "freq": ("context", "width"), "neural": ("order",)}
        for field in defaults[self.kind]:
            if getattr(self, field) != PredictorConfig.__dataclass_fields__[field].default:
                raise ValueError(f"{field} is not used by kind {self.kind!r}; leave it at its default")

    # canonical serialization: kind tag byte, kind parameters (LE), seed u64 LE,
    # learning rate u32 LE; constant size per kind
    def to_bytes(self) -> bytes:
        tail = struct.pack("<QI", self.seed, self.learning_rate)
        if self.kind == KIND_UNIFORM:
            return bytes([0]) + tail
        if self.kind == KIND_FREQ:
            return bytes([1, self.order]) + tail
        return bytes([2, self.context]) + struct.pack("<H", self.width) + tail

    @classmethod
    def from_bytes(cls, data: bytes) -> "PredictorConfig":
        if not data:
            raise ValueError("empty config bytes")
        kind = _TAG_KINDS.get(data[0])
        sizes = {KIND_UNIFORM: 13, KIND_FREQ: 14, KIND_NEURAL: 16}
        if kind is None or len(data) != sizes[kind]:
            raise ValueError("malformed predictor config bytes")
        seed, lr = struct.unpack("<QI", data[-12:])
        if kind == KIND_UNIFORM:
            return cls(kind, seed=seed, learning_rate=lr)
        if kind == KIND_FREQ:
            return cls(kind, order=data[1], seed=seed, learning_rate=lr)
        (width,) = struct.unpack("<H", data[2:4])
        return cls(kind, context=data[1], width=width, seed=seed, learning_rate=lr)

    def spec_string(self) -> str:
        """Short text form: uniform | freq:K | neural:K,W."""
        if self.kind == KIND_UNIFORM:
            return "uniform"
        if self.kind == KIND_FREQ:
            return f"freq:{self.order}"
        return f"neural:{self.context},{self.width}"

    @classmethod
    def from_spec(cls, text: str, *, seed: int = 0) -> "PredictorConfig":
        """Parse `uniform`, `freq:K`, or `neural:K,W` into a config."""
        name, _, args = text.strip().partition(":")
        try:
            if name == KIND_UNIFORM and not args:
                config = cls(KIND_UNIFORM)
            elif name == KIND_FREQ:
                config = cls(KIND_FREQ, order=int(args))
            elif name == KIND_NEURAL:
                k, w = args.split(",")
                config = cls(KIND_NEURAL, context=int(k), width=int(w))
            else:
                raise ValueError("want uniform | freq:K | neural:K,W")
        except ValueError as exc:
            raise ValueError(f"bad model spec {text!r}: {exc}") from None
        return replace(config, seed=seed)  # a bad seed is reported as the seed's fault


def _bad_token(token: int) -> ValueError:
    return ValueError(f"token {token} outside the alphabet [0, {ALPHABET})")


def _digest(config: PredictorConfig, position: int, *state) -> bytes:
    """The hash of the config, the position and the state's parts in order,
    each bytes or a contiguous array, read where it lies."""
    h = hashlib.md5(b"KZPD")
    h.update(config.to_bytes())
    h.update(struct.pack("<Q", position))
    for part in state:
        h.update(part)
    return h.digest()


# the all-ones row: uniform's only prediction
_ONES_ROW = np.ones(ALPHABET, dtype=np.int64)
_ONES_ROW.flags.writeable = False


class UniformPredictor:
    """Fixed 1/256 distribution; the do-nothing baseline."""

    def __init__(self, config: PredictorConfig) -> None:
        self.config = config
        self.token_position = 0

    def predict_weights(self) -> np.ndarray:
        return _ONES_ROW

    def update(self, token: int) -> None:
        if not 0 <= token < ALPHABET:
            raise _bad_token(token)
        self.token_position += 1

    def keep_table(self, cum: np.ndarray) -> None:
        pass  # the one table never changes

    def digest(self) -> bytes:
        return _digest(self.config, self.token_position)


class FreqPredictor:
    """Order-k add-one counting model over the byte alphabet.

    Counts start at 1 for every symbol in every context; a context whose
    maximum count reaches 2^16 has all of its counts halved (floored at 1,
    preserving add-one support).  Near the start of a stream the context
    is simply the bytes available so far; no synthetic start symbol exists.

    The count table lives in the step module kernel.load() returns (the C
    extension, or its numpy twin), bound to the int64 row that
    predict_weights() views: each update() is one freq_step, which counts
    the token, advances the context and leaves the new context's counts
    (ones for a context not yet seen) in that row.  The table starts empty
    and only update() fills it, so a predictor's state exists only as the
    replay of its tokens; a predictor cannot be copied or pickled.

    Digest state payload: for each context key in lexicographic order,
    u8 key length, key bytes, counts as little-endian int32.
    """

    def __init__(self, config: PredictorConfig) -> None:
        self.config = config
        self.token_position = 0
        self._kernel = kernel.load()
        row = np.empty(ALPHABET, dtype=np.int64)
        self._freq = self._kernel.freq(config.order, row)
        self._weights = row.view()
        self._weights.flags.writeable = False

    def predict_weights(self) -> np.ndarray:
        # read-only view of the row, valid until the next update()
        return self._weights

    def update(self, token: int) -> None:
        self._kernel.freq_step(self._freq, token)
        self.token_position += 1

    def keep_table(self, cum: np.ndarray) -> None:
        self._kernel.keep_table(self._freq, cum)

    def digest(self) -> bytes:
        return _digest(self.config, self.token_position, self._kernel.freq_state(self._freq))


def _root256(x: int) -> int:
    """Floor of the 256th root: the floor square root of a floor square root
    is the floor fourth root, so eight nested isqrt."""
    for _ in range(8):
        x = math.isqrt(x)
    return x


# EXP_TABLE[g] = floor(2^16 * 2^(-g/256)): table-driven base-2 exponential
# with exponent granularity 1/256, built from exact integer roots so every
# platform gets the same bytes.
_EXP_TABLE = np.array([_root256(1 << (4096 - g)) for g in range(256)], dtype=np.int64)

# same curve pre-shifted for whole-number exponents: entry g is
# 2^16 * 2^(-g/256) for the full logit gap g/256 <= 64; everything past the
# table (gap > 2^22 in Q16.16) is identically zero, so lookups clamp
_G8 = np.arange(1 << 14)
_SOFTMAX_TABLE = _EXP_TABLE[_G8 & 0xFF] >> np.minimum(_G8 >> 8, 62)
del _G8


class NeuralPredictor:
    """One-hidden-layer byte model in Q16.16 fixed point.

    Forward pass: positional embeddings of the last K bytes are summed
    with a bias, saturated to [-1, 1] (hard clamp), multiplied into a
    W x 256 output layer, and turned into weights by a table-driven
    base-2 softmax (exponent granularity 1/256).  Missing context at the
    stream start contributes nothing (no pad byte).

    Updates follow the analytic cross-entropy gradient, scaled by the
    Q16.16 learning rate with arithmetic (floor) shifts, and parameters
    saturate at +/-8.0.  Initial weights come from the shared 64-bit LCG,
    drawn in a fixed order (emb row-major, then w2 row-major), scaled by
    1/(2 sqrt(fan)).

    Digest state payload: emb, b1, w2, b2 as little-endian int64 in that
    order, then the retained context bytes.

    The net, with its context, lives in the step module kernel.load()
    returns (the C extension, or its numpy twin), bound to the parameters
    and to the buffer whose weights predict_weights() views: each update()
    is one net_step, which trains on the token, appends it to the context
    (keeping the last K bytes) and leaves the next forward pass there.
    The net starts at the empty context and only update() moves it, so a
    predictor's state exists only as the replay of its tokens; a predictor
    cannot be copied or pickled.
    """

    def __init__(self, config: PredictorConfig) -> None:
        self.config = config
        self.k = config.context
        self.w = config.width
        self.lr = config.learning_rate
        self.token_position = 0

        stream = Lcg64(mix64(config.seed, 0x4E455552))
        emb_scale = (ONE << 8) // (2 * math.isqrt(self.k << 16))
        w2_scale = (ONE << 8) // (2 * math.isqrt(self.w << 16))
        self.emb = self._draw(stream, (self.k, ALPHABET, self.w), emb_scale)
        self.b1 = np.zeros(self.w, dtype=np.int64)
        self.w2 = self._draw(stream, (self.w, ALPHABET), w2_scale)
        self.b2 = np.zeros(ALPHABET, dtype=np.int64)

        # the net works on these arrays in place, and they are never rebound;
        # buf is pre | hidden | weights, the forward pass it keeps current
        self._kernel = kernel.load()
        buf = np.empty(2 * self.w + ALPHABET, dtype=np.int64)
        self._net = self._kernel.net(
            self.emb.reshape(-1), self.b1, self.w2.reshape(-1), self.b2, _SOFTMAX_TABLE, buf, self.lr
        )
        self._weights = buf[2 * self.w :]
        self._weights.flags.writeable = False

    @staticmethod
    def _draw(stream: Lcg64, shape: tuple, scale: int) -> np.ndarray:
        """One LCG draw per parameter, row-major, scaled sign-symmetrically.

        The states the draws read are computed in blocks by jump-ahead:
        n steps of x -> a*x + c are x -> A*x + C with (A, C) squared per
        doubling of n, and uint64 arithmetic wraps mod 2^64 as the LCG does.
        The stream is left where one next_u64() per parameter leaves it.
        """
        n = math.prod(shape)
        states = np.empty(n, dtype=np.uint64)
        states[0] = stream.next_u64()
        jump_mul, jump_add = MULTIPLIER, INCREMENT  # a jump of `done` steps
        done = 1
        while done < n:
            block = states[done : 2 * done]
            np.multiply(states[: len(block)], np.uint64(jump_mul), out=block)
            block += np.uint64(jump_add)
            jump_mul, jump_add = jump_mul * jump_mul & _MASK64, (jump_mul + 1) * jump_add & _MASK64
            done += len(block)
        stream.state = int(states[-1])
        u = (states >> np.uint64(48)).astype(np.int64) - 32768  # uniform in [-32768, 32767]
        mag = np.abs(u) * scale // 32768
        return np.where(u < 0, -mag, mag).reshape(shape)

    def predict_weights(self) -> np.ndarray:
        # read-only view, valid until the next update(), which consumes the
        # same forward pass
        return self._weights

    def update(self, token: int) -> None:
        self._kernel.net_step(self._net, token)
        self.token_position += 1

    def keep_table(self, cum: np.ndarray) -> None:
        self._kernel.keep_table(self._net, cum)

    def digest(self) -> bytes:
        # little-endian int64 already on a little-endian host: hashed in place
        params = (arr.astype("<i8", copy=False) for arr in (self.emb, self.b1, self.w2, self.b2))
        return _digest(self.config, self.token_position, *params, self._net.context)


def make_predictor(config: PredictorConfig):
    """Build a fresh predictor in its deterministic initial state."""
    cls = {
        KIND_UNIFORM: UniformPredictor,
        KIND_FREQ: FreqPredictor,
        KIND_NEURAL: NeuralPredictor,
    }[config.kind]
    return cls(config)
