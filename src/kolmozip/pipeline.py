"""Streaming compress/decompress built on predict -> code -> update.

The compressed artifact carries three things: the predictor config (the
shared program's parameters-of-the-parameters, a handful of bytes), the
token count d, and the arithmetic-coded payload.  No learned weights
travel: the receiver reconstructs every prediction by replaying the same
training loop the sender ran.

Artifact layout (little-endian throughout):

    magic "KZV1" | version u8 | config-len u16 | config bytes
    | d LEB128 | context-len LEB128 | payload-len u64 | payload

The context-length field supports conditional compression; plain
compression writes 0.  The context bytes themselves are never stored —
the decoding caller must supply them, mirroring how conditional
complexity treats the conditioning string as given.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .coder import PROB_BITS, RangeDecoder, RangeEncoder, quantize_weights
from .errors import FormatError
from .predictors import PredictorConfig, make_predictor

MAGIC = b"KZV1"
VERSION = 1
MAX_INPUT = 1 << 48


def _max_tokens(payload_len: int) -> int:
    """The most tokens a payload of payload_len bytes can decode to.

    Every table has 256 symbols, each at least one slot wide, so no symbol
    is wider than w = 2^16 - 255.  Coding a symbol takes the range r from
    (r*hi >> 16) - (r*lo >> 16) < r*w/2^16 + 1, and r >= 2^24 before every
    symbol, so each symbol shrinks the range by a factor below
    f = (256 w + 1)/2^24 = 1 - 65279/2^24.  The range starts below 2^32,
    ends at or above 2^24, and grows 2^8 with each renormalisation byte;
    a valid payload holds payload_len - 5 of those, the other 5 being the
    coder's flush.  Hence d * log2(1/f) < 8 + 8 (payload_len - 5), and as
    log2(1/f) > (65279/2^24) log2(e) > (65279/2^24) * 1.4426,
    d < 8 (payload_len - 4) 2^24 / (65279 * 1.4426): about 1425 tokens per
    byte.
    """
    return max(payload_len - 4, 0) * (8 << 24) * 10_000 // (65279 * 14426)


@dataclass(frozen=True)
class CompressedArtifact:
    """Header (config), token count d, priming length, coded payload."""

    config: PredictorConfig
    d: int
    context_length: int
    payload: bytes


@dataclass
class SessionStats:
    """Per-token ideal code lengths plus the realized payload size.

    ideal bits for a token = 16 - log2(quantized width); the coder's
    overhead on top of the ideal total is bounded by 64 bits.
    """

    token_bits: np.ndarray
    payload_bits: int
    digests: list[bytes] = field(default_factory=list)

    @property
    def n_tokens(self) -> int:
        return len(self.token_bits)

    @property
    def ideal_bits(self) -> float:
        return float(self.token_bits.sum())

    @property
    def mean_bpb(self) -> float:
        return self.ideal_bits / self.n_tokens if self.n_tokens else 0.0

    @property
    def payload_bpb(self) -> float:
        return self.payload_bits / self.n_tokens if self.n_tokens else 0.0


def _replay(pred, context: bytes, n: int, code, audit: bool) -> list[bytes]:
    """The training loop encoder and decoder share; only `code` differs.

    The predictor first trains on context (no bits flow, no table is made),
    then quantizes its prediction into the session's one table and keeps it
    there; per token, code(table, i) -> token, then the update, which leaves
    the next table in it.  The encoder's `code` writes the i-th
    input byte, the decoder's reads one, so both sides see the same tables.
    Returns the per-token state digests when audit is set.
    """
    for tok in context:
        pred.update(tok)
    table = quantize_weights(pred.predict_weights())
    pred.keep_table(table)
    update = pred.update
    digests: list[bytes] = []
    for i in range(n):
        update(code(table, i))
        if audit:
            digests.append(pred.digest())
    return digests


def _session(
    data: bytes, config: PredictorConfig, context: bytes, audit: bool
) -> tuple[CompressedArtifact, SessionStats]:
    if len(data) >= MAX_INPUT:
        raise ValueError("input too long for the 48-bit token counter")
    encoder = RangeEncoder()
    widths = np.empty(len(data), dtype=np.int64)
    encode_symbol = encoder.encode_symbol

    def encode(cum: np.ndarray, i: int) -> int:
        tok = data[i]
        widths[i] = encode_symbol(cum, tok)
        return tok

    digests = _replay(make_predictor(config), context, len(data), encode, audit)
    payload = encoder.finish()
    stats = SessionStats(
        token_bits=PROB_BITS - np.log2(widths),
        payload_bits=8 * len(payload),
        digests=digests,
    )
    artifact = CompressedArtifact(config, len(data), len(context), payload)
    return artifact, stats


def compress(
    data: bytes, config: PredictorConfig, *, audit: bool = False
) -> tuple[CompressedArtifact, SessionStats]:
    """Code data under an online-trained predictor started from scratch."""
    return _session(data, config, b"", audit)


def compress_conditional(
    target: bytes, context: bytes, config: PredictorConfig, *, audit: bool = False
) -> tuple[CompressedArtifact, SessionStats]:
    """Code target with a predictor first primed on context.

    Only len(context) enters the artifact; decoding requires the caller
    to present the identical context.  Wrong context bytes of the right
    length decode to garbage, exhaust the payload early or leave payload
    bytes unread — the format carries no integrity check.
    """
    return _session(target, config, context, audit)


def decompress(
    artifact: CompressedArtifact, context: bytes = b"", *, audit: bool = False
):
    """Reconstruct the exact input by replaying training on decoded tokens.

    Returns bytes, or (bytes, digests) when audit is set.  A payload that
    runs out raises TruncatedStreamError; one with bytes left over after
    the d tokens raises FormatError.
    """
    if len(context) != artifact.context_length:
        raise FormatError(
            f"artifact was coded against {artifact.context_length} context "
            f"bytes, got {len(context)}"
        )
    decoder = RangeDecoder(artifact.payload)
    out = bytearray()
    decode_symbol, append = decoder.decode_symbol, out.append

    def decode(cum: np.ndarray, i: int) -> int:
        tok = decode_symbol(cum)
        append(tok)
        return tok

    digests = _replay(make_predictor(artifact.config), context, artifact.d, decode, audit)
    # a valid stream of d tokens ends exactly at the last payload byte
    unread = len(artifact.payload) - decoder.cursor
    if unread:
        raise FormatError(f"{unread} payload bytes left over after {artifact.d} tokens")
    data = bytes(out)
    return (data, digests) if audit else data


# --- wire format -----------------------------------------------------------


def _leb128(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _read_leb128(blob: bytes, pos: int) -> tuple[int, int]:
    value = shift = 0
    while True:
        if pos >= len(blob):
            raise FormatError("truncated varint")
        byte = blob[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if shift and not byte:  # padded: _leb128 never writes a zero final byte
                raise FormatError("non-minimal varint")
            return value, pos
        shift += 7
        if shift > 63:
            raise FormatError("varint too long")


def serialize(artifact: CompressedArtifact) -> bytes:
    config = artifact.config.to_bytes()
    return b"".join(
        (
            MAGIC,
            bytes([VERSION]),
            struct.pack("<H", len(config)),
            config,
            _leb128(artifact.d),
            _leb128(artifact.context_length),
            struct.pack("<Q", len(artifact.payload)),
            artifact.payload,
        )
    )


def deserialize(blob: bytes) -> CompressedArtifact:
    if len(blob) < 7:
        raise FormatError("artifact shorter than its fixed header")
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}")
    if blob[4] != VERSION:
        raise FormatError(f"unknown format version {blob[4]}")
    (config_len,) = struct.unpack_from("<H", blob, 5)
    pos = 7
    if pos + config_len > len(blob):
        raise FormatError("truncated predictor config")
    try:
        config = PredictorConfig.from_bytes(blob[pos : pos + config_len])
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    pos += config_len
    d, pos = _read_leb128(blob, pos)
    context_length, pos = _read_leb128(blob, pos)
    if pos + 8 > len(blob):
        raise FormatError("truncated payload length")
    (payload_len,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    if pos + payload_len > len(blob):
        raise FormatError("truncated payload")
    if pos + payload_len < len(blob):
        raise FormatError("trailing bytes after payload")
    if d >= MAX_INPUT or d > _max_tokens(payload_len):
        raise FormatError(f"token count {d} is more than a {payload_len}-byte payload can carry")
    return CompressedArtifact(config, d, context_length, blob[pos : pos + payload_len])


# --- experiments -------------------------------------------------------------


def scaling_ladder(data: bytes, configs: list[PredictorConfig]) -> list[dict]:
    """Compress one corpus under each config; report in config order.

    The configs run one after another in the calling process.  Richer models
    of the same family are expected (not enforced) to appear later in the list.
    """
    records = []
    for config in configs:
        artifact, stats = compress(data, config)
        records.append(
            {
                "config": config.spec_string(),
                "input_bytes": len(data),
                "payload_bytes": len(artifact.payload),
                "ideal_bits": stats.ideal_bits,
                "bpb": stats.payload_bits / len(data) if data else 0.0,
            }
        )
    return records
