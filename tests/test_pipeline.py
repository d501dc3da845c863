"""End-to-end protocol tests: round trips, replay identity, wire format."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmozip import pipeline
from kolmozip.coder import PROB_SCALE
from kolmozip.errors import FormatError, TruncatedStreamError
from kolmozip.pipeline import (
    MAX_INPUT,
    CompressedArtifact,
    _leb128,
    _max_tokens,
    _read_leb128,
    compress,
    compress_conditional,
    decompress,
    deserialize,
    scaling_ladder,
    serialize,
)
from kolmozip.predictors import FreqPredictor, NeuralPredictor, PredictorConfig, make_predictor
from kolmozip.rng import Lcg64
from kolmozip.sources import MarkovSpec, generate

from oracle import max_tokens, oracle_largest_remainder

UNIFORM = PredictorConfig("uniform")
FREQ0 = PredictorConfig("freq", order=0)
FREQ2 = PredictorConfig("freq", order=2)
NEURAL = PredictorConfig("neural", context=1, width=8)

# golden empty-input artifact under the default uniform config; every field
# of the wire format is pinned here
EMPTY_ARTIFACT_HEX = (
    "4b5a5631"  # magic
    "01"  # version
    "0d00"  # config length 13
    "00" "0000000000000000" "00200000"  # uniform, seed 0, lr 8192
    "00" "00"  # d = 0, context length = 0
    "0500000000000000"  # payload length
    "0000000000"  # flush-only payload
)


def lcg_bytes(seed: int, n: int) -> bytes:
    rng = Lcg64(seed)
    return bytes(rng.below(256) for _ in range(n))


def test_empty_input():
    artifact, stats = compress(b"", UNIFORM)
    assert artifact.d == 0
    assert len(artifact.payload) == 5  # pure coder flush
    assert stats.n_tokens == 0 and stats.ideal_bits == 0.0
    assert decompress(artifact) == b""


def test_empty_artifact_golden_bytes():
    artifact, _ = compress(b"", UNIFORM)
    assert serialize(artifact).hex() == EMPTY_ARTIFACT_HEX.replace(" ", "")


@pytest.mark.parametrize("config", [UNIFORM, FREQ0, FREQ2, NEURAL], ids=str)
def test_roundtrip_and_length_bound(config):
    corpora = [
        lcg_bytes(1, 2048),
        b"A" * 2048,
        b"abracadabra" * 200,
        generate(MarkovSpec(order=2, alphabet=8, concentration=5, seed=3), 4096),
        b"\x00",
        bytes(range(256)),
    ]
    for data in corpora:
        artifact, stats = compress(data, config)
        assert decompress(artifact) == data
        overhead = stats.payload_bits - stats.ideal_bits
        assert 0 <= overhead <= 64
        assert deserialize(serialize(artifact)) == artifact


def test_abracadabra_against_count_replay_oracle():
    data = b"abracadabra" * 1000
    artifact, stats = compress(data, PredictorConfig("freq", order=1))
    assert len(artifact.payload) < len(data)

    # independent replay: add-one counts per 1-byte context, quantized by the
    # reference largest-remainder apportionment
    counts: dict[int, list[int]] = {}
    ctx = None
    oracle_widths = []
    for tok in data:
        row = counts.get(ctx, [1] * 256) if ctx is not None else [1] * 256
        quant = oracle_largest_remainder(row)
        oracle_widths.append(quant[tok])
        if ctx is not None:
            counts.setdefault(ctx, [1] * 256)[tok] += 1
        ctx = tok
    expected = 16 - np.log2(np.array(oracle_widths))
    assert np.array_equal(stats.token_bits, expected)


def test_random_bytes_incompressible():
    data = lcg_bytes(9, 65536)
    artifact, _ = compress(data, FREQ2)
    assert len(artifact.payload) >= len(data) - 16
    artifact, stats = compress(data, UNIFORM)
    # uniform table is exactly 256 slots/symbol: ideal is exactly 8 bpb
    assert stats.ideal_bits == 8.0 * len(data)
    assert len(artifact.payload) - len(data) <= 16


def test_conditional_empty_context_degenerates_to_compress():
    data = b"banana bread" * 50
    plain, _ = compress(data, FREQ2)
    cond, _ = compress_conditional(data, b"", FREQ2)
    assert plain == cond
    assert serialize(plain) == serialize(cond)


def test_conditional_context_helps_and_roundtrips():
    target = b"the quick brown fox jumps over the lazy dog. " * 90
    cfg = PredictorConfig("freq", order=3)
    plain, plain_stats = compress(target, cfg)
    cond, cond_stats = compress_conditional(target, target, cfg)
    assert cond_stats.ideal_bits < plain_stats.ideal_bits
    assert cond.context_length == len(target)
    assert decompress(cond, context=target) == target

    # a wrong context of the right length is undetectable up front: decoding
    # either fabricates different bytes or runs the payload dry
    wrong = b"x" * len(target)
    try:
        assert decompress(cond, context=wrong) != target
    except TruncatedStreamError:
        pass
    with pytest.raises(FormatError):
        decompress(cond, context=b"short")


def _coded(data: bytes, context: bytes, config: PredictorConfig, audit) -> CompressedArtifact:
    if context:
        return compress_conditional(data, context, config, audit=audit)[0]
    return compress(data, config, audit=audit)[0]


@pytest.mark.parametrize("context", [b"", b"the context comes first, "], ids=["plain", "conditional"])
@pytest.mark.parametrize("config", [UNIFORM, FREQ2, NEURAL], ids=str)
def test_audit_is_passed_the_state_after_each_token(config, context):
    data = b"abracadabra, abracadabra! " * 20
    pred = make_predictor(config)
    for tok in context:  # priming: no digest
        pred.update(tok)
    expected = []
    for tok in data:
        pred.update(tok)
        expected.append(pred.digest())
    encoded, decoded = [], []
    artifact = _coded(data, context, config, encoded.append)
    assert decompress(artifact, context, audit=decoded.append) == data
    assert len(expected) == len(data) and encoded == decoded == expected
    # a second compress, unaudited, serializes to the same bytes
    assert serialize(_coded(data, context, config, None)) == serialize(artifact)


def _perturb(pred) -> None:
    """Change pred's state as no token would: a parameter, the counts or the position."""
    if isinstance(pred, NeuralPredictor):
        pred.b2[0] += 1
    elif isinstance(pred, FreqPredictor):
        pred._kernel.freq_step(pred._freq, 0)
    else:
        pred.token_position += 1


@pytest.mark.parametrize("config", [UNIFORM, FREQ2, NEURAL], ids=str)
def test_the_first_digest_that_differs_is_the_perturbed_token(config, monkeypatch):
    data = generate(MarkovSpec(order=1, alphabet=16, concentration=4, seed=5), 600)
    encoded = []
    artifact, _ = compress(data, config, audit=encoded.append)
    cls = type(make_predictor(config))
    update = cls.update
    for t in (0, len(data) // 2, len(data) - 1):
        calls = itertools.count()

        def perturbed(self, token, t=t):
            update(self, token)
            if next(calls) == t:
                _perturb(self)

        monkeypatch.setattr(cls, "update", perturbed)
        decoded = []
        with contextlib.suppress(FormatError, TruncatedStreamError):  # decoding past t may fail
            decompress(artifact, audit=decoded.append)
        assert next(i for i, (a, b) in enumerate(zip(encoded, decoded)) if a != b) == t


def test_audit_keeps_nothing():
    # 200 KB of state digests would take megabytes as a list; the sink keeps none
    data = bytes(range(256)) * 800

    def peak(audit) -> int:
        tracemalloc.start()
        try:
            decompress(compress(data, UNIFORM, audit=audit)[0], audit=audit)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sink = hashlib.md5().update
    decompress(compress(data[:10], UNIFORM, audit=sink)[0], audit=sink)  # one-time allocations
    assert peak(sink) - peak(None) <= 64 << 10


@pytest.mark.parametrize("audit", [True, 1, "yes"])
def test_audit_that_is_not_callable_is_refused_before_any_work(audit):
    artifact, _ = compress(b"", UNIFORM)
    for call in (
        lambda: compress(b"", UNIFORM, audit=audit),
        lambda: compress_conditional(b"", b"ab", UNIFORM, audit=audit),
        lambda: decompress(artifact, audit=audit),
    ):
        with pytest.raises(TypeError, match="audit must be None or a callable"):
            call()


def test_serialize_fuzz_truncation_and_tamper():
    artifact, _ = compress(b"hello world", FREQ0)
    blob = serialize(artifact)
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            deserialize(blob[:cut])
    with pytest.raises(FormatError):
        deserialize(blob + b"\x00")  # trailing junk
    with pytest.raises(FormatError):
        deserialize(b"XXXX" + blob[4:])  # magic
    with pytest.raises(FormatError):
        deserialize(blob[:4] + b"\x02" + blob[5:])  # version
    bad_kind = blob[:7] + b"\x07" + blob[8:]
    with pytest.raises(FormatError):
        deserialize(bad_kind)


def test_truncated_payload_raises_cleanly():
    data = lcg_bytes(4, 3000)
    artifact, _ = compress(data, FREQ2)
    clipped = CompressedArtifact(
        artifact.config, artifact.d, 0, artifact.payload[: len(artifact.payload) // 2]
    )
    with pytest.raises(TruncatedStreamError):
        decompress(clipped)


@pytest.mark.parametrize("config", [UNIFORM, FREQ2, NEURAL], ids=str)
def test_payload_bytes_left_over_or_missing_are_rejected(config):
    data = lcg_bytes(6, 700)
    artifact, _ = compress(data, config)
    for junk in (b"\x00", b"\x00\x01\x02"):
        padded = CompressedArtifact(config, artifact.d, 0, artifact.payload + junk)
        with pytest.raises(FormatError, match="left over"):
            decompress(deserialize(serialize(padded)))
    clipped = CompressedArtifact(config, artifact.d, 0, artifact.payload[:-1])
    with pytest.raises(TruncatedStreamError):
        decompress(clipped)


def test_forged_token_count_is_rejected_before_decoding(monkeypatch):
    artifact, _ = compress(b"abc", FREQ0)

    def forged(d: int) -> bytes:
        return serialize(CompressedArtifact(FREQ0, d, 0, artifact.payload))

    limit = _max_tokens(len(artifact.payload))
    assert deserialize(forged(limit)).d == limit
    for d in (limit + 1, MAX_INPUT, (1 << 63) - 1):
        with pytest.raises(FormatError, match="token count"):
            deserialize(forged(d))
    # the 48-bit counter bounds d even where the payload would allow more
    monkeypatch.setattr(pipeline, "_max_tokens", lambda n: 1 << 62)
    assert deserialize(forged(MAX_INPUT - 1)).d == MAX_INPUT - 1
    with pytest.raises(FormatError, match="token count"):
        deserialize(forged(MAX_INPUT))


# _max_tokens at a few payload lengths, recorded: none below 5 bytes, then
# about 1425 tokens a byte
MAX_TOKENS = {0: 0, 4: 0, 5: 1425, 6: 2850, 100: 136_823, 1 << 16: 93_399_356, 1 << 30: 1_530_348_458_738}


def test_token_bound_is_its_docstring_closed_form():
    assert {n: _max_tokens(n) for n in MAX_TOKENS} == {n: max_tokens(n) for n in MAX_TOKENS} == MAX_TOKENS


def test_varints_are_read_up_to_ten_groups():
    # 64 bits take ten 7-bit groups; an eleventh is refused, whatever it holds
    top = (1 << 64) - 1
    assert len(_leb128(top)) == 10 and _read_leb128(_leb128(top), 0) == (top, 10)
    assert _read_leb128(b"\x80" * 9 + b"\x01", 0) == (1 << 63, 10)
    for eleventh in (b"\x01", b"\x00", b"\x7f"):
        with pytest.raises(FormatError, match="varint too long"):
            _read_leb128(b"\x80" * 10 + eleventh, 0)


def test_long_constant_stream_round_trips_under_the_token_bound():
    # the cheapest bytes freq:0 codes: within a small factor of the bound
    data = b"\x07" * (1 << 17)
    artifact, _ = compress(data, FREQ0)
    limit = _max_tokens(len(artifact.payload))
    assert limit // 6 < len(data) <= limit
    assert decompress(deserialize(serialize(artifact))) == data


def test_padded_varints_are_rejected():
    # a varint padded with zero groups decodes to the same value, but it is
    # never what serialize writes, so it is garbage the format can detect
    artifact, _ = compress(b"abracadabra, abracadabra!", FREQ0)
    config = FREQ0.to_bytes()
    head = pipeline.MAGIC + bytes([pipeline.VERSION]) + struct.pack("<H", len(config)) + config
    tail = struct.pack("<Q", len(artifact.payload)) + artifact.payload

    def blob(d: bytes, context_length: bytes) -> bytes:
        return head + d + context_length + tail

    def padded(field: bytes, zeros: int = 1) -> bytes:
        return field[:-1] + bytes([field[-1] | 0x80]) + b"\x80" * (zeros - 1) + b"\x00"

    d, zero, long = bytes([artifact.d]), b"\x00", bytes([0xAC, 0x02])  # 25, 0, 300
    assert blob(d, zero) == serialize(artifact)
    assert deserialize(blob(d, long)).context_length == 300
    for bad in (
        blob(padded(d), zero),
        blob(padded(d, 3), zero),
        blob(d, padded(zero)),
        blob(d, padded(long)),
    ):
        with pytest.raises(FormatError, match="non-minimal varint"):
            deserialize(bad)


FUZZ_DATA = b"abracadabra, abracadabra! " * 2
FUZZ_CONFIGS = {"uniform": UNIFORM, "freq:1": PredictorConfig("freq", order=1), "neural:1,8": NEURAL}
MUTATIONS = ["none", "payload bytes", "any byte", "d", "context length", "truncation", "extension"]


@functools.cache
def fuzz_artifact(spec: str) -> CompressedArtifact:
    return compress(FUZZ_DATA, FUZZ_CONFIGS[spec])[0]


@given(spec=st.sampled_from(list(FUZZ_CONFIGS)), mutation=st.sampled_from(MUTATIONS), data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_artifacts_round_trip_or_fail_cleanly(spec, mutation, data):
    # every input either decodes to exactly d bytes or raises one of the two
    # format errors; the d bound keeps the work of each case small
    original = fuzz_artifact(spec)
    config, d, context_length, payload = original.config, original.d, 0, original.payload
    if mutation == "payload bytes":
        edits = st.tuples(st.integers(0, len(payload) - 1), st.integers(0, 255))
        edited = bytearray(payload)
        for i, value in data.draw(st.lists(edits, min_size=1, max_size=4)):
            edited[i] = value
        payload = bytes(edited)
    elif mutation == "d":
        limit = _max_tokens(len(payload))
        d = data.draw(st.integers(0, 4 * d) | st.sampled_from([limit, limit + 1]) | st.integers(0, 1 << 64))
    elif mutation == "context length":
        context_length = data.draw(st.integers(0, 64) | st.integers(0, 1 << 64))
    elif mutation == "truncation":
        payload = payload[: data.draw(st.integers(0, len(payload) - 1))]
    elif mutation == "extension":
        payload += data.draw(st.binary(min_size=1, max_size=8))
    blob = serialize(CompressedArtifact(config, d, context_length, payload))
    if mutation == "any byte":
        i = data.draw(st.integers(0, len(blob) - 1))
        blob = blob[:i] + bytes([data.draw(st.integers(0, 255))]) + blob[i + 1 :]
    try:
        artifact = deserialize(blob)
        assert serialize(artifact) == blob  # one encoding per artifact
        # a context of the stated length where one is small enough to supply
        context = bytes(artifact.context_length) if artifact.context_length <= 64 else b""
        out = decompress(artifact, context)
    except (FormatError, TruncatedStreamError):
        assert mutation != "none"
        return
    assert len(out) == artifact.d
    if blob == serialize(original):
        assert out == FUZZ_DATA


def test_header_size_independent_of_parameter_count():
    data = b"independence day" * 32
    sizes = set()
    for width in (16, 64, 256):
        cfg = PredictorConfig("neural", context=2, width=width)
        artifact, _ = compress(data, cfg)
        sizes.add(len(serialize(artifact)) - len(artifact.payload))
    assert len(sizes) == 1  # parameter count never touches the wire


def test_scaling_ladder_orders_and_reports():
    # 32 KiB is enough for order 0 vs 1 to separate; the order-1/3 version
    # needs the full 256 KiB corpus and lives in the acceptance suite
    data = generate(MarkovSpec(order=1, alphabet=8, concentration=5, seed=11), 32768)
    report = scaling_ladder(
        data, [PredictorConfig("freq", order=0), PredictorConfig("freq", order=1)]
    )
    assert [r["config"] for r in report] == ["freq:0", "freq:1"]
    assert report[0].keys() == {"config", "input_bytes", "payload_bytes", "ideal_bits", "bpb"}
    assert report[1]["bpb"] <= report[0]["bpb"] - 0.05

    flat = scaling_ladder(lcg_bytes(2, 16384), [UNIFORM, FREQ0, FREQ2])
    assert all(abs(r["bpb"] - 8.0) < 0.1 for r in flat)
    const = scaling_ladder(b"\x07" * 16384, [FREQ0, FREQ2])
    assert all(r["bpb"] < 0.2 for r in const)
