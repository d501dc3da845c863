"""Predictor tests: configs, counting model arithmetic, fixed-point net.

Hand-derivable expectations are computed in-test (add-one closed forms,
binary-search integer roots, float finite differences) before being
compared with the implementation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from kolmozip.predictors import (
    _EXP_TABLE,
    DEFAULT_LEARNING_RATE,
    ONE,
    FreqPredictor,
    NeuralPredictor,
    PredictorConfig,
    UniformPredictor,
    make_predictor,
)
from kolmozip.rng import Lcg64


# --- config --------------------------------------------------------------


def test_config_roundtrip_bytes():
    configs = [
        PredictorConfig("uniform", seed=7),
        PredictorConfig("freq", order=3, seed=1 << 63),
        PredictorConfig("neural", context=4, width=128, seed=42, learning_rate=1000),
    ]
    for cfg in configs:
        blob = cfg.to_bytes()
        assert PredictorConfig.from_bytes(blob) == cfg
        for bad in (blob[:-1], blob + b"\0"):  # a byte short or over
            with pytest.raises(ValueError, match="^malformed predictor config bytes$"):
                PredictorConfig.from_bytes(bad)
    # constant size per kind
    assert len(PredictorConfig("uniform").to_bytes()) == 13
    assert len(PredictorConfig("freq", order=1).to_bytes()) == 14
    assert len(PredictorConfig("neural").to_bytes()) == 16


def test_config_validation():
    with pytest.raises(ValueError):
        PredictorConfig("freq", order=4)
    with pytest.raises(ValueError):
        PredictorConfig("neural", context=0)
    with pytest.raises(ValueError):
        PredictorConfig("neural", width=257)
    with pytest.raises(ValueError):
        PredictorConfig("magic")
    with pytest.raises(ValueError):
        PredictorConfig("uniform", order=2)  # unused parameter must stay default
    with pytest.raises(ValueError):
        PredictorConfig.from_bytes(b"\x07" + b"\x00" * 12)


def test_spec_string_roundtrip():
    for text in ["uniform", "freq:2", "neural:3,64"]:
        assert PredictorConfig.from_spec(text).spec_string() == text
    with pytest.raises(ValueError):
        PredictorConfig.from_spec("freq")
    with pytest.raises(ValueError):
        PredictorConfig.from_spec("neural:1")
    with pytest.raises(ValueError):
        PredictorConfig.from_spec("lzma")


# --- uniform -------------------------------------------------------------


def test_uniform_predicts_ones_and_tracks_position():
    p = make_predictor(PredictorConfig("uniform"))
    assert isinstance(p, UniformPredictor)
    assert (p.predict_weights() == 1).all()
    d0 = p.digest()
    p.update(65)
    assert p.digest() != d0  # position is part of the state


# --- freq ----------------------------------------------------------------


def test_freq_order0_after_255_a():
    p = FreqPredictor(PredictorConfig("freq", order=0))
    for _ in range(255):
        p.update(ord("a"))
    w = p.predict_weights()
    assert w[ord("a")] == 256  # add-one start plus 255 observations
    assert w.sum() == 255 + 256
    assert Fraction(256, 511) == Fraction(int(w[ord("a")]), int(w.sum()))


def test_freq_order1_abab_byte_alphabet():
    p = FreqPredictor(PredictorConfig("freq", order=1))
    for tok in b"abab":
        p.update(tok)
    w = p.predict_weights()
    assert w[ord("a")] == 2 and w.sum() == 257


def freq_rows(p: FreqPredictor) -> dict[bytes, np.ndarray]:
    """The count rows of p's digest payload, by context."""
    payload = p._kernel.freq_state(p._freq)
    rows, pos = {}, 0
    while pos < len(payload):
        n = payload[pos]
        key, pos = payload[pos + 1 : pos + 1 + n], pos + 1 + n
        rows[key] = np.frombuffer(payload, dtype="<i4", count=256, offset=pos)
        pos += 4 * 256
    assert pos == len(payload) and list(rows) == sorted(rows)
    return rows


def test_freq_short_context_near_start():
    p = FreqPredictor(PredictorConfig("freq", order=3))
    seen = []
    for tok in (10, 20, 30, 40, 50):
        p.update(tok)
        seen.append(tok)
        assert (p.predict_weights() == 1).all()  # every context here is new
        rows = freq_rows(p)
        # the token was learned under the bytes before it, at most three
        key = bytes(seen[-4:-1])
        assert len(rows) == len(seen) and rows[key][tok] == 2 and rows[key].sum() == 257
    assert list(freq_rows(p)) == [b"", b"\n", b"\n\x14", b"\n\x14\x1e", b"\x14\x1e("]
    for tok in (10, 20, 30):  # back in the context 10 20 30, which saw 40 once
        p.update(tok)
    assert list(p.predict_weights()[[40, 50]]) == [2, 1]


def test_freq_halving_caps_counts():
    p = FreqPredictor(PredictorConfig("freq", order=0))
    for _ in range((1 << 16) - 2):
        p.update(7)
    row = p.predict_weights()
    assert row[7] == (1 << 16) - 1 and row[0] == 1  # the largest count a row holds
    p.update(7)
    row = p.predict_weights()
    assert row[7] == (1 << 15) and row[0] == 1  # halved once, floor preserved
    assert row.max() < 1 << 16 and row.sum() == (1 << 15) + 255
    assert np.array_equal(freq_rows(p)[b""], row)


def test_freq_determinism_and_digest_sensitivity():
    cfg = PredictorConfig("freq", order=2, seed=9)
    a, b = make_predictor(cfg), make_predictor(cfg)
    stream = bytes(Lcg64(4).below(256) for _ in range(500))
    for tok in stream:
        a.update(tok)
        b.update(tok)
    assert a.digest() == b.digest()
    b.update(0)
    assert a.digest() != b.digest()


@pytest.mark.parametrize("spec", ["uniform", "freq:0", "freq:1", "neural:1,8"])
def test_tokens_outside_the_alphabet_are_rejected_before_any_state_changes(spec):
    p = make_predictor(PredictorConfig.from_spec(spec))
    for tok in b"ab":  # freq:1 now sits in a context with no count row yet
        p.update(tok)
    before = p.digest()
    for bad in (-1, 256, 1 << 70):
        with pytest.raises(ValueError):
            p.update(bad)
    assert p.digest() == before and p.token_position == 2


@pytest.mark.parametrize("spec", ["uniform", "freq:2", "neural:1,8"])
def test_predicted_weights_are_read_only(spec):
    p = make_predictor(PredictorConfig.from_spec(spec))
    for tok in b"ab":
        p.update(tok)
    weights = p.predict_weights()
    before = weights.copy()
    assert not weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        weights[:] = 0
    assert np.array_equal(p.predict_weights(), before)


# --- exp table -----------------------------------------------------------


def oracle_root_pow2(g: int) -> int:
    """floor(2^16 * 2^(-g/256)) by binary search on v^256 <= 2^(4096-g)."""
    target = 1 << (4096 - g)
    lo, hi = 1, 1 << 17
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**256 <= target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_exp_table_values():
    assert _EXP_TABLE[0] == ONE
    assert (np.diff(_EXP_TABLE) < 0).all()
    assert _EXP_TABLE.tolist() == [oracle_root_pow2(g) for g in range(256)]
    assert _EXP_TABLE[255] > ONE // 2  # one full halving happens at g = 256


# --- neural --------------------------------------------------------------


def trained_net(n: int = 300, seed: int = 5) -> NeuralPredictor:
    p = NeuralPredictor(PredictorConfig("neural", context=2, width=16, seed=seed))
    rng = Lcg64(77)
    for _ in range(n):
        p.update(rng.below(256))
    return p


def test_neural_initial_prediction_is_sane():
    p = NeuralPredictor(PredictorConfig("neural", context=2, width=16, seed=0))
    w = p.predict_weights()
    assert (w >= 0).all() and w.max() == ONE  # argmax pins the table top
    assert w.min() > 0  # near-uniform start: nothing starved


def test_neural_determinism_across_instances():
    cfg = PredictorConfig("neural", context=3, width=32, seed=123)
    a, b = make_predictor(cfg), make_predictor(cfg)
    assert a.digest() == b.digest()
    rng = Lcg64(8)
    stream = [rng.below(256) for _ in range(400)]
    for tok in stream:
        a.update(tok)
    for tok in stream:
        b.update(tok)
    assert a.digest() == b.digest()


def test_neural_predict_then_update_matches_plain_update():
    cfg = PredictorConfig("neural", context=2, width=16, seed=3)
    a, b = make_predictor(cfg), make_predictor(cfg)
    rng = Lcg64(12)
    for _ in range(200):
        tok = rng.below(256)
        a.predict_weights()  # encoder-style: predict, code, update
        a.update(tok)
        b.update(tok)  # decoder already called predict internally; same math
    assert a.digest() == b.digest()


def draw_scalar(stream: Lcg64, shape: tuple, scale: int) -> np.ndarray:
    """Oracle for NeuralPredictor._draw: one LCG call per parameter."""
    n = math.prod(shape)
    flat = np.empty(n, dtype=np.int64)
    for i in range(n):
        u = (stream.next_u64() >> 48) - 32768  # uniform in [-32768, 32767]
        flat[i] = (u * scale) // 32768 if u >= 0 else -((-u * scale) // 32768)
    return flat.reshape(shape)


@pytest.mark.parametrize(
    "shape, scale",
    [
        ((1, 256, 8), 32768),  # neural:1,8 embeddings
        ((8, 256, 256), 11586),  # neural:8,256 embeddings
        ((256, 256), 2048),  # neural:*,256 output layer
    ],
)
def test_block_draw_matches_the_scalar_loop(shape, scale):
    for seed in (0, 7, (1 << 64) - 1):
        fast, slow = Lcg64(seed), Lcg64(seed)
        assert np.array_equal(NeuralPredictor._draw(fast, shape, scale), draw_scalar(slow, shape, scale))
        assert fast.state == slow.state  # the next draw (w2 after emb) is unchanged
        assert fast.next_u64() == slow.next_u64()


def test_neural_seed_changes_init():
    a = NeuralPredictor(PredictorConfig("neural", seed=1))
    b = NeuralPredictor(PredictorConfig("neural", seed=2))
    assert a.digest() != b.digest()


def float_model_loss(p: NeuralPredictor, token: int, w2_override: np.ndarray) -> float:
    """Dequantized float forward with a true base-2 softmax (test oracle)."""
    pre = p.b1.astype(float) / ONE
    k_avail = len(p._net.context)
    for i, byte in enumerate(p._net.context):
        pre = pre + p.emb[p.k - k_avail + i, byte].astype(float) / ONE
    hidden = np.clip(pre, -1.0, 1.0)
    logits = hidden @ w2_override + p.b2.astype(float) / ONE
    z = np.exp2(logits - logits.max())
    prob = z / z.sum()
    return -np.log2(prob[token])


def final_layer_gradient(p: NeuralPredictor, token: int) -> np.ndarray:
    """Exact integer d(loss)/d(w2) in Q32.32, before learning-rate scaling:
    the hidden layer times the error signal p_hat - onehot (Q16.16)."""
    weights = p.predict_weights()
    p_hat = (weights * ONE) // int(weights.sum())
    p_hat[token] -= ONE
    hidden = p._weights.base[p.w : 2 * p.w]  # the forward pass's buffer: pre | hidden | weights
    return np.outer(hidden, p_hat)


def test_neural_gradient_matches_finite_differences():
    p = trained_net()
    token = 123
    analytic = final_layer_gradient(p, token).astype(float) / (1 << 32)
    w2f = p.w2.astype(float) / ONE
    rng = np.random.default_rng(0)
    eps = 1e-4
    checked = 0
    for _ in range(100):
        j = int(rng.integers(p.w))
        s = int(rng.integers(256))
        up, down = w2f.copy(), w2f.copy()
        up[j, s] += eps
        down[j, s] -= eps
        fd = (float_model_loss(p, token, up) - float_model_loss(p, token, down)) / (2 * eps)
        got = analytic[j, s]
        assert abs(got - fd) <= 1e-2 * max(abs(got), abs(fd)) + 1e-6
        checked += 1
    assert checked == 100


def test_neural_learns_sticky_two_symbol_stream():
    # P(next == prev) = 7/8 over two bytes: the net should beat its own
    # early performance once the transition structure is absorbed
    cfg = PredictorConfig("neural", context=1, width=16, seed=0)
    p = make_predictor(cfg)
    rng = Lcg64(2024)
    prev = 65
    bits = []
    for _ in range(16384):
        tok = prev if rng.below(8) < 7 else (65 if prev == 66 else 66)
        w = np.asarray(p.predict_weights(), dtype=float)
        bits.append(-np.log2(w[tok] / w.sum()))
        p.update(tok)
        prev = tok
    first, second = np.mean(bits[:8192]), np.mean(bits[8192:])
    assert second < first
    assert second < 2.0  # way below the 8-bit uniform floor


def test_neural_weights_stay_clipped():
    p = trained_net(n=2000)
    for arr in (p.emb, p.b1, p.w2, p.b2):
        assert int(np.abs(arr).max()) <= 8 * ONE


def test_default_learning_rate_is_positive_q16():
    assert 1 <= DEFAULT_LEARNING_RATE <= 1 << 20
