"""Source generator tests: reproducibility, statistics, worksheet corpus."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from kolmozip.coder import quantize_weights
from kolmozip.errors import FormatError
from kolmozip.predictors import PredictorConfig, make_predictor
from kolmozip.sources import (
    MarkovSpec,
    _stationary_entropy,
    entropy_rate,
    generate,
    read_worksheet,
    transition_weights,
    worksheet_corpus,
    write_worksheet,
)

FIXED = MarkovSpec(order=2, alphabet=8, concentration=5, seed=2024)


def entropy_check_bits(spec: MarkovSpec, data: bytes) -> float:
    """Mean -log2 true transition probability: empirical entropy estimator."""
    rows: dict[tuple[int, ...], np.ndarray] = {}
    k = spec.order
    context: tuple[int, ...] = ()
    total = 0.0
    for sym in data:
        probs = rows.get(context)
        if probs is None:
            w = transition_weights(spec, context)
            probs = rows[context] = w / w.sum()
        total -= math.log2(probs[sym])
        if k:
            context = (context + (sym,))[-k:]
    return total / len(data)


def test_spec_validation():
    for bad in [
        dict(order=4, alphabet=8),
        dict(order=1, alphabet=0),
        dict(order=1, alphabet=257),
        dict(order=1, alphabet=8, concentration=0),
        dict(order=1, alphabet=8, concentration=17),
        dict(order=1, alphabet=8, seed=1 << 64),
    ]:
        with pytest.raises(ValueError):
            MarkovSpec(**bad)
    with pytest.raises(ValueError):
        generate(FIXED, 0)


def test_generate_golden_prefix():
    assert generate(FIXED, 16).hex() == "05070506000104050301030505020305"


def test_generate_reproducible_and_prefix_stable():
    long = generate(FIXED, 4096)
    assert generate(FIXED, 4096) == long
    assert generate(FIXED, 1024) == long[:1024]


def test_single_symbol_alphabet_is_constant():
    assert generate(MarkovSpec(order=0, alphabet=1), 500) == b"\x00" * 500
    assert entropy_rate(MarkovSpec(order=0, alphabet=1)) == 0.0


def test_uniform_spec_byte_frequencies():
    # frozen-instance rendition of the binomial bound: this seed stays
    # within 3 sigma per bin at 1 MiB
    n = 1 << 20
    data = generate(MarkovSpec(order=0, alphabet=256, concentration=1, seed=3), n)
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    sigma = (n * (1 / 256) * (255 / 256)) ** 0.5
    assert np.abs(counts - n / 256).max() < 3 * sigma


def test_row_weights_are_powers_of_two_and_stable():
    row = transition_weights(FIXED, (3, 1))
    assert np.array_equal(row, transition_weights(FIXED, (3, 1)))
    assert all(int(w) & (int(w) - 1) == 0 for w in row)  # powers of two
    assert row.min() >= 1 and row.max() <= 1 << 4
    flat = transition_weights(MarkovSpec(order=0, alphabet=16), ())
    assert (flat == 1).all()  # concentration 1 means uniform


def test_entropy_rate_uniform_is_eight_bits():
    assert entropy_rate(MarkovSpec(order=0, alphabet=256, concentration=1)) == 8.0


def test_entropy_rate_degenerate_chain_is_zero():
    # p(stay)=1 two-state chain: not expressible as a MarkovSpec (those are
    # always ergodic) but the stationary solver must handle it
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    nxt = np.array([[0, 1], [0, 1]])
    assert _stationary_entropy(rows, nxt) == 0.0


def test_entropy_rate_matches_empirical_estimate():
    h = entropy_rate(FIXED)
    data = generate(FIXED, 1 << 20)
    assert abs(entropy_check_bits(FIXED, data) - h) < 0.01


def test_entropy_rate_guards_state_blowup():
    with pytest.raises(ValueError):
        entropy_rate(MarkovSpec(order=3, alphabet=256))


def test_matched_order_freq_predictor_approaches_entropy():
    spec = MarkovSpec(order=1, alphabet=8, concentration=5, seed=11)
    h = entropy_rate(spec)
    data = generate(spec, 1 << 18)
    pred = make_predictor(PredictorConfig("freq", order=1))
    widths = np.empty(len(data), dtype=np.int64)
    for i, tok in enumerate(data):
        cum = quantize_weights(pred.predict_weights())
        widths[i] = cum[tok + 1] - cum[tok]
        pred.update(tok)
    bpb = float((16 - np.log2(widths)).mean())
    assert bpb <= 1.05 * h
    assert bpb >= 0.95 * h  # no model beats the source by 5% either


# --- worksheet -------------------------------------------------------------


def test_worksheet_first_record_golden():
    rec = worksheet_corpus(7, 1)[0]
    assert rec.k == b"5314+6931="
    assert rec.r == b"12245"
    assert rec.m == (
        b"4+1+0=5 keep 5 carry 0\n"
        b"1+3+0=4 keep 4 carry 0\n"
        b"3+9+0=12 keep 2 carry 1\n"
        b"5+6+1=12 keep 2 carry 1\n"
        b"lead 1\n"
        b"answer 12245 12245 "
    )


def test_worksheet_answers_are_true_sums():
    for rec in worksheet_corpus(99, 300):
        a, rest = rec.k.decode().split("+")
        b = rest.rstrip("=")
        assert int(rec.r) == int(a) + int(b)
        assert rec.r in rec.m.splitlines()[-1]  # final working line shows r


def test_worksheet_deterministic():
    assert worksheet_corpus(5, 50) == worksheet_corpus(5, 50)
    assert worksheet_corpus(5, 50) != worksheet_corpus(6, 50)
    assert worksheet_corpus(5, 0) == []
    with pytest.raises(ValueError):
        worksheet_corpus(5, -1)


def test_worksheet_file_roundtrip():
    records = worksheet_corpus(11, 40)
    buf = io.BytesIO()
    write_worksheet(records, buf)
    buf.seek(0)
    assert read_worksheet(buf) == records
    # truncation anywhere inside must raise, not crash
    blob = buf.getvalue()
    for cut in (1, 3, 10, len(blob) - 1):
        with pytest.raises(FormatError):
            read_worksheet(io.BytesIO(blob[:cut]))
