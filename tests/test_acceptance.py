"""The ten guarantees this package ships under, one test line apiece.

Every number asserted here was either derived analytically, recorded once
from an independent oracle, or is an exact structural bound; tolerances
are part of the guarantee, not fudge factors.  Corpora come from
conftest.py and are bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest

from conftest import MARKOV2
from kolmozip.kclab import all_bit_strings, family_max_gap, phi, phi_curve
from kolmozip.pipeline import (
    compress,
    compress_conditional,
    decompress,
    scaling_ladder,
    serialize,
)
from kolmozip.predictors import PredictorConfig, make_predictor
from kolmozip.sources import MarkovSpec, entropy_rate, generate
from oracle import Distribution, IdealInterval, ideal_refine, shortest_binary_in_interval

KINDS = ("uniform", "freq:2", "neural:1,8")


@pytest.fixture(scope="module")
def roundtrip(corpus_random, corpus_constant, corpus_markov, corpus_text, corpus_worksheet):
    """Compress and decompress every kind x corpus pair exactly once."""
    corpora = {
        "random": corpus_random,
        "constant": corpus_constant,
        "markov": corpus_markov,
        "text": corpus_text,
        "worksheet": corpus_worksheet,
    }
    runs = {}
    start = perf_counter()
    for kind in KINDS:
        config = PredictorConfig.from_spec(kind)
        for name, data in corpora.items():
            artifact, stats = compress(data, config)
            runs[kind, name] = (stats, decompress(artifact) == data)
    return runs, perf_counter() - start


def test_01_round_trip_every_kind_and_corpus(roundtrip):
    runs, elapsed = roundtrip
    assert len(runs) == 15
    assert all(ok for _, ok in runs.values())
    assert elapsed < 120.0


def test_02_payload_within_64_bits_of_ideal(roundtrip):
    runs, _ = roundtrip
    for (kind, name), (stats, _) in runs.items():
        slack = stats.payload_bits - stats.ideal_bits
        assert 0.0 <= slack <= 64.0, (kind, name, slack)


def test_03_compression_cost_equals_training_loss(roundtrip, corpus_markov):
    # the coder's per-byte cost must be the predictor's own online
    # cross-entropy: replay training without any coder and compare
    runs, _ = roundtrip
    stats, _ = runs["freq:2", "markov"]
    pred = make_predictor(PredictorConfig.from_spec("freq:2"))
    loss_bits = 0.0
    for tok in corpus_markov:
        w = pred.predict_weights()
        loss_bits -= float(np.log2(w[tok] / w.sum()))
        pred.update(tok)
    replayed = loss_bits / len(corpus_markov)
    assert abs(stats.mean_bpb - replayed) <= 0.01


def test_04_matched_model_approaches_source_entropy(roundtrip):
    runs, _ = roundtrip
    h = entropy_rate(MARKOV2)  # 1.7411 bits/byte, analytic
    freq_bpb = runs["freq:2", "markov"][0].payload_bpb
    assert freq_bpb <= 1.05 * h + 0.1  # measured 1.8587 vs bound 1.9282
    uniform_bpb = runs["uniform", "markov"][0].payload_bpb
    assert abs(uniform_bpb - 8.0) <= 0.01


def test_05_capacity_ladder_improves_bits_per_byte():
    src = MarkovSpec(order=3, alphabet=8, concentration=12, seed=77)
    data = generate(src, 1 << 18)
    freq = scaling_ladder(data, [PredictorConfig.from_spec(m) for m in ("freq:1", "freq:3")])
    assert freq[1]["bpb"] <= freq[0]["bpb"] - 0.05  # measured 2.82 vs 3.03
    neural = scaling_ladder(
        data[: 1 << 16],
        [PredictorConfig.from_spec(m) for m in ("neural:3,16", "neural:3,64")],
    )
    assert neural[1]["bpb"] <= neural[0]["bpb"] + 0.02  # measured 2.56 vs 2.80


def test_06_intermediate_steps_cheapen_the_answer(worksheet_records):
    # digit-by-digit working between question and answer must lower the
    # answer's code cost, aggregated over the thousand-record corpus
    config = PredictorConfig.from_spec("freq:3")
    with_working = without = 0.0
    for rec in worksheet_records:
        _, stats = compress_conditional(rec.r, rec.k + rec.m, config)
        with_working += stats.ideal_bits
        _, stats = compress_conditional(rec.r, rec.k, config)
        without += stats.ideal_bits
    assert len(worksheet_records) == 1000
    assert with_working < without  # measured ~30.0 kbit vs ~35.9 kbit


def test_07_deterministic_replay_and_artifacts(corpus_markov):
    data = corpus_markov[: 1 << 14]
    config = PredictorConfig.from_spec("neural:2,16")
    art1, stats1 = compress(data, config, audit=True)
    art2, stats2 = compress(data, config, audit=True)
    assert serialize(art1) == serialize(art2)
    assert stats1.digests == stats2.digests
    decoded, digests = decompress(art1, audit=True)
    assert decoded == data and digests == stats1.digests


def test_08_phi_budget_curves_and_doubling_witness():
    start = perf_counter()
    schedule = (1, 2, 4, 8, 16, 64)
    for x in all_bit_strings(6):
        for y in ("", x):
            curve = phi_curve(x, y, schedule)
            values = [est.value_bits for est in curve]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(est.value_bits <= est.ceiling_bits for est in curve)
        est = phi(max(1, len(x)), x, x)
        assert est.value_bits <= 3
    ones = phi_curve("1" * 8, "", (4, 8))
    assert [est.value_bits for est in ones] == [24, 12]
    assert perf_counter() - start < 300.0


def test_09_joint_bound_gap_regression():
    # worst-case gap between coding a pair directly and splitting it into
    # y, x-given-y, and a self-delimiting header; recorded once at t=64
    recorded = {2: 7, 3: 10, 4: 16}
    recomputed = {L: family_max_gap(L, 64) for L in recorded}
    assert recomputed == recorded
    assert recomputed[4] <= recorded[4]  # extending the family stayed put


def test_10_exact_interval_session_golden():
    five = Distribution([3, 3, 2, 1, 2])  # symbols a b c d e
    tenths = Distribution([Fraction(1, 10)] * 2 + [Fraction(3, 10)] * 2 + [Fraction(2, 10)])
    uniform = Distribution([1] * 5)
    iv = IdealInterval(Fraction(0), Fraction(1))
    for dist, sym in ((five, 1), (tenths, 0), (uniform, 1)):  # b a b
        iv = ideal_refine(iv, dist, sym)
    code = shortest_binary_in_interval(iv)
    assert code == "01001"
    assert Fraction(int(code, 2), 1 << len(code)) == Fraction(28125, 100000)
