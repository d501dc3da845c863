"""Coder tests: quantization, range coder round-trips, ideal intervals.

Expected values are produced by independent oracles (the integer
largest remainder of oracle.py, and at the top of this file its
exact-rational form and the brute-force shortest dyadic) and then frozen as
literals where a test needs a fixed constant.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmozip import _kernel_numpy, kernel
from kolmozip.coder import PROB_BITS, PROB_SCALE, RangeDecoder, RangeEncoder, quantize_weights
from kolmozip.errors import TruncatedStreamError
from kolmozip.rng import Lcg64
from oracle import (
    UNIT_INTERVAL,
    Distribution,
    IdealInterval,
    ideal_refine,
    oracle_largest_remainder,
    quantize_distribution,
    shortest_binary_in_interval,
)


# --- oracles -------------------------------------------------------------


def oracle_largest_remainder_fractions(weights) -> list[int]:
    """The same apportionment on exact rationals, as first written."""
    m = len(weights)
    total = sum(weights)
    free = PROB_SCALE - m
    quotas = [Fraction(w) * free / total for w in weights]
    floors = [int(q) for q in quotas]  # int() truncates toward zero; quotas >= 0
    leftover = free - sum(floors)
    ranked = sorted(range(m), key=lambda i: (-(quotas[i] - floors[i]), i))
    for i in ranked[:leftover]:
        floors[i] += 1
    return [f + 1 for f in floors]


def twin_quantize(weights) -> np.ndarray:
    """The table for weights: the numpy twin's for a row of 256, whichever
    step module loads, and the oracle's for any other alphabet, which
    quantize does not take."""
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    if weights.size != 256:
        return quantize_distribution(Distribution(weights))
    cum = np.empty(257, dtype=np.int64)
    _kernel_numpy.quantize(weights, cum)
    return cum


def symbol_cost_bits(cum: np.ndarray, sym: int) -> float:
    """Ideal cost of one symbol under its quantized width: -log2(width/2^16)."""
    return PROB_BITS - math.log2(int(cum[sym + 1] - cum[sym]))


def ideal_locate(
    interval: IdealInterval, dist: Distribution, value: Fraction
) -> tuple[int, IdealInterval]:
    """Inverse of ideal_refine: find the cell containing `value`."""
    if not interval.lo <= value < interval.hi:
        raise ValueError("value outside interval")
    for sym in range(len(dist.weights)):
        cell = ideal_refine(interval, dist, sym)
        if cell.lo <= value < cell.hi:
            return sym, cell
    raise AssertionError("cells cover the interval; unreachable")


def oracle_shortest_binary(lo: Fraction, hi: Fraction, max_len: int = 24) -> str:
    """Enumerate bit strings in (length, value) order; first one inside wins.
    lo <= k/2^L < hi is compared on integers, cross-multiplied."""
    lo_num, lo_den, hi_num, hi_den = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    for length in range(max_len + 1):
        lo_bound, hi_bound = lo_num << length, hi_num << length
        for k in range(1 << length):
            if k * lo_den >= lo_bound and k * hi_den < hi_bound:
                return format(k, f"0{length}b") if length else ""
    raise AssertionError("no code found within max_len")


def oracle_shortest_binary_fractions(lo: Fraction, hi: Fraction, max_len: int = 24) -> str:
    """The same enumeration on exact rationals, as first written."""
    for length in range(max_len + 1):
        for k in range(1 << length):
            if lo <= Fraction(k, 1 << length) < hi:
                return format(k, f"0{length}b") if length else ""
    raise AssertionError("no code found within max_len")


def roundtrip(tables, symbols):
    enc = RangeEncoder()
    for t, s in zip(tables, symbols):
        enc.encode_symbol(t, s)
    payload = enc.finish()
    dec = RangeDecoder(payload)
    out = [dec.decode_symbol(t) for t in tables]
    return payload, out


# --- quantization --------------------------------------------------------


def test_quantize_uniform_256():
    cum = quantize_weights(np.ones(256, dtype=np.int64))
    assert (np.diff(cum) == 256).all()
    assert cum[0] == 0 and cum[-1] == PROB_SCALE


def test_quantize_zero_weights_get_floor():
    row = np.zeros(256, dtype=np.int64)
    row[0] = 1
    assert list(np.diff(quantize_weights(row))) == [PROB_SCALE - 255] + [1] * 255
    assert list(np.diff(quantize_distribution(Distribution([1, 0, 0])))) == [65534, 1, 1]


def test_quantize_largest_remainder_example():
    # weights 3,3,2,1,2: quotas over 65531 leave remainders (1,3,8,4,8)/11;
    # the two +1s go to indices 2 and 4 (largest remainder, lower index first)
    widths = list(np.diff(quantize_distribution(Distribution([3, 3, 2, 1, 2]))))
    assert widths == oracle_largest_remainder([3, 3, 2, 1, 2])
    assert widths == [17873, 17873, 11916, 5958, 11916]  # frozen from the oracle
    assert sum(widths) == PROB_SCALE


# 256 weights each below 2^37 / 256: every total is one quantize accepts
@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 37) // 256 - 1), min_size=256, max_size=256).filter(
        lambda w: sum(w) > 0
    )
)
@settings(max_examples=200, deadline=None)
def test_quantize_matches_oracle(weights):
    # the public path runs the C extension where one loads; its numpy twin
    # is the reference it must equal, and what runs without a compiler
    want = oracle_largest_remainder(weights)
    got = list(np.diff(quantize_weights(np.array(weights, dtype=np.int64))))
    assert got == want
    assert list(np.diff(twin_quantize(weights))) == want
    assert sum(got) == PROB_SCALE
    assert min(got) >= 1


@given(
    st.lists(st.integers(min_value=0, max_value=1 << 40), min_size=2, max_size=300).filter(
        lambda w: sum(w) > 0
    )
)
@settings(max_examples=100, deadline=None)
def test_integer_oracle_matches_the_rational_one(weights):
    assert oracle_largest_remainder(weights) == oracle_largest_remainder_fractions(weights)


def test_quantize_scale_invariant():
    row = np.resize(np.array([3, 3, 2, 1, 2], dtype=np.int64), 256)
    assert (quantize_weights(row) == quantize_weights(row * 2)).all()


def test_alphabet_bounds_rejected():
    with pytest.raises(ValueError):
        Distribution([1])
    with pytest.raises(ValueError):
        Distribution(np.ones(PROB_SCALE + 1, dtype=np.int64))
    # 2^16 symbols is the largest alphabet the range coder takes: every width is exactly 1
    cum = quantize_distribution(Distribution(np.ones(PROB_SCALE, dtype=np.int64)))
    assert (np.diff(cum) == 1).all()


def test_quantize_rejects_non_integer_weights():
    # a row is never truncated to integers: [0.5, 1.9, 2.7] would read as [0, 1, 2]
    non_integer = (
        [0.5, 0.5],
        np.array([0.5, 1.9, 2.7]),
        np.array([1.0, 2.0]),  # integral values of a float dtype
        np.array([True, False]),
        np.array([1, 2], dtype=object),
    )
    for weights in non_integer:
        with pytest.raises(TypeError):
            quantize_distribution(Distribution(weights))
    # the step module reads int64 rows only, and copies none
    for dtype in (np.float64, np.bool_, np.int32, ">i8"):
        with pytest.raises(ValueError, match="^weights must be int64$"):
            quantize_weights(np.ones(256, dtype=dtype))


# --- range coder ---------------------------------------------------------


def uniform_table(m: int) -> np.ndarray:
    return quantize_distribution(Distribution(np.ones(m, dtype=np.int64)))


def test_empty_payload_is_flush_only():
    payload = RangeEncoder().finish()
    assert len(payload) <= 8
    dec = RangeDecoder(payload)  # init alone must not exhaust the stream
    assert dec.cursor <= len(payload)


def test_single_skewed_symbol_payload_flush_only():
    table = quantize_distribution(Distribution([1, 0, 0]))
    payload, out = roundtrip([table], [0])
    assert out == [0]
    assert len(payload) <= 8


def test_thousand_uniform_bits_payload_bounds():
    table = uniform_table(2)
    rng = Lcg64(7)
    syms = [rng.below(2) for _ in range(1000)]
    payload, out = roundtrip([table] * 1000, syms)
    assert out == syms
    assert 125 <= len(payload) <= 133  # 1000 ideal bits plus flush overhead


def test_roundtrip_mixed_alphabets_and_skews():
    rng = Lcg64(123)
    tables, syms = [], []
    for _ in range(4000):
        m = 2 + rng.below(40)
        weights = [1 + rng.below(1000) for _ in range(m)]
        if rng.below(4) == 0:
            weights[rng.below(m)] = 10**6  # strongly peaked rows
        t = quantize_distribution(Distribution(weights))
        tables.append(t)
        syms.append(rng.below(m))
    payload, out = roundtrip(tables, syms)
    assert out == syms


def test_roundtrip_256_alphabet_long():
    rng = Lcg64(5)
    table = uniform_table(256)
    syms = [rng.below(256) for _ in range(20000)]
    payload, out = roundtrip([table] * len(syms), syms)
    assert out == syms
    ideal = 8.0 * len(syms)
    assert 0 <= len(payload) * 8 - ideal <= 64


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(data):
    n = data.draw(st.integers(min_value=0, max_value=80))
    tables, syms = [], []
    for i in range(n):
        m = data.draw(st.integers(min_value=2, max_value=12), label=f"m{i}")
        weights = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=50), min_size=m, max_size=m
            ).filter(lambda w: sum(w) > 0),
            label=f"w{i}",
        )
        tables.append(quantize_distribution(Distribution(weights)))
        syms.append(data.draw(st.integers(min_value=0, max_value=m - 1), label=f"s{i}"))
    _, out = roundtrip(tables, syms)
    assert out == syms


def test_payload_bits_within_64_of_ideal():
    # benign adaptive-looking stream: mostly mid-probability symbols
    rng = Lcg64(99)
    tables, syms, ideal = [], [], 0.0
    for _ in range(30000):
        weights = [1 + rng.below(64) for _ in range(64)]
        t = quantize_distribution(Distribution(weights))
        s = rng.below(64)
        tables.append(t)
        syms.append(s)
        ideal += symbol_cost_bits(t, s)
    payload, out = roundtrip(tables, syms)
    assert out == syms
    gap = len(payload) * 8 - ideal
    assert 0 <= gap <= 64
    assert len(payload) * 8 <= math.ceil(ideal) + 64


def test_truncated_payload_raises():
    table = uniform_table(256)
    rng = Lcg64(3)
    syms = [rng.below(256) for _ in range(64)]
    enc = RangeEncoder()
    for s in syms:
        enc.encode_symbol(table, s)
    payload = enc.finish()
    dec = RangeDecoder(payload[:-3])
    with pytest.raises(TruncatedStreamError):
        for _ in syms:
            dec.decode_symbol(table)


def test_decode_with_wrong_table_is_garbage_not_crash():
    skew = quantize_distribution(Distribution([100, 1, 1, 1]))
    uni = uniform_table(4)
    rng = Lcg64(11)
    syms = [rng.below(4) for _ in range(500)]
    enc = RangeEncoder()
    for s in syms:
        enc.encode_symbol(skew, s)
    payload = enc.finish()
    dec = RangeDecoder(payload)
    out = [dec.decode_symbol(uni) for _ in syms]  # mechanically fine
    assert out != syms  # but meaningless


def test_tampered_payload_decodes_to_something():
    table = uniform_table(16)
    rng = Lcg64(17)
    syms = [rng.below(16) for _ in range(200)]
    enc = RangeEncoder()
    for s in syms:
        enc.encode_symbol(table, s)
    payload = bytearray(enc.finish())
    payload[len(payload) // 2] ^= 0xFF
    dec = RangeDecoder(bytes(payload))
    out = [dec.decode_symbol(table) for _ in syms]
    assert out != syms


def test_encoder_registers_stay_in_lane():
    table = uniform_table(3)
    for step in dict.fromkeys((kernel.load(), _kernel_numpy)):  # the twin once where nothing built
        rng = Lcg64(29)
        enc = step.encoder()
        for _ in range(5000):
            step.encode(enc, table, rng.below(3))
            assert enc.range >= 1 << 24  # invariant after renormalization
            assert enc.low < 1 << 33
        step.finish(enc)


# --- ideal intervals -----------------------------------------------------

FIVE_SYMBOL = Distribution([3, 3, 2, 1, 2])  # a b c d e
TENTHS = Distribution(
    [Fraction(1, 10), Fraction(1, 10), Fraction(3, 10), Fraction(3, 10), Fraction(2, 10)]
)
UNIFORM5 = Distribution([1, 1, 1, 1, 1])


def test_refine_first_step():
    got = ideal_refine(UNIT_INTERVAL, FIVE_SYMBOL, 1)  # symbol 'b'
    assert got == IdealInterval(Fraction(3, 11), Fraction(6, 11))


def test_refine_uniform_binary():
    d = Distribution([1, 1])
    assert ideal_refine(UNIT_INTERVAL, d, 0) == IdealInterval(Fraction(0), Fraction(1, 2))


def three_step_session() -> IdealInterval:
    iv = ideal_refine(UNIT_INTERVAL, FIVE_SYMBOL, 1)  # 'b'
    iv = ideal_refine(iv, TENTHS, 0)  # 'a'
    return ideal_refine(iv, UNIFORM5, 1)  # 'b'


def test_three_step_session_interval_and_code():
    iv = three_step_session()
    assert iv.lo == Fraction(153, 550) and iv.hi == Fraction(156, 550)
    code = shortest_binary_in_interval(iv)
    assert code == oracle_shortest_binary(iv.lo, iv.hi)
    assert code == "01001"
    assert Fraction(int(code, 2), 1 << len(code)) == Fraction(28125, 100000)


def test_session_decodes_back():
    value = Fraction(9, 32)  # 0.01001
    sym1, iv = ideal_locate(UNIT_INTERVAL, FIVE_SYMBOL, value)
    sym2, iv = ideal_locate(iv, TENTHS, value)
    sym3, iv = ideal_locate(iv, UNIFORM5, value)
    assert (sym1, sym2, sym3) == (1, 0, 1)  # b a b


def test_shortest_binary_trivials():
    assert shortest_binary_in_interval(UNIT_INTERVAL) == ""
    got = shortest_binary_in_interval(IdealInterval(Fraction(1, 3), Fraction(1, 2)))
    assert got == "011"  # 0.375, three bits


@given(
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
)
@settings(max_examples=200, deadline=None)
def test_shortest_binary_matches_oracle(a, b):
    lo, hi = min(a, b), max(a, b)
    if lo == hi or hi - lo < Fraction(1, 1 << 20):
        return
    iv = IdealInterval(lo, hi)
    got = shortest_binary_in_interval(iv)
    want = oracle_shortest_binary(lo, hi)
    assert got == want
    if got:
        assert lo <= Fraction(int(got, 2), 1 << len(got)) < hi


@pytest.mark.parametrize(
    "lo, hi",
    [
        (Fraction(0), Fraction(1)),
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(153, 550), Fraction(156, 550)),
        (Fraction(0), Fraction(1, 1 << 20)),
        (Fraction(1023, 1024), Fraction(1)),
        (Fraction(1, 7), Fraction(1, 7) + Fraction(1, 1 << 12)),
        (Fraction(5, 8), Fraction(5, 8) + Fraction(1, 10**6)),
        (Fraction(2, 3) - Fraction(1, 10**4), Fraction(2, 3)),
    ],
)
def test_integer_shortest_binary_oracle_matches_the_rational_one(lo, hi):
    assert oracle_shortest_binary(lo, hi) == oracle_shortest_binary_fractions(lo, hi)


def test_refine_nests_and_multiplies_width():
    iv = ideal_refine(UNIT_INTERVAL, FIVE_SYMBOL, 2)
    assert UNIT_INTERVAL.lo <= iv.lo < iv.hi <= UNIT_INTERVAL.hi
    assert iv.width == Fraction(2, 11)
    iv2 = ideal_refine(iv, TENTHS, 3)
    assert iv.lo <= iv2.lo < iv2.hi <= iv.hi
    assert iv2.width == Fraction(2, 11) * Fraction(3, 10)
