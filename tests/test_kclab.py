"""Workbench tests: machine semantics, phi vs. literal enumeration, pairing."""

from __future__ import annotations

from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kolmozip.errors import FormatError
from kolmozip.kclab import (
    BUDGET_EXCEEDED,
    CAP_EXCEEDED,
    CPY,
    DBL,
    HALT,
    HALTED,
    INV,
    NOP,
    OUT0,
    OUT1,
    REVA,
    KcEstimate,
    MachineResult,
    TinyProgram,
    all_bit_strings,
    bits_of,
    family_max_gap,
    joint_bound_report,
    pair_encode,
    phi,
    phi_curve,
    prefix_encode,
    run_program,
)
from oracle import literal_program, prefix_decode

bitstrings = st.text(alphabet="01", max_size=40)


def enumerate_programs(max_ops: int) -> Iterator[TinyProgram]:
    """All programs with at most max_ops instructions, by (length, lex)."""
    yield TinyProgram(())
    for length in range(1, max_ops + 1):
        # odometer in base 8, most-significant first = lexicographic
        ops = [0] * length
        while True:
            yield TinyProgram(tuple(ops))
            i = length - 1
            while i >= 0 and ops[i] == 7:
                ops[i] = 0
                i -= 1
            if i < 0:
                break
            ops[i] += 1


def oracle_phi(t: int, x: str, y: str) -> tuple[int, TinyProgram | None]:
    """Literal (length, lex) enumeration — the contract phi must match."""
    n = len(x)
    for prog in enumerate_programs(n):
        res = run_program(prog, y, t=t, cap=n)
        if res.status == HALTED and res.output == x:
            return prog.bit_length, prog
    return 3 * n, None


# --- machine ----------------------------------------------------------------


def test_ones_by_doubling_hand_simulation():
    prog = TinyProgram((OUT1, DBL, DBL, DBL))
    assert run_program(prog, "", t=8) == MachineResult(HALTED, "11111111", 8)
    starved = run_program(prog, "", t=4)
    assert starved.status == BUDGET_EXCEEDED
    # 1 + 1 + 2 steps fit; the final 4-step double aborts without effect
    assert starved.output == "1111" and starved.steps_used == 4


def test_cpy_appends_input():
    assert run_program(TinyProgram((CPY,)), "1010", t=4) == MachineResult(
        HALTED, "1010", 4
    )
    assert run_program(TinyProgram((CPY,)), "1010", t=3).status == BUDGET_EXCEEDED


def test_empty_appends_cost_one_step():
    # DBL/INV/REVA on empty output and CPY of empty input each burn one step
    res = run_program(TinyProgram((DBL, INV, REVA, CPY)), "", t=10)
    assert res == MachineResult(HALTED, "", 4)


def test_halt_stops_midway():
    res = run_program(TinyProgram((NOP, HALT, OUT1)), "", t=10)
    assert res == MachineResult(HALTED, "", 2)


def test_inv_and_reva_semantics():
    assert run_program(TinyProgram((OUT1, OUT0, INV)), "", t=10).output == "1001"
    assert run_program(TinyProgram((OUT1, OUT0, REVA)), "", t=10).output == "1001"
    assert run_program(TinyProgram((OUT1, OUT1, INV)), "", t=10).output == "1100"


def test_output_cap_aborts():
    res = run_program(TinyProgram((OUT1, DBL, DBL)), "", t=100, cap=3)
    assert res.status == CAP_EXCEEDED
    assert res.output == "11" and res.steps_used == 2


def test_program_name_round_trip():
    prog = TinyProgram.from_names("OUT1 dbl Reva halt")
    assert prog.names() == ["OUT1", "DBL", "REVA", "HALT"]
    assert prog.bit_length == 12
    with pytest.raises(ValueError):
        TinyProgram.from_names("OUT1 LOOP")
    with pytest.raises(ValueError):
        TinyProgram((8,))


def test_literal_program_trivials():
    assert literal_program("") == TinyProgram(())
    assert literal_program("1") == TinyProgram((OUT1,))
    assert literal_program("10110").bit_length == 15


# --- phi ---------------------------------------------------------------------


def test_phi_eight_ones_budget_steps():
    lo = phi(4, "11111111")
    assert (lo.value_bits, lo.witness, lo.ceiling_bits) == (24, None, 24)
    hi = phi(8, "11111111")
    assert hi.value_bits == 12
    # the enumeration-first 4-instruction witness doubles as late as it can
    assert hi.witness == TinyProgram((OUT1, OUT1, DBL, DBL))
    assert oracle_phi(8, "11111111", "") == (12, hi.witness)


def test_phi_matches_enumeration_exhaustively():
    for x in all_bit_strings(3):
        n = len(x)
        for y in ("", x, "10"):
            for t in (0, 1, max(0, n - 1), n, n + 3, 64):
                got = phi(t, x, y)
                want_bits, want_witness = oracle_phi(t, x, y)
                assert got.value_bits == want_bits, (x, y, t)
                assert got.witness == want_witness, (x, y, t)


@pytest.mark.parametrize(
    "x,y",
    [
        ("11011011", ""),  # doubling patterns
        ("100001", ""),  # needs REVA: 100 ++ reverse(100)
        ("0011", ""),  # needs INV: 00 ++ flip(00)
        ("110110", "110"),  # CPY shortcut
        ("10110100", "1011"),
    ],
)
def test_phi_matches_enumeration_spot_checks(x, y):
    got = phi(64, x, y)
    assert (got.value_bits, got.witness) == oracle_phi(64, x, y)


def test_phi_copy_shortcut_and_empty_string():
    for x in ("1", "1010", "111000111000"):
        est = phi(max(1, len(x)), x, x)
        assert est.value_bits == 3
        if len(x) > 1:
            assert est.witness == TinyProgram((CPY,))
        else:
            # OUT1 also produces "1" in one op and enumerates before CPY
            assert est.witness == TinyProgram((OUT1,))
    for t in (0, 1, 99):
        assert phi(t, "", "") == KcEstimate(0, TinyProgram(()), t, 0)


def test_phi_witness_actually_runs():
    for x in all_bit_strings(10):
        for y in ("", x):
            est = phi(64, x, y)
            assert est.value_bits <= est.ceiling_bits
            assert est.value_bits % 3 == 0
            assert est.witness.bit_length == est.value_bits
            res = run_program(est.witness, y, t=64, cap=len(x))
            assert res.status == HALTED and res.output == x
            # a minimal witness has no dead instruction, so it costs exactly l(x)
            assert run_program(est.witness, y, t=len(x)).steps_used == len(x)


def test_phi_monotone_and_stabilizes():
    for x in all_bit_strings(4):
        n = len(x)
        for y in ("", x):
            values = [e.value_bits for e in phi_curve(x, y, (1, 2, 4, 8, 16, 32))]
            assert all(a >= b for a, b in zip(values, values[1:]))
            # once every enumerated program has halted or been capped the
            # estimate is final
            assert phi(n or 1, x, y).value_bits == phi(10_000, x, y).value_bits


def test_phi_curve_eight_ones_golden():
    values = [e.value_bits for e in phi_curve("11111111", "", (2, 4, 8, 16))]
    assert values == [24, 24, 12, 12]


def test_phi_curve_validates_schedule():
    with pytest.raises(ValueError):
        phi_curve("1", "", (4, 4))
    with pytest.raises(ValueError):
        phi_curve("1", "", (8, 2))


def test_phi_guards():
    with pytest.raises(ValueError):
        phi(10, "0" * 17)
    with pytest.raises(ValueError):
        phi(10, "012")
    with pytest.raises(ValueError):
        phi(-1, "0")


# --- pairing ------------------------------------------------------------------


def test_prefix_encode_trivials():
    assert prefix_encode("") == "0"
    assert prefix_encode("101") == "1110101"
    assert pair_encode("", "") == "0"
    assert pair_encode("1", "0") == "1010"


@given(bitstrings, bitstrings)
def test_prefix_and_pair_decode_invert(s, r):
    assert prefix_decode(prefix_encode(s) + r) == (s, r)
    assert prefix_decode(pair_encode(s, r)) == (s, r)


def test_prefix_decode_malformed():
    with pytest.raises(FormatError):
        prefix_decode("111")  # no terminator
    with pytest.raises(FormatError):
        prefix_decode("110")  # declared 2 bits, supplied none


def test_bits_of():
    assert bits_of(0) == "0"
    assert bits_of(5) == "101"
    with pytest.raises(ValueError):
        bits_of(-1)


# --- joint bound --------------------------------------------------------------


def test_joint_bound_empty_pair():
    report = joint_bound_report("", "", 64)
    # <eps,eps> = "0" needs one OUT0 (3 bits); decomposition costs 0 + 0
    # plus a 2-bit header for the numeral "0"
    assert report["pair_bits"] == 3
    assert report["decomposed_bits"] == 2
    assert report["gap"] == 1


def test_joint_bound_one_one():
    report = joint_bound_report("1", "1", 64)
    assert report["pair_bits"] == 12  # <1,1> = 1011 has no shortcut
    assert report["y_bits"] == 3 and report["x_given_y_bits"] == 3
    assert report["header_bits"] == 4
    assert report["gap"] == 2


# Worst-case gap over all pairs with l(x), l(y) <= L at t=64, recorded once
# from the enumeration-backed implementation.  The gap grows with L at this
# machine scale (the pair string pays three value bits per prefix-overhead
# bit), so the check is a regression against the recorded values, not a
# constancy claim.
FAMILY_GAP_BASELINE = {2: 7, 3: 10, 4: 16}


def test_family_gap_regression():
    recomputed = {L: family_max_gap(L, 64) for L in FAMILY_GAP_BASELINE}
    assert recomputed == FAMILY_GAP_BASELINE
    # extending the family never shrinks the worst case (supersets of pairs)
    assert recomputed[2] <= recomputed[3] <= recomputed[4]
