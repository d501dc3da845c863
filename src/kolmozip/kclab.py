"""Desk-scale Kolmogorov-complexity workbench.

A deterministic 8-instruction append-only machine over bit-strings, a
total-recursive shortest-program approximator phi(t, x, y) that is
monotone in the step budget t, and the prefix-code pairing construction
used to bound joint complexity by conditional parts.

Complexity is measured in bits: every instruction costs 3 bits, so a
k-instruction program has length 3k, and the literal program (one OUT
per bit of x) gives the ceiling 3*l(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

OUT0, OUT1, CPY, DBL, INV, REVA, NOP, HALT = range(8)
OP_NAMES = ("OUT0", "OUT1", "CPY", "DBL", "INV", "REVA", "NOP", "HALT")
_CODE_OF = {name: code for code, name in enumerate(OP_NAMES)}
BITS_PER_OP = 3

HALTED = "halted"
BUDGET_EXCEEDED = "step-budget-exceeded"
CAP_EXCEEDED = "output-cap-exceeded"

_FLIP = str.maketrans("01", "10")
_MAX_PHI_BITS = 16  # enumeration-equivalent guard; see phi()


def _check_bits(s: str, what: str) -> None:
    if s.strip("01"):
        raise ValueError(f"{what} must be a string of 0s and 1s, got {s!r}")


@dataclass(frozen=True)
class TinyProgram:
    """Instruction sequence; the complexity measure is 3 bits/instruction."""

    ops: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not 0 <= op <= 7 for op in self.ops):
            raise ValueError("opcodes are 3-bit values 0..7")

    @property
    def bit_length(self) -> int:
        return BITS_PER_OP * len(self.ops)

    def names(self) -> list[str]:
        return [OP_NAMES[op] for op in self.ops]

    @classmethod
    def from_names(cls, text: str) -> "TinyProgram":
        parts = text.split()
        try:
            return cls(tuple(_CODE_OF[p.upper()] for p in parts))
        except KeyError as exc:
            raise ValueError(f"unknown instruction {exc.args[0]!r}") from None


@dataclass(frozen=True)
class MachineResult:
    status: str  # halted | step-budget-exceeded | output-cap-exceeded
    output: str
    steps_used: int


def run_program(
    program: TinyProgram, y: str = "", t: int = 1 << 30, cap: int | None = None
) -> MachineResult:
    """Execute on input y with step budget t and optional output-bit cap.

    Step cost is the number of bits an instruction appends, floored at 1,
    so the budget binds on short-but-slow programs (DBL chains).  An
    instruction that would overrun t or cap aborts before any side
    effect; reaching the end of the sequence halts for free.
    """
    _check_bits(y, "input")
    out = ""
    steps = 0
    for op in program.ops:
        if op == OUT0:
            appended = "0"
        elif op == OUT1:
            appended = "1"
        elif op == CPY:
            appended = y
        elif op == DBL:
            appended = out
        elif op == INV:
            appended = out.translate(_FLIP)
        elif op == REVA:
            appended = out[::-1]
        else:  # NOP, HALT
            appended = ""
        cost = max(1, len(appended))
        if steps + cost > t:
            return MachineResult(BUDGET_EXCEEDED, out, steps)
        if cap is not None and len(out) + len(appended) > cap:
            return MachineResult(CAP_EXCEEDED, out, steps)
        steps += cost
        out += appended
        if op == HALT:
            break
    return MachineResult(HALTED, out, steps)


@dataclass(frozen=True)
class KcEstimate:
    """phi output: shortest-found program length in bits, under budget t."""

    value_bits: int
    witness: TinyProgram | None
    budget: int
    ceiling_bits: int


def phi(t: int, x: str, y: str = "") -> KcEstimate:
    """Budget-t approximation of the conditional complexity of x given y.

    Contract: enumerate programs of bit-length <= 3*l(x) in (length, lex)
    order, run each on y with budget t and output cap l(x); the value is
    the length of the first (= shortest) one that halts with output
    exactly x, else the ceiling 3*l(x).

    Implementation is a prefix-reachability shortcut with identical
    output: the machine is append-only, so a run can only ever produce x
    if its output is a prefix of x throughout; and since every
    instruction costs exactly the bits it appends (floored at 1), a
    program with no dead instructions costs exactly l(x) steps in total.
    Dead (zero-append) instructions only lengthen a program, so minimal
    witnesses contain none.  Hence: no program halts with output x when
    t < l(x); when t >= l(x), the shortest witness is a minimum-hop path
    0 -> l(x) over prefix lengths.  The recurrence that prices each prefix
    keeps its lowest-opcode minimum-hop move, and following those moves
    from 0 reproduces the enumeration-first witness.  The test suite
    cross-checks against literal enumeration.
    """
    if t < 0:
        raise ValueError("budget must be nonnegative")
    _check_bits(x, "x")
    _check_bits(y, "y")
    n = len(x)
    if n > _MAX_PHI_BITS:
        raise ValueError(
            f"l(x)={n} exceeds {_MAX_PHI_BITS}; phi is calibrated to the "
            "enumeration-tractable desk scale"
        )
    ceiling = BITS_PER_OP * n
    if t < n:
        return KcEstimate(ceiling, None, t, ceiling)

    # best[i] = fewest instructions taking output x[:i] to exactly x, and
    # move[i] = (op, next i) the first of them; moves are tried in opcode
    # order and a later one is kept only when strictly cheaper
    best = [0] * (n + 1)
    move: list = [None] * n  # every entry is set below
    for i in range(n - 1, -1, -1):
        best[i], move[i] = 1 + best[i + 1], (OUT1 if x[i] == "1" else OUT0, i + 1)
        if y and x.startswith(y, i) and 1 + best[i + len(y)] < best[i]:
            best[i], move[i] = 1 + best[i + len(y)], (CPY, i + len(y))
        if 0 < i and 2 * i <= n and 1 + best[2 * i] < best[i]:
            seen, half = x[:i], x[i : 2 * i]
            images = (seen, seen.translate(_FLIP), seen[::-1])  # DBL, INV, REVA
            if half in images:
                best[i], move[i] = 1 + best[2 * i], (DBL + images.index(half), 2 * i)

    ops: list[int] = []
    i = 0
    while i < n:
        op, i = move[i]
        ops.append(op)
    return KcEstimate(BITS_PER_OP * best[0], TinyProgram(tuple(ops)), t, ceiling)


def phi_curve(x: str, y: str, t_schedule: Sequence[int]) -> list[KcEstimate]:
    """phi at each budget of an increasing schedule; values nonincreasing."""
    budgets = list(t_schedule)
    if any(b >= a for b, a in zip(budgets, budgets[1:])):
        raise ValueError("t_schedule must be strictly increasing")
    return [phi(t, x, y) for t in budgets]


# --- prefix pairing ---------------------------------------------------------


def prefix_encode(s: str) -> str:
    """Self-delimiting 1^l(s) 0 s; length 2*l(s)+1."""
    _check_bits(s, "s")
    return "1" * len(s) + "0" + s


def pair_encode(x: str, y: str) -> str:
    """<x,y> = prefix_encode(x) ++ y; uniquely decodable concatenation."""
    _check_bits(y, "y")
    return prefix_encode(x) + y


def bits_of(value: int) -> str:
    """Binary numeral of a nonnegative int; bits_of(0) = '0'."""
    if value < 0:
        raise ValueError("value must be nonnegative")
    return format(value, "b")


def joint_bound_report(x: str, y: str, t: int) -> dict:
    """Gap between direct pair complexity and its conditional decomposition.

    A = phi(t, <x,y>, eps) codes the pair directly; B codes y, then x
    given y, plus a self-delimiting header (twice the numeral of the
    first part's length) that lets a decoder split the two programs.
    The construction guarantees A <= B + O(1) over any family; the gap
    A - B is what the report tracks.
    """
    a = phi(t, pair_encode(x, y), "").value_bits
    phi_y = phi(t, y, "").value_bits
    phi_x_given_y = phi(t, x, y).value_bits
    header_bits = 2 * len(bits_of(phi_y))
    b = phi_y + phi_x_given_y + header_bits
    return {
        "x": x,
        "y": y,
        "t": t,
        "pair_bits": a,
        "y_bits": phi_y,
        "x_given_y_bits": phi_x_given_y,
        "header_bits": header_bits,
        "decomposed_bits": b,
        "gap": a - b,
    }


def all_bit_strings(max_len: int) -> Iterator[str]:
    for length in range(max_len + 1):
        for value in range(1 << length):
            yield format(value, f"0{length}b") if length else ""


def family_max_gap(max_len: int, t: int) -> int:
    """Largest joint-bound gap over all pairs with l(x), l(y) <= max_len."""
    return max(
        joint_bound_report(x, y, t)["gap"]
        for x in all_bit_strings(max_len)
        for y in all_bit_strings(max_len)
    )
