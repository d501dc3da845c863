"""Synthetic byte sources with analytically known statistics.

Markov chains whose transition rows are exact rationals (power-of-two
integer weights drawn from per-context PRNG streams), an entropy-rate
solver, and a little arithmetic-worksheet corpus for conditional
compression experiments.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import BinaryIO, NamedTuple

import numpy as np

from .errors import FormatError
from .rng import Lcg64, mix64

_ROW_TAG = 0x4D41524B  # row-weight stream domain
_GEN_TAG = 0x47454E45  # sampling stream domain
_WORK_TAG = 0x574B5348  # worksheet stream domain

# power iteration works on a dense (states x alphabet) table
_MAX_ENTROPY_STATES = 4096


@dataclass(frozen=True)
class MarkovSpec:
    """Order-k chain over byte symbols 0..alphabet-1.

    Each context's transition weights are 2^u with u drawn uniformly
    below `concentration` from a stream keyed by (seed, context), so rows
    are exact rationals, every entry is positive (the chain is ergodic),
    and concentration=1 degenerates to iid uniform.
    """

    order: int
    alphabet: int
    concentration: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.order <= 3:
            raise ValueError(f"order must be 0..3, got {self.order}")
        if not 1 <= self.alphabet <= 256:
            raise ValueError(f"alphabet must be 1..256, got {self.alphabet}")
        if not 1 <= self.concentration <= 16:
            raise ValueError(
                f"concentration must be 1..16, got {self.concentration}"
            )
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")


def transition_weights(spec: MarkovSpec, context: tuple[int, ...]) -> np.ndarray:
    """Integer weight row for one context; independent of visit order."""
    stream = Lcg64(mix64(spec.seed, _ROW_TAG, len(context), *context))
    shifts = [stream.below(spec.concentration) for _ in range(spec.alphabet)]
    return np.array([1 << s for s in shifts], dtype=np.int64)


def _cumulative(spec: MarkovSpec, context: tuple[int, ...]) -> list[int]:
    acc, out = 0, []
    for w in transition_weights(spec, context):
        acc += int(w)
        out.append(acc)
    return out


def generate(spec: MarkovSpec, n: int) -> bytes:
    """Sample n bytes; bit-exact function of (spec, n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.alphabet == 1:
        return bytes(n)
    gen = Lcg64(mix64(spec.seed, _GEN_TAG))
    rows: dict[tuple[int, ...], list[int]] = {}
    out = bytearray()
    context: tuple[int, ...] = ()  # grows until it reaches the order
    k = spec.order
    next_u64 = gen.next_u64
    for _ in range(n):
        cum = rows.get(context)
        if cum is None:
            cum = rows[context] = _cumulative(spec, context)
        sym = bisect_right(cum, (next_u64() * cum[-1]) >> 64)
        out.append(sym)
        if k:
            context = (context + (sym,))[-k:]
    return bytes(out)


def _stationary_entropy(row_probs: np.ndarray, next_state: np.ndarray) -> float:
    """Conditional entropy of a chain given per-state transition rows.

    row_probs[s, a] is P(symbol a | state s); next_state[s, a] the successor
    state index. Stationary distribution by power iteration to 1e-12 L1
    residual (identity rows converge immediately, so degenerate chains are
    fine here even though MarkovSpec never produces them).
    """
    n_states = row_probs.shape[0]
    pi = np.full(n_states, 1.0 / n_states)
    flat_next = next_state.ravel()
    for _ in range(100_000):
        nxt = np.bincount(
            flat_next, weights=(pi[:, None] * row_probs).ravel(), minlength=n_states
        )
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual < 1e-12:
            break
    else:
        raise RuntimeError("stationary distribution failed to converge")
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(row_probs > 0, row_probs * np.log2(row_probs), 0.0)
    return float(-(pi * plogp.sum(axis=1)).sum())


def entropy_rate(spec: MarkovSpec) -> float:
    """Exact-weight conditional entropy in bits/symbol."""
    m, k = spec.alphabet, spec.order
    if m == 1:
        return 0.0
    n_states = m**k
    if n_states > _MAX_ENTROPY_STATES:
        raise ValueError(
            f"{n_states} context states exceed the dense-solver limit "
            f"{_MAX_ENTROPY_STATES}; reduce order or alphabet"
        )
    states = list(product(range(m), repeat=k))
    index = {ctx: i for i, ctx in enumerate(states)}
    row_probs = np.empty((n_states, m))
    next_state = np.empty((n_states, m), dtype=np.intp)
    for i, ctx in enumerate(states):
        w = transition_weights(spec, ctx)
        row_probs[i] = w / w.sum()
        for a in range(m):
            next_state[i, a] = index[(ctx + (a,))[-k:] if k else ()]
    return _stationary_entropy(row_probs, next_state)


# --- worksheet corpus ------------------------------------------------------


class WorksheetRecord(NamedTuple):
    k: bytes  # problem statement, e.g. b"407+58="
    m: bytes  # column-by-column working, final line repeats the answer
    r: bytes  # the answer digits


def _make_record(a: int, b: int) -> WorksheetRecord:
    r = str(a + b)
    lines = []
    da, db = str(a)[::-1], str(b)[::-1]
    carry = 0
    for i in range(max(len(da), len(db))):
        x = int(da[i]) if i < len(da) else 0
        y = int(db[i]) if i < len(db) else 0
        s = x + y + carry
        lines.append(f"{x}+{y}+{carry}={s} keep {s % 10} carry {s // 10}\n")
        carry = s // 10
    if carry:
        lines.append(f"lead {carry}\n")
    # the answer appears twice with a trailing separator so that an order-3
    # counting model primed on m has seen every trigram that spans the
    # boundary into r
    lines.append(f"answer {r} {r} ")
    return WorksheetRecord(f"{a}+{b}=".encode(), "".join(lines).encode(), r.encode())


def worksheet_corpus(seed: int, count: int) -> list[WorksheetRecord]:
    """Deterministic multi-digit addition problems with carry working."""
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = Lcg64(mix64(seed, _WORK_TAG))
    records = []
    for _ in range(count):
        a = 10 + rng.below(9990)
        b = 10 + rng.below(9990)
        records.append(_make_record(a, b))
    return records


def write_worksheet(records: list[WorksheetRecord], fh: BinaryIO) -> None:
    """u32 LE length-prefixed k, m, r per record."""
    for rec in records:
        for part in rec:
            fh.write(struct.pack("<I", len(part)))
            fh.write(part)


def read_worksheet(fh: BinaryIO) -> list[WorksheetRecord]:
    records = []
    while True:
        head = fh.read(4)
        if not head:
            return records
        parts = []
        for _ in range(3):
            if len(head) != 4:
                raise FormatError("truncated worksheet record length")
            (length,) = struct.unpack("<I", head)
            body = fh.read(length)
            if len(body) != length:
                raise FormatError("truncated worksheet record body")
            parts.append(body)
            if len(parts) < 3:
                head = fh.read(4)
        records.append(WorksheetRecord(*parts))


def worksheet_stream(records: list[WorksheetRecord]) -> bytes:
    """Concatenated k+m+r bytes — the corpus as one compressible blob."""
    return b"".join(rec.k + rec.m + rec.r for rec in records)
