"""The numpy twin of the C step kernel (``_kernel.c``), and its reference.

``kernel.load()`` returns this module when the extension cannot be built:
the same functions, arguments, results and ValueErrors (raised before any
state is touched).  State arithmetic is on int64, which wraps as the
extension does under -fwrapv; signed right shifts are floor shifts.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

PROB_SCALE = 1 << 16
ONE = 1 << 16  # Q16.16 unit
ALPHABET = 256  # a net codes bytes
WEIGHT_CLIP = 8 * ONE  # net parameters saturate to [-8.0, 8.0]
MAX_WIDTH = 1 << 31  # keeps the output-layer shift below 64
_TOTAL_LIMIT = 1 << 46  # keeps weight * free and remainder << 16 inside int64
_BAD_WEIGHTS = "weights must be nonnegative with one positive"
_INT64 = (np.dtype(np.int64),)


def _check(a: np.ndarray, name: str, dtypes: tuple = _INT64, writable: bool = False) -> None:
    """Reject an array the extension could not use in place, as it does."""
    if a.dtype not in dtypes or not a.flags.c_contiguous or (writable and not a.flags.writeable):
        kind = " or ".join(map(str, dtypes))
        raise ValueError(f"{name} must be a C-contiguous{' writable' * writable} {kind} array")


def quantize(weights: np.ndarray, cum: np.ndarray) -> None:
    """Fill cum (int64, m + 1 entries) with the table for m int32 or int64 weights:
    one slot per symbol, floors of w * free / total, then the leftover slots to
    the largest keys (remainder << 16) + (m-1-index), which are distinct."""
    _check(weights, "weights", (np.dtype(np.int32), *_INT64))
    _check(cum, "cum", writable=True)
    m = weights.size
    if not 2 <= m <= PROB_SCALE:
        raise ValueError(f"alphabet size outside [2, {PROB_SCALE}]")
    if cum.size != m + 1:
        raise ValueError("cum must hold one more entry than weights")
    w = weights if weights.dtype == np.int64 else weights.astype(np.int64)
    # negative iff a weight is, and below 2^46 iff every weight is, so the
    # sum of at most 2^16 weights cannot wrap
    bits = int(np.bitwise_or.reduce(w))
    total = int(np.add.reduce(w))
    if bits >= 0 and (bits >= _TOTAL_LIMIT or total >= _TOTAL_LIMIT):
        raise ValueError("weight total too large; rescale below 2^46")
    if bits < 0 or total == 0:
        raise ValueError(_BAD_WEIGHTS)
    free = PROB_SCALE - m
    base, key = np.divmod(w * free, total)  # key <- remainders < 2^46
    leftover = free - int(np.add.reduce(base))
    if leftover:
        key <<= 16
        key += np.arange(m - 1, -1, -1, dtype=np.int64)
        top = key.argpartition(m - leftover)[m - leftover :]
        base[top] += 1
    base += 1
    cum[0] = 0
    np.add.accumulate(base, out=cum[1:])


def locate(cum: np.ndarray, target: int) -> int:
    """The i with cum[i] <= target < cum[i + 1], for a strictly increasing cum."""
    _check(cum, "cum")
    i = int(np.searchsorted(cum, target, side="right"))
    if not 0 < i < cum.size:
        raise ValueError("locate needs cum[0] <= target < cum[-1]")
    return i - 1


def net(emb, b1, w2, b2, softmax, buf, lr: int, recent) -> SimpleNamespace:
    """One NeuralPredictor's arrays as shaped views, which write through, and
    its constants; buf (2w + 256) splits into pre | hidden | weights and
    holds the forward pass for the context bytes recent, oldest first."""
    names = ("emb", "b1", "w2", "b2", "softmax", "buf")
    for name, array in zip(names, (emb, b1, w2, b2, softmax, buf)):
        _check(array, name, writable=name != "softmax")
    w = b1.size
    if not (b2.size == ALPHABET and 1 <= w <= MAX_WIDTH and ALPHABET * w <= emb.size and softmax.size):
        raise ValueError("net arrays out of range")
    k = emb.size // (ALPHABET * w)  # reshape rejects sizes that disagree
    pre, hidden, weights = np.split(buf.reshape(2 * w + ALPHABET), [w, 2 * w])
    n = SimpleNamespace(
        emb=emb.reshape(k, ALPHABET, w), b1=b1.reshape(w), w2=w2.reshape(w, ALPHABET), b2=b2.reshape(ALPHABET),
        softmax=softmax.reshape(-1), pre=pre, hidden=hidden, weights=weights,
        k=k, lr=int(lr), width_shift=(w - 1).bit_length(),
    )
    _check_context(n, recent)
    _forward(n, recent)
    return n


def _check_context(n: SimpleNamespace, recent) -> None:
    if len(recent) > n.k:
        raise ValueError("context longer than the net's")


def _forward(n: SimpleNamespace, recent) -> None:
    pre, hidden = n.pre, n.hidden
    pre[:] = n.b1
    for pos, byte in enumerate(recent, n.k - len(recent)):  # missing context adds nothing
        pre += n.emb[pos, byte]
    np.minimum(pre, ONE, out=hidden)
    np.maximum(hidden, -ONE, out=hidden)
    logits = hidden @ n.w2  # |h| <= 2^16, |w2| <= 2^19, w <= 256: fits int64
    logits >>= 16  # floor scaling, Q32.32 -> Q16.16
    logits += n.b2
    gap = np.subtract(np.maximum.reduce(logits), logits, out=logits)  # >= 0, Q16.16
    gap >>= 8
    n.softmax.take(gap, out=n.weights, mode="clip")  # outside the table: the nearer end, as in C


def net_step(n: SimpleNamespace, recent, token: int) -> None:
    """NeuralPredictor.update on buf's forward pass (for context recent), then
    the forward pass for the last k bytes of recent + token into buf."""
    if not 0 <= token < ALPHABET:
        raise ValueError(f"token {token} outside the alphabet [0, {ALPHABET})")
    _check_context(n, recent)
    weights, pre, hidden, lr = n.weights, n.pre, n.hidden, n.lr
    total = int(np.add.reduce(weights))
    # the extension also rejects a negative entry, which only a write from outside leaves
    if total <= 0:
        raise ValueError("corrupted forward pass: " + _BAD_WEIGHTS)
    # d(cross-entropy)/d(logits) = p_hat - onehot, in Q16.16
    dlog = (weights * ONE) // total  # nonnegative, so // truncates
    dlog[token] -= ONE
    # backprop through the pre-update output layer, zeroed where the hard
    # clamp saturated (hidden == pre exactly where unclamped)
    dpre = n.w2 @ dlog
    dpre >>= 16
    dpre *= hidden == pre
    # output layer: the step shift grows with log2(width) so the per-logit
    # movement sum_j h_j * dw2[j, s] stays width-invariant
    step2 = (hidden * lr)[:, None] * dlog  # |h * lr * dlog| < 2^52
    step2 >>= 32 + n.width_shift
    step = lr * dlog
    step >>= 16
    step1 = lr * dpre
    step1 >>= 16
    rows = [(n.emb[pos, byte], step1) for pos, byte in enumerate(recent, n.k - len(recent))]
    for param, delta in [(n.w2, step2), (n.b2, step), (n.b1, step1), *rows]:
        param -= delta
        np.minimum(param, WEIGHT_CLIP, out=param)
        np.maximum(param, -WEIGHT_CLIP, out=param)
    _forward(n, [*recent, token][-n.k :])
