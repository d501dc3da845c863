"""The numpy twin of the C step kernel (``_kernel.c``), and its reference.

``kernel.load()`` returns this module when the extension cannot be built:
the same functions, arguments, results and errors (ValueErrors raised
before any state is touched, TruncatedStreamError where a payload runs
out).  Every array argument is a one-dimensional, C-contiguous int64
vector, writable where it is written and of the length its function fixes,
checked by ``_check`` with the extension's messages; a payload is
bytes-like and C-contiguous.  States are
namespaces where the extension has types; a net's and a count table's hold
their context, which starts empty: a state is only ever made fresh and
stepped, never restored.  State arithmetic is on int64, which wraps as the
extension does under -fwrapv; signed right shifts are floor shifts.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .errors import TruncatedStreamError

PROB_SCALE = 1 << 16
ONE = 1 << 16  # Q16.16 unit
ALPHABET = 256  # a net codes bytes
WEIGHT_CLIP = 8 * ONE  # net parameters saturate to [-8.0, 8.0]
MAX_WIDTH = 1 << 31  # keeps the output-layer shift below 64
MAX_LR = 1 << 20  # PredictorConfig's learning-rate bound
_TOTAL_LIMIT = 1 << 37  # the extension's bound: weight * 2^16 below 2^53, exact in doubles
_SOFTMAX_LIMIT = _TOTAL_LIMIT // ALPHABET  # softmax entries below it: 256 of them total below 2^37
_RENORM = 1 << 24  # renormalize while range < 2^24
_MASK32 = 0xFFFFFFFF
_FLUSH_BYTES = 5  # finish() shifts out five bytes
_BAD_WEIGHTS = "weights must be nonnegative with one positive"
MAX_ORDER = 3  # freq keys: up to three context bytes
COUNT_LIMIT = 1 << 16  # a freq row whose count reaches this is halved
_ONES = np.ones(ALPHABET, dtype=np.int32)
_FREE_SLOTS = PROB_SCALE - ALPHABET  # a table's slots past one per symbol
_TIE_KEYS = np.arange(ALPHABET - 1, -1, -1, dtype=np.int64)  # ties to the lower index


def _check(a, name: str, writable: bool = False, size: int | None = None) -> np.ndarray:
    """a as an ndarray, which it is or views through the buffer protocol as
    the extension's get_array does (the same TypeError if it has no buffer);
    reject what is not a one-dimensional, C-contiguous int64 vector
    (writable, if asked; of size entries, if given), by get_array's rules in
    its order."""
    if not isinstance(a, np.ndarray):
        try:
            view = memoryview(a)
        except TypeError:
            raise TypeError(f"a bytes-like object is required, not '{type(a).__name__}'") from None
        a = np.asarray(view)
    if a.dtype != np.int64:
        why = "must be int64"
    elif a.ndim != 1:
        why = "must be one-dimensional"
    elif not a.flags.c_contiguous:
        why = "must be C-contiguous"
    elif writable and not a.flags.writeable:
        why = "must be writable"
    elif size is not None and a.size != size:
        why = f"must hold {size} entries"
    else:
        return a
    raise ValueError(f"{name} {why}")


def _row_total(w: np.ndarray) -> int:
    """The total of 256 int64 weights, if quantize and net_step accept the
    row: every weight nonnegative, one positive, total below 2^37."""
    # negative iff a weight is, and below 2^37 iff every weight is, so the sum cannot wrap
    bits = int(np.bitwise_or.reduce(w))
    total = int(np.add.reduce(w))
    if bits >= 0 and (bits >= _TOTAL_LIMIT or total >= _TOTAL_LIMIT):
        raise ValueError("weight total too large; rescale below 2^37")
    if bits < 0 or total == 0:
        raise ValueError(_BAD_WEIGHTS)
    return total


def quantize(weights: np.ndarray, cum: np.ndarray) -> None:
    """Fill cum (257 entries) with the table for 256 weights."""
    weights = _check(weights, "weights", size=ALPHABET)
    cum = _check(cum, "cum", writable=True, size=ALPHABET + 1)
    _quantize(weights, _row_total(weights), cum)


def _quantize(weights: np.ndarray, total: int, cum: np.ndarray) -> None:
    """cum <- the table for the 256 weights _row_total accepted, with their
    total: one slot per symbol, floors of w * _FREE_SLOTS / total, then the
    leftover slots to the largest keys (remainder << 16) + (255-index),
    which are distinct."""
    base, key = np.divmod(weights * _FREE_SLOTS, total)  # key <- remainders < 2^37
    leftover = _FREE_SLOTS - int(np.add.reduce(base))
    if leftover:
        key <<= 16
        key += _TIE_KEYS
        top = key.argpartition(ALPHABET - leftover)[ALPHABET - leftover :]
        base[top] += 1
    base += 1
    cum[0] = 0
    np.add.accumulate(base, out=cum[1:])


def encoder() -> SimpleNamespace:
    """A fresh RangeEncoder state.  low holds up to 33 bits between
    renormalizations; bit 32 is a carry into the bytes not yet emitted: the
    cache byte and the run of 0xFF after it (pending counts both).  The
    first byte is a phantom zero, so a carry always has somewhere to land."""
    return SimpleNamespace(low=0, range=_MASK32, emitted=bytearray(), cache=0, pending=1, finished=False)


def encode(enc: SimpleNamespace, cum: np.ndarray, sym: int) -> int:
    """Narrow the range to sym's interval of the table cum, renormalize, and
    return its width cum[sym + 1] - cum[sym].  The interval must be a
    nonempty part of [0, 2^16]: an empty one would renormalize forever."""
    cum = _check(cum, "cum")
    if enc.finished:
        raise ValueError("encoder already finished")
    if not 0 <= sym < cum.size - 1:
        raise ValueError(f"symbol {sym} outside [0, {cum.size - 1})")
    c0, c1 = cum.item(sym), cum.item(sym + 1)
    if not 0 <= c0 < c1 <= PROB_SCALE:
        raise ValueError("encode needs 0 <= cum[sym] < cum[sym + 1] <= 2^16")
    r = enc.range
    lo = (r * c0) >> 16
    enc.low += lo
    enc.range = ((r * c1) >> 16) - lo
    while enc.range < _RENORM:
        _shift_low(enc)
        enc.range <<= 8
    return c1 - c0


def _shift_low(enc: SimpleNamespace) -> None:
    low = enc.low
    if low < 0xFF000000 or low > _MASK32:
        carry = low >> 32
        enc.emitted.append((enc.cache + carry) & 0xFF)
        if enc.pending > 1:
            enc.emitted.extend(bytes([(0xFF + carry) & 0xFF]) * (enc.pending - 1))
        enc.pending = 0
        enc.cache = (low >> 24) & 0xFF
    enc.pending += 1
    enc.low = (low << 8) & _MASK32


def finish(enc: SimpleNamespace) -> bytes:
    """The payload.  The first call snaps low up to a multiple of 2^16
    (inside [low, low + range), as range >= 2^24) and shifts out five bytes;
    the zero tail drains the pending run, so the payload holds exactly one
    byte per renormalization plus five.  Later calls return it again."""
    if not enc.finished:
        enc.low = (enc.low + 0xFFFF) & ~0xFFFF
        for _ in range(_FLUSH_BYTES):
            _shift_low(enc)
        enc.finished = True
    return bytes(enc.emitted)


def decoder(payload) -> SimpleNamespace:
    """A RangeDecoder state over a copy of payload (bytes-like and
    C-contiguous), with the phantom byte skipped and the next four read.
    code = value - low, so there is no low register; the renormalization
    schedule is the encoder's."""
    # frombuffer asks for one contiguous block of bytes, as the extension
    # does, so the exporter refuses the same payloads with the same errors
    dec = SimpleNamespace(payload=np.frombuffer(payload, dtype=np.uint8).tobytes(), cursor=0, range=_MASK32, code=0)
    _next_byte(dec)  # the phantom byte; its content is ignored
    for _ in range(4):
        dec.code = (dec.code << 8) | _next_byte(dec)
    return dec


def _next_byte(dec: SimpleNamespace) -> int:
    if dec.cursor >= len(dec.payload):
        raise TruncatedStreamError(f"payload exhausted at byte {dec.cursor}; stream is truncated")
    b = dec.payload[dec.cursor]
    dec.cursor += 1
    return b


def decode(dec: SimpleNamespace, cum: np.ndarray) -> int:
    """The symbol s whose interval [cum[s], cum[s + 1]) holds the target,
    then the encoder's narrowing and renormalization.  cum must be a table:
    holding the target, and every interval inside [0, 2^16]."""
    cum = _check(cum, "cum")
    r = dec.range
    target = (((dec.code + 1) << 16) - 1) // r
    if target >= PROB_SCALE:  # only reachable on corrupted payloads
        target = PROB_SCALE - 1
    sym = int(cum.searchsorted(target, "right")) - 1
    if not 0 <= sym < cum.size - 1:
        raise ValueError("decode needs cum[0] <= target < cum[-1]")
    c0, c1 = cum.item(sym), cum.item(sym + 1)
    if c0 < 0 or c1 > PROB_SCALE:
        raise ValueError("decode needs 0 <= cum[sym] < cum[sym + 1] <= 2^16")
    lo = (r * c0) >> 16
    dec.code -= lo
    dec.range = ((r * c1) >> 16) - lo
    while dec.range < _RENORM:
        dec.code = ((dec.code << 8) | _next_byte(dec)) & _MASK32
        dec.range <<= 8
    return sym


def net(emb, b1, w2, b2, softmax, buf, lr: int) -> SimpleNamespace:
    """One NeuralPredictor's arrays (emb and w2 as shaped views, which write
    through) and its constants, at the empty context; buf (2w + 256) splits
    into pre | hidden | weights, that context's forward pass.  The softmax
    table must make every forward pass a row quantize's rule accepts."""
    if not 1 <= lr <= MAX_LR:
        raise ValueError(f"learning rate {lr} outside [1, 2^20]")
    names = ("emb", "b1", "w2", "b2", "softmax", "buf")
    emb, b1, w2, b2, softmax, buf = (
        _check(a, name, writable=name != "softmax") for a, name in zip((emb, b1, w2, b2, softmax, buf), names)
    )
    w = b1.size
    k = emb.size // (ALPHABET * w) if w else 0
    want = (k * ALPHABET * w, w * ALPHABET, ALPHABET, 2 * w + ALPHABET)
    if not (1 <= w <= MAX_WIDTH and k and (emb.size, w2.size, b2.size, buf.size) == want and softmax.size):
        raise ValueError("net arrays disagree: want emb k*256*w, b1 w (<= 2^31), w2 w*256, "
                         "b2 256, buf 2*w + 256 and a nonempty softmax table")
    # the top logit reads entry 0, and 256 entries total below 2^37: every
    # forward pass is then a row quantize's rule accepts
    if not (softmax.item(0) > 0 and int(softmax.min()) >= 0 and int(softmax.max()) < _SOFTMAX_LIMIT):
        raise ValueError("softmax table needs a positive first entry and every entry in [0, 2^29)")
    pre, hidden, weights = np.split(buf, [w, 2 * w])
    n = SimpleNamespace(
        emb=emb.reshape(k, ALPHABET, w), b1=b1, w2=w2.reshape(w, ALPHABET), b2=b2,
        softmax=softmax, pre=pre, hidden=hidden, weights=weights,
        k=k, lr=int(lr), width_shift=(w - 1).bit_length(), context=b"", cum=None,
    )
    _forward(n)
    return n


def _forward(n: SimpleNamespace) -> None:
    pre, hidden = n.pre, n.hidden
    pre[:] = n.b1
    for pos, byte in enumerate(n.context, n.k - len(n.context)):  # missing context adds nothing
        pre += n.emb[pos, byte]
    np.minimum(pre, ONE, out=hidden)
    np.maximum(hidden, -ONE, out=hidden)
    logits = hidden @ n.w2  # |h| <= 2^16, |w2| <= 2^19, w <= 256: fits int64
    logits >>= 16  # floor scaling, Q32.32 -> Q16.16
    logits += n.b2
    gap = np.subtract(np.maximum.reduce(logits), logits, out=logits)  # >= 0, Q16.16
    gap >>= 8
    n.softmax.take(gap, out=n.weights, mode="clip")  # outside the table: the nearer end, as in C


def net_step(n: SimpleNamespace, token: int) -> None:
    """NeuralPredictor.update on buf's forward pass, if quantize's rule accepts
    its row; then token onto the context, kept to its last k bytes, the new
    context's forward pass into buf and its table into the kept cum."""
    if not 0 <= token < ALPHABET:
        raise ValueError(f"token {token} outside the alphabet [0, {ALPHABET})")
    weights, pre, hidden, lr = n.weights, n.pre, n.hidden, n.lr
    total = _row_total(weights)
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
    rows = [(n.emb[pos, byte], step1) for pos, byte in enumerate(n.context, n.k - len(n.context))]
    for param, delta in [(n.w2, step2), (n.b2, step), (n.b1, step1), *rows]:
        param -= delta
        np.minimum(param, WEIGHT_CLIP, out=param)
        np.maximum(param, -WEIGHT_CLIP, out=param)
    n.context = (n.context + bytes([token]))[-n.k :]
    _forward(n)
    _write_table(n, n.weights)


def freq(order: int, row: np.ndarray) -> SimpleNamespace:
    """One FreqPredictor's count table for order 0..3, empty and at the
    empty context, bound to row (256 entries, writable), which it fills
    with ones."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"freq order {order} outside [0, {MAX_ORDER}]")
    row = _check(row, "row", writable=True, size=ALPHABET)
    row[:] = _ONES
    return SimpleNamespace(order=order, row=row, counts={}, context=b"", cum=None)


def freq_step(f: SimpleNamespace, token: int) -> None:
    """FreqPredictor.update: count token in the current context's row (made,
    all ones, if it has none), halving the row, floored at 1, when the count
    reaches 2^16; append token to the context and keep the last order bytes;
    then copy the new context's counts into row, or ones if it has none, and
    their table into the kept cum."""
    if not 0 <= token < ALPHABET:
        raise ValueError(f"token {token} outside the alphabet [0, {ALPHABET})")
    counts = f.counts.get(f.context)
    if counts is None:
        counts = f.counts[f.context] = np.ones(ALPHABET, dtype=np.int32)
    counts[token] += 1
    if counts[token] >= COUNT_LIMIT:
        np.maximum(counts >> 1, 1, out=counts)
    if f.order:
        f.context = (f.context + bytes([token]))[-f.order :]
    f.row[:] = f.counts.get(f.context, _ONES)
    _write_table(f, f.row)


def freq_state(f: SimpleNamespace) -> bytes:
    """FreqPredictor's digest payload: for each context in sorted order, a u8
    length, the bytes oldest first, then the counts as little-endian int32."""
    parts = []
    for key in sorted(f.counts):
        parts.append(bytes([len(key)]))
        parts.append(key)
        parts.append(f.counts[key].astype("<i4").tobytes())
    return b"".join(parts)


def keep_table(state: SimpleNamespace, cum: np.ndarray) -> None:
    """Bind cum (257 entries, writable) to a net or count table, replacing
    any cum bound before; from then on each net_step or freq_step on it ends
    by writing the table of the row it leaves into cum."""
    state.cum = _check(cum, "cum", writable=True, size=ALPHABET + 1)


def _write_table(state: SimpleNamespace, row: np.ndarray) -> None:
    """state's bound cum <- the table of row, which the state's own rule
    makes valid; nothing while no table is bound."""
    if state.cum is not None:
        _quantize(row, int(np.add.reduce(row)), state.cum)
