"""The C step kernel against its numpy twin, and the kernel build.

Every function of the extension must reproduce its twin in
``_kernel_numpy`` bit for bit: the same cumulative tables, the same decoded
symbols, the same neural weights after every step, the same artifacts.  Both
must export the same functions and reject the same input before touching
state.  The build must be safe to run concurrently and must degrade to the
twin when no compiler is there or the compiler fails.
"""

from __future__ import annotations

import ast
import copy
import ctypes
import gc
import inspect
import os
import pickle
import pwd
import platform
import re
import shutil
import subprocess
import sys
import sysconfig
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmozip import _kernel_numpy, kernel
from kolmozip.coder import PROB_SCALE, quantize_weights
from kolmozip.errors import TruncatedStreamError
from kolmozip.pipeline import compress, decompress, deserialize, serialize
from kolmozip.predictors import _SOFTMAX_TABLE, ONE, FreqPredictor, NeuralPredictor, PredictorConfig, make_predictor
from kolmozip.rng import Lcg64
from kolmozip.sources import MarkovSpec, generate

from conftest import pseudo_text
from test_coder import oracle_largest_remainder, twin_quantize
from test_predictors import final_layer_gradient

needs_kernel = pytest.mark.skipif(
    kernel.load() is _kernel_numpy, reason="the C extension did not build here"
)
needs_compiler = pytest.mark.skipif(kernel._find_compiler() is None, reason="no C compiler on PATH")
# the step modules this process can run: the extension where it builds, the twin always
STEP_MODULES = {"extension": kernel.load(), "numpy": _kernel_numpy}


@pytest.fixture(params=list(STEP_MODULES))
def step(request, monkeypatch):
    """Each step module in turn, pinned as what kernel.load() returns."""
    module = STEP_MODULES[request.param]
    if request.param == "extension" and module is _kernel_numpy:
        pytest.skip("the C extension did not build here")
    monkeypatch.setattr(kernel, "load", lambda: module)
    return module


def pin_twin(monkeypatch) -> None:
    monkeypatch.setattr(kernel, "load", lambda: _kernel_numpy)


@needs_compiler
def test_kernel_loads_where_a_compiler_is_present():
    assert kernel.load() is not _kernel_numpy


def _functions(module) -> set[str]:
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isbuiltin(obj))
    }


def test_extension_and_twin_export_the_same_functions():
    # the method table of the source, so a function added to _kernel.c
    # without a twin fails even where the extension cannot be built
    table = set(re.findall(r'^\s*\{"(\w+)", \(PyCFunction\)', kernel.SOURCE.read_text(), re.MULTILINE))
    exports = {"quantize", "net", "net_step", "encoder", "encode", "finish", "decoder", "decode"}
    exports |= {"freq", "freq_step", "freq_state"}
    assert _functions(_kernel_numpy) == table == exports
    if kernel.load() is not _kernel_numpy:
        assert _functions(kernel.load()) == table


def test_extension_and_twin_take_the_same_arguments():
    # each function's check_nargs in the source (the count it requires)
    # against the twin's required parameters, so a changed signature on one
    # side fails even where the extension cannot be built
    source = kernel.SOURCE.read_text()
    (members,) = re.findall(r"^enum \{([^}]*N_ARRAYS)\s*\};", source, re.MULTILINE)
    constants = {name.strip(): i for i, name in enumerate(members.split(","))}
    required = {
        fn: eval(count, {}, constants)
        for fn, count in re.findall(r'check_nargs\("(\w+)", nargs, ([^)]+)\)', source)
    }
    twin = {
        fn: sum(p.default is p.empty for p in inspect.signature(getattr(_kernel_numpy, fn)).parameters.values())
        for fn in _functions(_kernel_numpy)
    }
    assert required == twin
    assert required["net"] == 7 and required["net_step"] == 2 and required["freq"] == 2


# a run of adjacent C string literals, which the compiler joins into one
_C_STRING = r'((?:"(?:[^"\\]|\\.)*"\s*)+)'
# where _kernel.c spells out a plain ValueError message
_C_MESSAGES = [
    rf"PyErr_SetString\(PyExc_ValueError,\s*{_C_STRING}\)",
    rf"\bwhy = {_C_STRING};",
    rf"static const char \w+\[\] = {_C_STRING};",
    rf"\breturn {_C_STRING};",
]


def _joined(run: str) -> str:
    return "".join(re.findall(r'"((?:[^"\\]|\\.)*)"', run))


def _twin_message_parts() -> list[str]:
    """The literal parts of every raise ValueError(...) in the twin: its
    strings and the literal text of its f-strings, with a name bound to
    string literals read as each of them."""
    tree = ast.parse(Path(_kernel_numpy.__file__).read_text())
    bound: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.setdefault(target.id, []).append(node.value.value)

    def parts(node) -> list[str]:
        if isinstance(node, ast.Constant):
            return [node.value]
        if isinstance(node, ast.Name):
            return bound[node.id]  # a message the test cannot read fails here
        if isinstance(node, ast.FormattedValue):
            # the text of a name bound to literals; none for a value known only at run time
            return bound.get(node.value.id, []) if isinstance(node.value, ast.Name) else []
        assert isinstance(node, ast.JoinedStr), ast.dump(node)
        return [text for value in node.values for text in parts(value)]

    return [
        text
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"
        for text in parts(node.exc.args[0])
    ]


def test_extension_and_twin_spell_the_same_messages():
    # every plain ValueError message of the source inside one of the twin's
    # string constants (f-string parts included), and every literal part of
    # the twin's ValueError messages inside one of the source's strings, so
    # a message reworded or dropped on one side fails even where the
    # extension cannot be built
    source = kernel.SOURCE.read_text()
    messages = {_joined(run) for pattern in _C_MESSAGES for run in re.findall(pattern, source)}
    twin = [
        node.value
        for node in ast.walk(ast.parse(Path(_kernel_numpy.__file__).read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert {"must be int64", "must be one-dimensional", "must be C-contiguous", "must be writable"} <= messages
    assert "row must hold 256 entries" in messages and any(m.startswith("net arrays disagree: ") for m in messages)
    assert [m for m in messages if not any(m in t for t in twin)] == []
    literals = [_joined(run) for run in re.findall(_C_STRING, source)]
    parts = _twin_message_parts()
    assert "must be int64" in parts and any(p.startswith("net arrays disagree: ") for p in parts)
    assert [p for p in parts if not any(p in c for c in literals)] == []


# --- quantize ----------------------------------------------------------------


@needs_kernel
@pytest.mark.parametrize("dtype", [np.int64, np.int32])  # quantize_weights copies int32 rows to int64
def test_quantize_kernel_matches_numpy_on_skewed_rows(dtype):
    rng = Lcg64(5)
    for m in (2, 3, 255, 256, 257, 4096):
        for _ in range(20):
            # mostly small counts with a few large ones, as a count row looks
            row = np.array([1 + rng.below(4) ** rng.below(12) for _ in range(m)], dtype=dtype)
            assert np.array_equal(quantize_weights(row), twin_quantize(row)), (m, row)


def _near_multiples(m: int, copies: int, total: int, q: int, below: int) -> np.ndarray:
    """A row of m weights summing to about total in which each of the first
    copies weights w has w * free = q * total' - below exactly, free being
    2^16 - m and total' the row's total: a quotient that is an integer
    (below 0) or one unit of 1/total' short of one (below 1)."""
    free = PROB_SCALE - m
    if below:  # total' = q^-1 (mod free), so that q * total' - 1 is a multiple of free
        total -= (total - pow(q, -1, free)) % free
    else:  # total' a multiple of free
        total -= total % free
    w = (q * total - below) // free
    assert w * free == q * total - below and copies * w <= total
    row = np.zeros(m, dtype=np.int64)
    row[:copies] = w
    row[copies] = total - copies * w
    return row


def _spread(m: int, total: int) -> np.ndarray:
    """m weights, as even as they can be, summing to total."""
    row = np.full(m, total // m)
    row[: total % m] += 1
    return row


_BIG = (1 << 46) - 1  # the largest total quantize accepts
# rows where quantize is easiest to get wrong, each on the stack scratch
# (m <= 256) or the heap one (m > 256)
HARD_ROWS = {
    "m=2": np.array([1, 3]),
    "m=2, total 2^46-1": np.array([_BIG - 1, 1]),
    "m=2^16, all ones": np.ones(PROB_SCALE, dtype=np.int64),
    "m=2^16, skewed": np.arange(PROB_SCALE, dtype=np.int64) ** 2 // 2,
    "total 1, m=256": _spread(256, 1),
    "total 1, m=300": _spread(300, 1),
    "total 2^46-1, m=256": _spread(256, _BIG),
    "total 2^46-1, m=4096": _spread(4096, _BIG),
    "all equal, m=3": _spread(3, 15),
    "all equal, m=255": _spread(255, 255 << 37),
    "all equal, m=257": _spread(257, 257 * 7),
    "all equal, m=1000": _spread(1000, _BIG - _BIG % 1000),
    "no leftover, m=256": _spread(256, 256),
    "no leftover, m=4": _spread(4, 1 << 45),
    "no leftover, m=2^15": _spread(1 << 15, 1 << 15),
    "exact multiples, m=2": _near_multiples(2, 1, _BIG, 65408, 0),
    "exact multiples, m=256": _near_multiples(256, 200, _BIG, 255, 0),
    "exact multiples, m=300": _near_multiples(300, 3, _BIG, 20960, 0),
    "one below multiples, m=2": _near_multiples(2, 1, _BIG, 65533, 1),
    "one below multiples, m=256": _near_multiples(256, 128, _BIG, 509, 1),
    "one below multiples, m=300": _near_multiples(300, 3, _BIG, 21743, 1),
    "one below multiples, m=5000": _near_multiples(5000, 3, _BIG, 20001, 1),
    # too large and negative at once: the negative weight is what is reported
    "2^46 then negative": np.array([1 << 46, -1]),
    "sum 2^46 then negative": np.array([1 << 45, 1 << 45, -1]),
    "sum past 2^46 and negative": np.array([1 << 46, 1 << 46, -1]),
}


def _table_or_error(module, row: np.ndarray) -> bytes | tuple[type, str]:
    """module's table for row, or the type and message of the error it raises."""
    cum = np.empty(row.size + 1, dtype=np.int64)
    try:
        module.quantize(row, cum)
    except ValueError as exc:
        return type(exc), str(exc)
    return cum.tobytes()


def assert_quantize_matches_twin(module, row: np.ndarray) -> None:
    assert _table_or_error(module, row) == _table_or_error(_kernel_numpy, row)


@needs_kernel
@pytest.mark.parametrize("name", list(HARD_ROWS))
def test_quantize_kernel_matches_numpy_on_hard_rows(name):
    assert_quantize_matches_twin(kernel.load(), HARD_ROWS[name])


@st.composite
def _weight_rows(draw) -> np.ndarray:
    """Rows on either scratch path, of any magnitude up to past the total
    limit; drawn from a few values (many ties), spread, or with a negative."""
    m = draw(st.one_of(st.integers(2, 300), st.sampled_from([256, 257, 4096, PROB_SCALE])))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = 1 << draw(st.integers(0, 47))
    if draw(st.booleans()):
        row = gen.choice(gen.integers(0, high, draw(st.integers(1, 4))), m)
    else:
        row = gen.integers(0, high, m)
    if draw(st.integers(0, 9)) == 0:
        row[gen.integers(m)] = -draw(st.integers(1, 1 << 46))
    return row


@needs_kernel
@given(row=_weight_rows())
@settings(max_examples=300, deadline=None)
def test_quantize_kernel_matches_numpy_on_any_row(row):
    assert_quantize_matches_twin(kernel.load(), row)


@pytest.mark.parametrize("path", ["public", "numpy"])
def test_quantize_alphabet_range_and_total_limit(path, monkeypatch):
    if path == "numpy":
        pin_twin(monkeypatch)
    assert list(np.diff(quantize_weights(np.array([1, 3], dtype=np.int64)))) == oracle_largest_remainder([1, 3])
    assert (np.diff(quantize_weights(np.ones(PROB_SCALE, dtype=np.int64))) == 1).all()
    below = np.array([(1 << 46) - 2, 1], dtype=np.int64)
    assert quantize_weights(below)[-1] == PROB_SCALE
    for above in ([(1 << 46) - 1, 1], [1 << 46, 0], [1 << 62, 1 << 62, 1 << 62, 1 << 62]):
        with pytest.raises(ValueError, match="2\\^46"):
            quantize_weights(np.array(above, dtype=np.int64))


def test_quantize_kernel_rejects_what_would_break_its_buffers(step):
    bad_rows = [
        np.ones(PROB_SCALE + 1, dtype=np.int64),
        np.array([5], dtype=np.int64),
        np.array([3, -1, 2], dtype=np.int64),
        np.zeros(4, dtype=np.int64),
    ]
    for row in bad_rows:
        with pytest.raises(ValueError):
            quantize_weights(row)
    # a strided view is copied before it is handed over
    strided = np.arange(1, 21, dtype=np.int64)[::2]
    assert np.array_equal(quantize_weights(strided), twin_quantize(strided))


def test_quantize_weights_fills_the_table_it_is_given(step):
    row = np.array([5, 0, 9, 1, 1], dtype=np.int32)
    want = twin_quantize(row)
    fresh = quantize_weights(row)
    assert np.array_equal(fresh, want) and quantize_weights(row) is not fresh
    out = np.full(row.size + 1, -7, dtype=np.int64)
    assert quantize_weights(row, out=out) is out
    assert np.array_equal(out, want)
    read_only = np.full(row.size + 1, -7, dtype=np.int64)
    read_only.flags.writeable = False
    bad = {
        "wrong length": np.full(row.size + 2, -7, dtype=np.int64),
        "not int64": np.full(row.size + 1, -7, dtype=np.int32),
        "unsigned": np.full(row.size + 1, 7, dtype=np.uint64),
        "not contiguous": np.full(2 * row.size + 2, -7, dtype=np.int64)[::2],
        "read-only": read_only,
    }
    for name, out in bad.items():
        before = out.copy()
        with pytest.raises(ValueError):
            quantize_weights(row, out=out)
        assert np.array_equal(out, before), name


# (weights, cum) pairs that hold enough entries but are not one-dimensional
SHAPE_CASES = {
    "2-d cum": (np.array([1, 3]), np.zeros((1, 3), dtype=np.int64)),
    "2-d weights": (np.array([[1, 3], [2, 2]]), np.zeros(5, dtype=np.int64)),
    "0-d weights": (np.array(5), np.zeros(2, dtype=np.int64)),
    "both 2-d": (np.array([[1, 3]]), np.zeros((3, 1), dtype=np.int64)),
}


@pytest.mark.parametrize("name", list(SHAPE_CASES))
def test_quantize_rejects_arrays_that_are_not_one_dimensional(name, step):
    weights, cum = SHAPE_CASES[name]
    want = "cum" if weights.ndim == 1 else "weights"
    with pytest.raises(ValueError, match=f"^{want} must be one-dimensional$"):
        step.quantize(weights, cum)
    assert not cum.any()  # nothing written


def _payload_at(target: int) -> bytes:
    """A payload whose first symbol decodes at target (< 2^16) under any
    table: after the phantom byte, code = target << 16."""
    return b"\0" + (target << 16).to_bytes(4, "big") + bytes(8)


_ROW = np.arange(1, 257, dtype=np.int64)
_TABLE = twin_quantize(_ROW)
_NET_SIZES = (4096, 8, 2048, 256, 16, 272)  # emb, b1, w2, b2, softmax, buf for k = 2, w = 8


def test_kernel_checks_the_arrays_it_is_given():
    row, table = _ROW, _TABLE
    cum = np.empty(257, dtype=np.int64)
    for ext in dict.fromkeys(STEP_MODULES.values()):  # the twin once where nothing built
        enc, dec = ext.encoder(), ext.decoder(_payload_at(0))
        bad_calls = [
            (ext.encode, enc, table, 1 << 70),  # symbols past int64
            (ext.encode, enc, table, -(1 << 70)),
            (ext.decode, dec, np.zeros(1, dtype=np.int64)),  # no symbol at all
            (ext.decode, dec, table + 1),  # the target (0) below the table
            (ext.decode, ext.decoder(_payload_at(PROB_SCALE - 1)), table[:-1]),  # past it
            (ext.decode, dec, np.array([-1, 1, PROB_SCALE])),  # an interval outside [0, 2^16]
            (ext.decode, ext.decoder(_payload_at(9)), np.array([0, 5, 1 << 17])),
        ]
        for fn, *args in bad_calls:
            with pytest.raises(ValueError):
                fn(*args)
        ext.quantize(row, cum)
        assert np.array_equal(cum, twin_quantize(row))
        # the rejected calls left both coders as they were
        assert dec.cursor == 5 and ext.decode(dec, table) == 0
        ext.encode(enc, table, 5)
        assert ext.finish(enc) == _coded(_kernel_numpy, [table], [5])


def _valid_arguments(module, fn: str) -> list:
    """Arguments that fn of module accepts, the arrays fresh."""
    return {
        "quantize": lambda: [_ROW.copy(), np.full(257, -7, dtype=np.int64)],
        "encode": lambda: [module.encoder(), _TABLE.copy(), 5],
        "decode": lambda: [module.decoder(_payload_at(30_000)), _TABLE.copy()],
        "net": lambda: [np.full(size, 7, dtype=np.int64) for size in _NET_SIZES] + [ONE],
        "freq": lambda: [2, np.full(256, -7, dtype=np.int64)],
    }[fn]()


def _session_after(module, fn: str, args: list):
    """What the rest of a coding session makes of the state in args, so a
    state that a rejected call touched shows; None for a function without one."""
    if fn == "encode":
        module.encode(args[0], _TABLE, 5)
        return module.finish(args[0])
    if fn == "decode":
        return args[0].cursor, module.decode(args[0], _TABLE), args[0].cursor
    return None


def _contract_breakers(good: np.ndarray, written: bool) -> dict[str, tuple[np.ndarray, str | None]]:
    """Copies of the vector good that break the array contract one way
    each, with the reason get_array and _check give (None: a length the
    function itself rejects)."""
    breakers = {
        dtype: (good.astype(dtype), "must be int64") for dtype in ("int32", "uint64", "float64", ">i8")
    }
    breakers["2-d"] = good.reshape(1, -1).copy(), "must be one-dimensional"
    breakers["0-d"] = good[:1].reshape(()).copy(), "must be one-dimensional"
    breakers["strided"] = np.repeat(good, 2)[::2], "must be C-contiguous"
    breakers["empty"] = good[:0].copy(), None
    if written:
        read_only = good.copy()
        read_only.flags.writeable = False
        breakers["read-only"] = read_only, "must be writable"
    return breakers


# each function's array arguments: (function, position, name, whether it is written)
ARRAY_ARGUMENTS = [
    ("quantize", 0, "weights", False),
    ("quantize", 1, "cum", True),
    ("encode", 1, "cum", False),
    ("decode", 1, "cum", False),
    *(("net", i, name, name != "softmax") for i, name in enumerate(("emb", "b1", "w2", "b2", "softmax", "buf"))),
    ("freq", 1, "row", True),
]


@pytest.mark.parametrize(
    "fn, position, name, written", ARRAY_ARGUMENTS, ids=[f"{fn}-{name}" for fn, _, name, _ in ARRAY_ARGUMENTS]
)
def test_array_arguments_are_rejected_as_numpy(fn, position, name, written):
    good = _valid_arguments(_kernel_numpy, fn)[position]
    for kind, (bad, why) in _contract_breakers(good, written).items():
        outcomes = set()
        for module in dict.fromkeys(STEP_MODULES.values()):  # the twin once where nothing built
            args = _valid_arguments(module, fn)
            args[position] = bad
            before = [a.copy() for a in args if isinstance(a, np.ndarray)]
            with pytest.raises(Exception) as caught:
                getattr(module, fn)(*args)
            after = [a for a in args if isinstance(a, np.ndarray)]
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(after, before)), (kind, module)
            assert _session_after(module, fn, args) == _session_after(module, fn, _valid_arguments(module, fn))
            outcomes.add((type(caught.value), str(caught.value)))
        assert len(outcomes) == 1, (kind, outcomes)
        ((error, message),) = outcomes
        assert error is ValueError and (why is None or message == f"{name} {why}"), (kind, message)


def _call_outcome(module, fn: str, position: int, wrap) -> tuple:
    """fn of module on valid arguments, the one at position passed as
    wrap(it): the result where it is a number, and every array argument
    afterwards."""
    args = _valid_arguments(module, fn)
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    args[position] = wrap(args[position])
    result = getattr(module, fn)(*args)
    return (result if isinstance(result, int) else None), [a.tolist() for a in arrays]


def _ctypes_view(a: np.ndarray):
    return (ctypes.c_int64 * a.size).from_buffer(a)


@pytest.mark.parametrize(
    "fn, position, name, written", ARRAY_ARGUMENTS, ids=[f"{fn}-{name}" for fn, _, name, _ in ARRAY_ARGUMENTS]
)
def test_array_arguments_are_read_through_the_buffer_protocol_as_numpy(fn, position, name, written):
    # as get_array reads them: an int64 memoryview or ctypes array (format
    # '<q' on little-endian) is the vector it views (and written through),
    # and an object without a buffer is a TypeError
    want = _call_outcome(_kernel_numpy, fn, position, lambda a: a)
    for module in dict.fromkeys(STEP_MODULES.values()):
        assert _call_outcome(module, fn, position, memoryview) == want, module
        assert _call_outcome(module, fn, position, _ctypes_view) == want, module
        with pytest.raises(TypeError):
            _call_outcome(module, fn, position, np.ndarray.tolist)


# --- range coder -----------------------------------------------------------------


def _coded(module, tables, symbols) -> bytes:
    enc = module.encoder()
    for cum, sym in zip(tables, symbols):
        assert module.encode(enc, cum, sym) == cum[sym + 1] - cum[sym]
    return module.finish(enc)


def _decoded(module, payload: bytes, tables) -> tuple[tuple[int, ...], int | None, int]:
    """The symbols payload decodes to under tables, the index of the symbol
    at which it ran out (None if it did not) and the cursor at the end."""
    symbols = []
    try:
        dec = module.decoder(payload)
        for cum in tables:
            symbols.append(module.decode(dec, cum))
    except TruncatedStreamError as exc:
        assert str(exc) == f"payload exhausted at byte {len(payload)}; stream is truncated"
        return tuple(symbols), len(symbols), len(payload)
    return tuple(symbols), None, dec.cursor


def _decode_outcome(module, payload: bytes, cum: np.ndarray) -> int | tuple[type, str]:
    try:
        return module.decode(module.decoder(payload), cum)
    except ValueError as exc:
        return type(exc), str(exc)


def test_decode_searches_a_table_that_is_not_increasing_as_numpy():
    # bisection on such a table finds a symbol that depends on the entries
    # it probes; both step modules probe as searchsorted(side="right") does
    assert _decode_outcome(kernel.load(), _payload_at(30_000), np.array([0, 40_000, 100, PROB_SCALE])) == 2
    gen = np.random.default_rng(14)
    for _ in range(2000):
        m = int(gen.integers(2, 300))
        cum = quantize_weights(gen.integers(1, 1000, m))
        i, j = gen.integers(0, m + 1, 2)
        cum[[i, j]] = cum[[j, i]]
        payload = _payload_at(int(gen.integers(0, PROB_SCALE)))
        outcomes = {_decode_outcome(ext, payload, cum) for ext in dict.fromkeys(STEP_MODULES.values())}
        assert len(outcomes) == 1, (cum, payload)


def test_decoder_takes_only_bytes_like_payloads_as_numpy():
    symbols = list(range(0, 256, 7))
    tables = [_TABLE] * len(symbols)
    payload = _coded(_kernel_numpy, tables, symbols)
    words = np.frombuffer(payload + bytes(-len(payload) % 8), dtype=np.int64)  # its bytes, as int64
    for module in dict.fromkeys(STEP_MODULES.values()):
        with pytest.raises(TypeError):
            module.decoder(list(payload))
        with pytest.raises(ValueError):  # the payload must be one contiguous block
            module.decoder(np.frombuffer(payload, dtype=np.uint8).repeat(2)[::2])
        assert _decoded(module, words, tables) == (tuple(symbols), None, len(payload))


def test_decode_finds_the_symbol_holding_the_target():
    rng = Lcg64(11)
    for m in (2, 3, 256, 4096, PROB_SCALE):
        for _ in range(5):
            cum = quantize_weights(np.array([1 + rng.below(9) ** rng.below(8) for _ in range(m)]))
            # symbol boundaries and their left neighbours (a sample of them
            # for wide tables), random targets, and the target a corrupted
            # payload is clamped to (2^16 - 1)
            edges = np.concatenate([cum[:-1], cum[1:-1] - 1])[:: 1 + m // 1000]
            targets = [*map(int, edges), *(rng.below(PROB_SCALE) for _ in range(200))]
            payloads = [*map(_payload_at, targets), b"\0" + b"\xff" * 12]
            for payload in payloads:
                target = int.from_bytes(payload[1:5], "big") >> 16
                want = int(np.searchsorted(cum, target, side="right")) - 1
                for ext in dict.fromkeys(STEP_MODULES.values()):
                    assert ext.decode(ext.decoder(payload), cum) == want, (m, target)


def _tables(seed: int, alphabets: list[int]) -> list[np.ndarray]:
    """One table per alphabet size, from weights of random magnitude, zeros
    included."""
    gen = np.random.default_rng(seed)
    tables = []
    for m in alphabets:
        weights = gen.integers(0, 1 << int(gen.integers(1, 30)), m)
        weights[gen.integers(m)] += 1
        tables.append(quantize_weights(weights))
    return tables


_ALPHABETS = st.lists(st.integers(2, PROB_SCALE), min_size=1, max_size=3)


@given(alphabets=_ALPHABETS, seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300), data=st.data())
@settings(max_examples=80, deadline=None)
def test_extension_and_twin_code_the_same_bytes(alphabets, seed, n, data):
    tables = _tables(seed, alphabets)
    gen = np.random.default_rng(seed + 1)
    stream = [tables[i] for i in gen.integers(0, len(tables), n)]
    symbols = tuple(int(gen.integers(0, cum.size - 1)) for cum in stream)
    modules = dict.fromkeys(STEP_MODULES.values())
    payloads = {_coded(ext, stream, symbols) for ext in modules}
    assert len(payloads) == 1
    (payload,) = payloads
    for ext in modules:
        assert _decoded(ext, payload, stream) == (symbols, None, len(payload))
    # a valid stream reads its last byte, so any cut runs out, at one symbol on both
    cut = data.draw(st.integers(0, len(payload) - 1), label="cut")
    truncated = {_decoded(ext, payload[:cut], stream) for ext in modules}
    assert len(truncated) == 1
    ((read, ran_out, _),) = truncated
    assert ran_out is not None and read == symbols[:ran_out]


@given(
    alphabets=_ALPHABETS,
    seed=st.integers(0, 2**32 - 1),
    # all 0xFF after the phantom byte: the clamped target 2^16 - 1
    payload=st.one_of(st.binary(max_size=200), st.integers(0, 200).map(lambda k: b"\0" + b"\xff" * k)),
)
@settings(max_examples=80, deadline=None)
def test_extension_and_twin_decode_any_payload_alike(alphabets, seed, payload):
    tables = _tables(seed, alphabets)
    stream = [tables[i % len(tables)] for i in range(400)]
    results = {_decoded(ext, payload, stream) for ext in dict.fromkeys(STEP_MODULES.values())}
    assert len(results) == 1


@pytest.mark.parametrize("module", list(STEP_MODULES))
def test_encoder_rejects_a_bad_symbol_without_hanging(module):
    # an empty or negative width would renormalize forever, so the calls run
    # in a child process that a timeout ends
    if module == "extension" and STEP_MODULES[module] is _kernel_numpy:
        pytest.skip("the C extension did not build here")
    code = f"""
import numpy as np
from kolmozip import _kernel_numpy, coder, kernel
if {module!r} == "numpy":
    kernel.load = lambda: _kernel_numpy
table = coder.quantize_weights(np.ones(256, dtype=np.int64))
bad = [(table, -1), (table, 256), (np.array([0, 5, 5, 65536]), 1), (np.array([0, 5, 65537]), 1)]
enc = coder.RangeEncoder()
for cum, sym in bad:
    try:
        enc.encode_symbol(cum, sym)
    except ValueError:
        pass
    else:
        raise SystemExit(f"accepted {{sym}} under {{cum}}")
enc.encode_symbol(table, 7)
good = coder.RangeEncoder()
good.encode_symbol(table, 7)
assert enc.finish() == good.finish()
"""
    env = dict(os.environ, PYTHONPATH=str(Path(kernel.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()


# --- neural step ---------------------------------------------------------------


def _numpy_twin(config: PredictorConfig, monkeypatch) -> NeuralPredictor:
    with monkeypatch.context() as m:
        pin_twin(m)
        return NeuralPredictor(config)


NEURAL_CASES = [
    (8, 256, 1 << 20, 0, 256, 120),  # the documented extremes
    (8, 256, 1 << 20, 1, 256, 120),
    (1, 8, 1, 2, 256, 400),
    (3, 16, 1 << 13, 3, 5, 400),  # a stream of five byte values
]


def assert_steps_match_twin(module, context, width, lr, seed, symbols, steps, monkeypatch) -> None:
    config = PredictorConfig("neural", context=context, width=width, seed=seed, learning_rate=lr)
    with monkeypatch.context() as m:
        m.setattr(kernel, "load", lambda: module)
        fast = NeuralPredictor(config)
    ref = _numpy_twin(config, monkeypatch)
    assert fast._kernel is module and ref._kernel is _kernel_numpy
    rng = Lcg64(100 + seed)
    tok, seen = 0, bytearray()
    for step in range(steps):
        # sticky stream: the net learns, saturates and gets surprised
        tok = tok if rng.below(4) else rng.below(symbols)
        assert np.array_equal(fast.predict_weights(), ref.predict_weights()), step
        fast.update(tok)
        ref.update(tok)
        seen.append(tok)
        for name in ("emb", "b1", "w2", "b2"):
            assert np.array_equal(getattr(fast, name), getattr(ref, name)), (step, name)
        assert fast._net.context == ref._net.context == seen[-context:], step
    assert np.array_equal(final_layer_gradient(fast, 1), final_layer_gradient(ref, 1))
    assert fast.digest() == ref.digest()


@needs_kernel
@pytest.mark.parametrize("context, width, lr, seed, symbols, steps", NEURAL_CASES)
def test_neural_kernel_matches_numpy_step_by_step(
    context, width, lr, seed, symbols, steps, monkeypatch
):
    assert_steps_match_twin(kernel.load(), context, width, lr, seed, symbols, steps, monkeypatch)


def _one_short(q: int, total: int) -> np.ndarray:
    """256 weights summing to about total whose first w has w * 2^16 one
    short of q times the row's total: the quotient a reciprocal rounds up."""
    total -= (total - pow(q, -1, ONE)) % ONE  # q * total = 1 (mod 2^16)
    w = (q * total - 1) // ONE
    return np.concatenate([[w], _spread(255, total - w)])


def _plant(p: NeuralPredictor, row: np.ndarray) -> None:
    """Write row over p's forward pass: the weights that predict_weights()
    views read-only, in the buffer pre | hidden | weights the net writes."""
    p._weights.base[2 * p.w :] = row


def _guarded_net(module, monkeypatch) -> NeuralPredictor:
    config = PredictorConfig("neural", context=2, width=8, seed=6)
    with monkeypatch.context() as m:
        m.setattr(kernel, "load", lambda: module)
        p = NeuralPredictor(config)
    for tok in b"guard":
        p.update(tok)
    return p


# forward passes written over a net's own: net_grad divides every row that
# quantize's rule accepts, up to a total of 2^46 - 1, through div_total
DIVISION_ROWS = {
    "the net's own softmax weights": None,
    "total 2^46-1, spread": _spread(256, _BIG),
    "total 2^46-1, one weight": np.eye(1, 256, 9, dtype=np.int64)[0] * _BIG,
    "total 2^46-1, a quotient one short": _one_short(40503, _BIG),
}


def assert_division_matches_twin(module, row: np.ndarray | None, monkeypatch) -> None:
    """One update on row, written as the forward pass of the extension's
    net and of the twin's, leaves both with the same parameters."""
    fast, ref = _guarded_net(module, monkeypatch), _guarded_net(_kernel_numpy, monkeypatch)
    if row is not None:
        _plant(fast, row)
        _plant(ref, row)
    fast.update(7)
    ref.update(7)
    for name in ("emb", "b1", "w2", "b2", "_weights"):
        assert np.array_equal(getattr(fast, name), getattr(ref, name)), name


@needs_kernel
@pytest.mark.parametrize("name", list(DIVISION_ROWS))
def test_net_step_divides_on_both_sides_of_its_guard_as_numpy(name, monkeypatch):
    assert_division_matches_twin(kernel.load(), DIVISION_ROWS[name], monkeypatch)


# forward passes that quantize's rule rejects, and net_step with it
BAD_FORWARD_PASSES = {
    "a negative entry": np.where(np.arange(256) == 5, -1, 1 << 12),
    "all zeros": np.zeros(256, dtype=np.int64),
    "weights in [2^46, 2^47)": (1 << 46) + np.arange(256, dtype=np.int64) * (1 << 38),
}


@pytest.mark.parametrize("name", list(BAD_FORWARD_PASSES))
def test_net_step_rejects_the_rows_quantize_rejects_as_numpy(name, step, monkeypatch):
    row = BAD_FORWARD_PASSES[name]
    error = _table_or_error(_kernel_numpy, row)  # quantize's (type, message)
    assert isinstance(error, tuple)
    for module in dict.fromkeys((step, _kernel_numpy)):
        p = _guarded_net(module, monkeypatch)
        before = p.digest(), p._net.context, [a.copy() for a in (p.emb, p.b1, p.w2, p.b2)]
        _plant(p, row)
        with pytest.raises(ValueError) as caught:
            p.update(7)
        assert (type(caught.value), str(caught.value)) == error
        assert p.digest() == before[0] and p._net.context == before[1] == b"rd"
        assert all(np.array_equal(a, b) for a, b in zip((p.emb, p.b1, p.w2, p.b2), before[2]))


def test_neural_kernel_rejects_tokens_outside_the_alphabet(step):
    p = NeuralPredictor(PredictorConfig("neural", context=2, width=8))
    p.update(255)
    before = p.digest()
    for bad in (256, -1, 1 << 70, -(1 << 70)):
        with pytest.raises(ValueError, match=f"^token {bad} outside"):
            p.update(bad)
    arrays = [p.emb.reshape(-1), p.b1, p.w2.reshape(-1), p.b2, _SOFTMAX_TABLE, p._weights.base]
    # outside PredictorConfig's [1, 2^20], and past int64
    for lr in (0, -5, (1 << 20) + 1, 1 << 70, -(1 << 70)):
        with pytest.raises(ValueError, match=f"^learning rate {lr} outside"):
            p._kernel.net(*arrays, lr)
    for lr in (1, 1 << 20):  # bound to copies: a bound net writes its forward pass
        p._kernel.net(*(a.copy() for a in arrays), lr)
    arrays[3] = p.b2[:255].copy()
    with pytest.raises(ValueError):  # a net codes bytes: b2 needs 256 entries
        p._kernel.net(*arrays, p.lr)
    _plant(p, 0)  # a corrupted forward pass
    with pytest.raises(ValueError):
        p.update(1)
    assert p.digest() == before


# (emb, b1, w2, b2, softmax, buf) sizes for k = 2, w = 8 that do not agree
NET_SIZES = {
    "short emb": (4095, 8, 2048, 256, 16, 272),
    "long emb": (4104, 8, 2048, 256, 16, 272),
    "emb under one position": (2047, 8, 2048, 256, 16, 272),
    "short w2": (4096, 8, 2047, 256, 16, 272),
    "short b2": (4096, 8, 2048, 255, 16, 272),
    "long b2": (4096, 8, 2048, 257, 16, 272),
    "short buf": (4096, 8, 2048, 256, 16, 271),
    "zero width": (0, 0, 0, 256, 16, 256),
    "empty softmax": (4096, 8, 2048, 256, 0, 272),
}


@pytest.mark.parametrize("name", list(NET_SIZES))
def test_net_rejects_arrays_that_disagree_as_numpy(name, step):
    arrays = [np.zeros(size, dtype=np.int64) for size in NET_SIZES[name]]
    errors = set()
    for module in (step, _kernel_numpy):
        with pytest.raises(ValueError) as caught:
            module.net(*arrays, ONE)
        errors.add((type(caught.value), str(caught.value)))
    assert len(errors) == 1
    assert next(iter(errors))[1].startswith("net arrays disagree: ")


@needs_kernel
def test_net_and_freq_states_are_not_interchangeable():
    ext = kernel.load()
    net = NeuralPredictor(PredictorConfig("neural", context=2, width=8))._net
    freq = FreqPredictor(PredictorConfig("freq", order=2))._freq
    for fn, state in ((ext.net_step, freq), (ext.freq_step, net)):
        with pytest.raises(TypeError, match="^expected a kolmozip._kernel.(net|freq) state"):
            fn(state, 1)
    with pytest.raises(AttributeError):  # the context is the net's alone to move
        net.context = b"xy"


@needs_kernel
def test_net_state_keeps_its_arrays_alive(monkeypatch):
    config = PredictorConfig("neural", context=2, width=8, seed=5)
    p = NeuralPredictor(config)
    ext, net = p._kernel, p._net
    # the memory of each array: the net holds one-dimensional views of emb and w2
    held = [weakref.ref(a if a.base is None else a.base) for a in (p.emb, p.b1, p.w2, p.b2, p._weights)]
    del p
    gc.collect()
    assert all(r() is not None for r in held)
    ext.net_step(net, 9)  # steps arrays only the state still holds
    twin = _numpy_twin(config, monkeypatch)
    twin.update(9)
    want = (twin.emb, twin.b1, twin.w2, twin.b2, twin._weights.base)
    assert all(np.array_equal(r().ravel(), w.ravel()) for r, w in zip(held, want))
    assert net.context == twin._net.context == b"\x09"
    del net
    gc.collect()
    assert all(r() is None for r in held)  # released with the state


# --- freq step ---------------------------------------------------------------------


def _freq_streams() -> dict[str, bytes]:
    rng = Lcg64(21)
    return {
        "random": bytes(rng.below(256) for _ in range(8 << 10)),
        "constant": b"\x2a" * 70_000,  # every order's last context crosses a halving
        "text": pseudo_text(11, 16 << 10)[: 16 << 10],
    }


FREQ_STREAMS = _freq_streams()


def assert_freq_matches_twin(module, order: int, data: bytes, checkpoints: int) -> None:
    """Step module and twin side by side: the same row before the first step
    and after every one, and the same context and freq_state payload at
    checkpoints spread over data and at its end."""
    rows = [np.empty(256, dtype=np.int64) for _ in range(2)]
    fast, ref = module.freq(order, rows[0]), _kernel_numpy.freq(order, rows[1])
    every = max(1, len(data) // checkpoints)
    assert np.array_equal(rows[0], rows[1])
    for i, tok in enumerate(data, 1):
        module.freq_step(fast, tok)
        _kernel_numpy.freq_step(ref, tok)
        assert np.array_equal(rows[0], rows[1]), i
        if i % every == 0 or i == len(data):
            assert fast.context == ref.context == data[max(0, i - order) : i]
            assert module.freq_state(fast) == _kernel_numpy.freq_state(ref), i


@needs_kernel
@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("stream", list(FREQ_STREAMS))
def test_freq_kernel_matches_numpy_step_by_step(stream, order):
    assert_freq_matches_twin(kernel.load(), order, FREQ_STREAMS[stream], 8)


@needs_kernel
def test_freq_kernel_matches_numpy_across_table_growths():
    # about 50 000 distinct order-3 contexts: several hundred row blocks and
    # a table that doubles a dozen times
    gen = np.random.default_rng(8)
    assert_freq_matches_twin(kernel.load(), 3, gen.integers(0, 256, 50_000).astype(np.uint8).tobytes(), 3)


def test_freq_state_payload_is_sorted_as_python_sorts_bytes(step):
    # keys of every length whose bytes sort differently from their numbers
    data = b"\x00\x00\x01\xff\x00\x01\x00\x00\x00\xff\xff\x01"
    row = np.empty(256, dtype=np.int64)
    f = step.freq(3, row)
    for tok in data:
        step.freq_step(f, tok)
    payload, keys, pos = step.freq_state(f), [], 0
    while pos < len(payload):
        n = payload[pos]
        keys.append(payload[pos + 1 : pos + 1 + n])
        pos += 1 + n + 4 * 256
    assert pos == len(payload) and keys == sorted({data[max(0, i - 3) : i] for i in range(len(data))})


def _freq_outcome(module, f, row) -> tuple:
    return module.freq_state(f), f.context, row.tobytes()


def test_freq_rejects_bad_orders_and_tokens_as_numpy(step):
    for order in (-1, 4, 1 << 70):
        for module in (step, _kernel_numpy):
            with pytest.raises(ValueError, match=f"^freq order {order} outside \\[0, 3\\]$"):
                module.freq(order, np.empty(256, dtype=np.int64))
    row = np.empty(256, dtype=np.int64)
    f = step.freq(2, row)
    for tok in b"abcab":
        step.freq_step(f, tok)
    before = _freq_outcome(step, f, row)
    for bad in (256, -1, 1 << 70, -(1 << 70)):
        with pytest.raises(ValueError, match=f"^token {bad} outside the alphabet \\[0, 256\\)$"):
            step.freq_step(f, bad)
        assert _freq_outcome(step, f, row) == before


@pytest.mark.parametrize("spec", ["freq:2", "neural:2,8"])
def test_predictor_state_is_never_copied(spec, step):
    # a predictor's state exists only as the replay of its tokens: the step
    # module's states cannot be copied, so neither can the predictors
    p = make_predictor(PredictorConfig.from_spec(spec))
    for tok in b"hello, world":
        p.update(tok)
    with pytest.raises(TypeError):
        copy.deepcopy(p)
    with pytest.raises(TypeError):
        pickle.dumps(p)
    uniform = make_predictor(PredictorConfig("uniform"))
    assert pickle.loads(pickle.dumps(uniform)).digest() == copy.deepcopy(uniform).digest() == uniform.digest()


# --- whole artifacts -------------------------------------------------------------


@pytest.mark.parametrize("spec", ["uniform", "freq:2", "neural:2,16"])
def test_numpy_fallback_round_trip_is_byte_identical(spec, monkeypatch):
    data = generate(MarkovSpec(order=2, alphabet=8, concentration=5, seed=3), 3000) + b"abcab" * 200
    config = PredictorConfig.from_spec(spec)
    blob = serialize(compress(data, config)[0])
    with monkeypatch.context() as m:
        pin_twin(m)
        artifact, _ = compress(data, config)
        assert serialize(artifact) == blob
        assert decompress(deserialize(blob)) == data  # decoded without the kernel
    assert decompress(artifact) == data  # coded without it, decoded with it


# --- build ---------------------------------------------------------------------


def _src_files() -> set[str]:
    return {p.name for p in kernel.SOURCE.parent.iterdir()}


def test_no_compiler_falls_back_silently(monkeypatch, tmp_path):
    monkeypatch.setattr(kernel, "_find_compiler", lambda: None)
    monkeypatch.setattr(kernel, "_cache_dir", lambda: tmp_path / "cache")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel.build_and_load() is None
        kernel.load.cache_clear()
        try:
            assert kernel.load() is _kernel_numpy
        finally:
            kernel.load.cache_clear()  # the next load() builds as usual
    assert not (tmp_path / "cache").exists()


def test_failing_compiler_warns_once_and_falls_back(monkeypatch, tmp_path):
    fake = tmp_path / "cc"
    fake.write_text("#!/bin/sh\necho 'fatal error: no space left on device' >&2\nexit 1\n")
    fake.chmod(0o755)
    monkeypatch.setattr(kernel, "_find_compiler", lambda: str(fake))
    monkeypatch.setattr(kernel, "_cache_dir", lambda: tmp_path / "cache")
    with pytest.warns(RuntimeWarning) as record:
        assert kernel.build_and_load() is None
    assert len(record) == 1
    assert "no space left on device" in str(record[0].message)
    assert list((tmp_path / "cache").iterdir()) == []  # the temporary file is gone


@pytest.mark.parametrize("home", ["unknown", "relative"])
def test_no_absolute_cache_base_warns_once_and_writes_nothing(home, monkeypatch, tmp_path):
    # a compiler that would leave its output wherever it is pointed
    fake = tmp_path / "bin" / "cc"
    fake.parent.mkdir()
    fake.write_text('#!/bin/sh\nfor last; do :; done\necho junk > "$last"\n')
    fake.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setattr(kernel, "_find_compiler", lambda: str(fake))
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    if home == "relative":
        monkeypatch.setenv("HOME", "relhome")
    else:  # no HOME and no passwd entry, as for a container run as an arbitrary uid
        monkeypatch.delenv("HOME", raising=False)

        def no_entry(uid):
            raise KeyError(f"getpwuid(): uid not found: {uid}")

        monkeypatch.setattr(pwd, "getpwuid", no_entry)
    with pytest.warns(RuntimeWarning) as record:
        assert kernel.build_and_load() is None
    assert list(work.iterdir()) == []
    assert len(record) == 1
    assert "no cache" in str(record[0].message)


@needs_compiler
def test_build_publishes_one_library_and_never_writes_into_src(monkeypatch, tmp_path):
    before = _src_files()
    monkeypatch.setattr(kernel, "_cache_dir", lambda: tmp_path / "cache")
    lib = kernel.build_and_load()
    assert lib is not None
    names = [p.name for p in (tmp_path / "cache").iterdir()]
    assert len(names) == 1 and names[0].startswith("kernel-")
    assert _src_files() == before


@needs_kernel
def test_a_cache_file_that_will_not_load_is_built_again(monkeypatch, tmp_path):
    built = kernel.load().__file__
    targets = []

    def no_build(compiler, source, target):
        targets.append(target)
        raise OSError("not built")

    monkeypatch.setattr(kernel, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(kernel, "_compile", no_build)
    with pytest.warns(RuntimeWarning, match="not built"):
        assert kernel.build_and_load() is None
    [target] = targets
    # what a crash can leave at the key path: _compile publishes without fsync
    target.write_bytes(b"")
    monkeypatch.setattr(kernel, "_compile", lambda compiler, source, target: shutil.copyfile(built, target))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        module = kernel.build_and_load()
    assert module is not None and module.__file__ == str(target)
    assert target.stat().st_size > 0


def _compile_into(tmp_path: Path, source: bytes) -> Path:
    target = tmp_path / f"kernel{sysconfig.get_config_var('EXT_SUFFIX') or '.so'}"
    kernel._compile(kernel._find_compiler(), source, target)
    return target


def _clone_targets() -> tuple[str, ...]:
    """The target of each clone the source builds of the step's loops here."""
    if platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc":
        return ()
    return ("avx2", "default")


@needs_compiler
def test_kernel_compiles_warning_free_with_its_clones(tmp_path, monkeypatch):
    monkeypatch.setattr(kernel, "_FLAGS", (*kernel._FLAGS, "-Wall", "-Wextra", "-Werror"))
    library = _compile_into(tmp_path, kernel.SOURCE.read_bytes()).read_bytes()
    # an AVX2 clone of each of the step's loops, next to the baseline one; GCC
    # names a clone function.target, with every other character of the target
    # made "_"
    suffixes = [re.sub(r"\W", "_", target) for target in _clone_targets()]
    loops = ("forward", "net_grad", "quantize_scratch")
    clones = [f"{fn}.{suffix}".encode() for fn in loops for suffix in suffixes]
    assert all(clone in library for clone in clones)
    assert b"arch_x86_64_v4" not in library
    # the clone-free build: what aarch64, macOS and musl compile
    _single_isa_build(tmp_path / "plain", None)


def _cpu_flags() -> set[str]:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    flags = [line.split(":", 1)[1] for line in cpuinfo.splitlines() if line.startswith("flags")]
    return set(flags[0].split()) if flags else set()


def _single_isa_build(tmp_path: Path, target: str | None):
    """The kernel with VECTOR_CLONES made one plain target attribute, or
    nothing (the baseline code, as built where there are no clones), so that
    ISA's code runs whatever clone this CPU would pick."""
    source = kernel.SOURCE.read_bytes()
    switch = b"__has_attribute(target_clones)"
    assert source.count(switch) == 1
    source = source.replace(switch, b"0")
    if target:
        source = b'#define VECTOR_CLONES __attribute__((target("%s")))\n' % target.encode() + source
    library = _compile_into(tmp_path, source)
    assert b".resolver" not in library.read_bytes()
    return kernel._import(library)


def assert_build_matches_twin(module, monkeypatch) -> None:
    for row in HARD_ROWS.values():
        assert_quantize_matches_twin(module, row)
    for case in NEURAL_CASES:
        assert_steps_match_twin(module, *case, monkeypatch)
    for row in DIVISION_ROWS.values():
        assert_division_matches_twin(module, row, monkeypatch)


@needs_compiler
def test_clone_free_build_matches_numpy(tmp_path, monkeypatch):
    # where there are clones, the CPU runs one of them, and the extension's
    # tests hold only that one
    assert_build_matches_twin(_single_isa_build(tmp_path, None), monkeypatch)


# each clone's target attribute, and the cpuinfo flags the CPU needs to run it
CLONE_TARGETS = {"avx2": {"avx", "avx2"}}


@needs_compiler
@pytest.mark.parametrize("target", list(CLONE_TARGETS))
def test_each_clone_matches_numpy(target, tmp_path, monkeypatch):
    if target not in _clone_targets():
        pytest.skip(f"no {target} clone is built here")
    missing = CLONE_TARGETS[target] - _cpu_flags()
    if missing:
        pytest.skip(f"this CPU lacks {' '.join(sorted(missing))}")
    assert_build_matches_twin(_single_isa_build(tmp_path, target), monkeypatch)


@needs_compiler
def test_concurrent_first_builds_all_load(tmp_path):
    # more fresh interpreters than cores race to build into one empty cache
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(Path(kernel.__file__).parents[1]))
    code = (
        "import numpy as np; from kolmozip import _kernel_numpy, kernel, coder; "
        "assert kernel.load() is not _kernel_numpy; "
        "print(coder.quantize_weights(np.arange(1, 257, dtype=np.int64))[-1])"
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(3)
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err.decode()
        assert out.strip() == str(PROB_SCALE).encode()
    names = [p.name for p in (tmp_path / "kolmozip").iterdir()]
    assert len(names) == 1 and names[0].startswith("kernel-")
