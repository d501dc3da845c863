"""The C step kernel against its numpy twin, and the kernel build.

Every function of the extension must reproduce its twin in
``_kernel_numpy`` bit for bit, through one differential harness.
``Twins.call`` makes each call on the fast module, then on the twin, and
compares the outcome (the result, or the error's type and message) and
every state made so far: an encoder's registers (its payload when
finished), a decoder's cursor, a count table's ``freq_state``, context and
row, a net's arrays and context, the table either keeps once bound
(``keep_table``), and the call's array arguments.  A ValueError or
TypeError must leave all of them as they were.  ``Twins.settle`` carries
every state one step on and finishes every encoder, so that the registers
no view shows are compared too.  ``StepMachine``, a Hypothesis rule-based
state machine, drives random sessions through it: encoders, decoders over
payloads, their cuts and any bytes, count tables and nets (small k and w,
the extremes k = 8 and w = 256, and softmax tables ``net`` must refuse),
with valid and invalid tokens, tables bound mid-session beside unbound
states, rows written over a net's forward pass, and any array argument in a
form that breaks the array contract or through a buffer wrapper
(``FORMS``).  It runs against ``kernel.load()`` and the clone-free build.
Explicit cases (the hardest rows, guards and streams) go through the same
calls, those the step's loops are easiest to get wrong on against both
builds.  Both modules must also export the same functions, take the
same arguments and spell the same messages, and the build must be safe to
run concurrently and degrade to the twin when there is no working compiler.
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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, multiple, rule, run_state_machine_as_test

from kolmozip import _kernel_numpy, kernel
from kolmozip._kernel_numpy import COUNT_LIMIT
from kolmozip.coder import PROB_SCALE, quantize_weights
from kolmozip.errors import TruncatedStreamError
from kolmozip.pipeline import compress, decompress, deserialize, serialize
from kolmozip.predictors import _SOFTMAX_TABLE, ALPHABET, ONE, FreqPredictor, NeuralPredictor, PredictorConfig
from kolmozip.predictors import make_predictor
from kolmozip.rng import Lcg64
from kolmozip.sources import MarkovSpec, generate

from conftest import pseudo_text
from oracle import oracle_largest_remainder
from test_coder import twin_quantize

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
    exports |= {"freq", "freq_step", "freq_state", "keep_table"}
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
    assert required["keep_table"] == 2


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


# --- the harness -------------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


# ways to pass an array argument: each breaker of the array contract with
# the reason get_array and _check give (None: a length the function itself
# rejects), then the buffer wrappers, which view the array and write through
# (ctypes as format '<q' on little-endian), and a list, which has no buffer
# (NO_BUFFER)
BREAKERS = {
    "int32": "must be int64", "uint64": "must be int64", "float64": "must be int64", ">i8": "must be int64",
    "2-d": "must be one-dimensional", "0-d": "must be one-dimensional", "strided": "must be C-contiguous",
    "empty": None, "read-only": "must be writable",
}
FORMS = {
    **{dtype: lambda a, dtype=dtype: a.astype(dtype) for dtype in ("int32", "uint64", "float64", ">i8")},
    "2-d": lambda a: a.reshape(1, -1).copy(),
    "0-d": lambda a: np.full((), a[0] if a.size else 0, dtype=a.dtype),
    "strided": lambda a: np.repeat(a, 2)[::2],
    "empty": lambda a: a[:0].copy(),
    "read-only": _read_only,
    "memoryview": memoryview,
    "ctypes": lambda a: (ctypes.c_int64 * a.size).from_buffer(a),
    "list": np.ndarray.tolist,
}
NO_BUFFER = (TypeError, "a bytes-like object is required, not 'list'")
MAKERS = ("encoder", "decoder", "net", "freq")  # the functions that make a state
_ROW = np.arange(1, 257, dtype=np.int64)
_TABLE = twin_quantize(_ROW)


def _same(a, b) -> bool:
    """Whether two views (arrays, bytes and numbers, nested in tuples and
    lists) hold the same values; arrays are compared in place, uncopied."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return isinstance(b, (tuple, list)) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _name(fn, side) -> str:
    """fn's name and the file of side's module, for a failure's message."""
    return f"{fn if isinstance(fn, str) else fn.__name__} of {side.module.__file__}"


class Side:
    """One step module, the states made on it, each (kind, state, arrays),
    and the table each net or count table keeps, by handle, once bound."""

    def __init__(self, module):
        self.module, self.states, self.tables = module, [], {}

    def view(self, handle: int) -> tuple:
        """What is compared of a state: an encoder's registers, a decoder's
        cursor, a net's context and arrays, a count table's freq_state,
        context and row, and the table either keeps."""
        kind, state, arrays = self.states[handle]
        if kind == "encoder":
            return state.low, state.range
        if kind == "decoder":
            return (state.cursor,)
        held = (state.context, *arrays, self.tables.get(handle))
        return (self.module.freq_state(state), *held) if kind == "freq" else held

    def views(self) -> list:
        return [self.view(h) for h in range(len(self.states))]

    def call(self, fn, args: list) -> tuple:
        """fn on args: the result, or the error's type and message, and
        whether the error is one that must leave every state as it was."""
        try:
            return (getattr(self.module, fn)(*args) if isinstance(fn, str) else fn(self.module, *args)), False
        except AssertionError:  # a helper's own check
            raise
        except Exception as exc:
            return (type(exc), str(exc)), isinstance(exc, (ValueError, TypeError))


class Twins:
    """The same calls on fast step modules (builds of the extension) and on
    the twin, each fast one compared with the twin."""

    def __init__(self, *fast):
        self.sides = (*map(Side, fast), Side(_kernel_numpy))
        self.last = None  # the first fast side's outcome and array arguments in the last call
        self.apart = False  # whether a failed check has left the sides apart

    def call(self, fn, args_for, form=None):
        """fn(*args_for(side)) on each side, the twin last: fn names a step
        function, or is a function of the module and those arguments.
        form = (position, name) passes that argument through FORMS[name].
        Returns the outcome: the result (a new state's handle), or the
        error.  Each fast side must agree with the twin on it, on every
        state and on every array argument afterwards, and a ValueError or
        TypeError must leave them as they were: as the twin, not yet
        called, still has them."""
        self.apart = True
        *fast, (twin, twin_args, twin_arrays) = calls = [
            (side, *self._arguments(side, args_for, form)) for side in self.sides
        ]
        outs = []
        for side, args, arrays in fast:
            out, rejected = side.call(fn, args)
            untouched = not rejected or _same((side.views(), arrays), (twin.views(), twin_arrays))
            assert untouched, f"{_name(fn, side)} raised {out} after changing state"
            outs.append(out)
        twin_out, _ = twin.call(fn, twin_args)
        if fn in MAKERS and not any(isinstance(out, tuple) for out in (*outs, twin_out)):
            for (side, _, arrays), state in zip(calls, (*outs, twin_out)):
                side.states.append((fn, state, arrays))
            outs, twin_out = [len(twin.states) - 1] * len(outs), len(twin.states) - 1
        for (side, _, arrays), out in zip(fast, outs):
            name = _name(fn, side)
            assert out == twin_out, f"{name}: {out!r:.300} against the twin's {twin_out!r:.300}"
            differ = [h for h, (a, b) in enumerate(zip(side.views(), twin.views())) if not _same(a, b)]
            assert not differ, f"{name}: states {differ} differ from the twin's"
            assert _same(arrays, twin_arrays), f"{name}: its array arguments differ from the twin's"
        self.last, self.apart = (outs[0], fast[0][2]), False
        return outs[0]

    @staticmethod
    def _arguments(side, args_for, form) -> tuple[list, list]:
        """The arguments for side, one passed in a form if asked, and every
        array among them (the one in the form too, if it is an array)."""
        args = args_for(side)
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        if form:
            args[form[0]] = FORMS[form[1]](args[form[0]])
            arrays += [args[form[0]]] if isinstance(args[form[0]], np.ndarray) else []
        return args, arrays

    def settle(self) -> list:
        """Carry every state one step on, and finish every encoder, so that
        a register no view shows (an encoder's pending run and emitted
        bytes, a decoder's range and code) shows in the outcomes, which are
        returned; nothing where a failed check has left the sides apart."""
        if self.apart:
            return []
        outcomes = []
        for handle, (kind, _, _) in enumerate(self.sides[0].states):
            if kind == "encoder":
                outcomes += [self.encode(handle, _TABLE, 5), self.finish(handle)]
            elif kind == "decoder":
                outcomes.append(self.decode(handle, _TABLE))
            else:
                outcomes.append(getattr(self, f"{kind}_step")(handle, 7))
        return outcomes

    def snapshot(self) -> tuple:
        """The first fast side's last outcome, states and array arguments, as bytes."""
        out, arrays = self.last
        views = [[v.tobytes() if isinstance(v, np.ndarray) else v for v in view] for view in self.sides[0].views()]
        return out, views, [a.tobytes() for a in arrays]

    def state(self, handle: int):
        """The first fast side's state object."""
        return self.sides[0].states[handle][1]

    def quantize(self, row, form=None):
        row = np.asarray(row)
        return self.call("quantize", lambda s: [row.copy(), np.full(row.size + 1, -7, dtype=np.int64)], form)

    def encoder(self):
        return self.call("encoder", lambda s: [])

    def encode(self, enc: int, cum, sym: int, form=None):
        return self.call("encode", lambda s: [s.states[enc][1], np.array(cum, dtype=np.int64), sym], form)

    def finish(self, enc: int):
        return self.call("finish", lambda s: [s.states[enc][1]])

    def decoder(self, payload):
        return self.call("decoder", lambda s: [payload])

    def decode(self, dec: int, cum, form=None):
        return self.call("decode", lambda s: [s.states[dec][1], np.array(cum, dtype=np.int64)], form)

    def net(self, k=2, w=8, seed=0, lr=ONE, softmax=_SOFTMAX_TABLE.size, off=None, form=None, table=None):
        """A net of context k and width w, its parameters drawn from seed,
        each array up to a bound from 0.5 to the clip, 8.0, and the first
        softmax entries of the predictor's table, or the table given; off =
        (i, d) makes array i (emb, b1, w2, b2, softmax, buf) d longer."""

        gen = np.random.default_rng(seed)
        sizes = (k * ALPHABET * w, w, w * ALPHABET, ALPHABET)
        bounds = [_kernel_numpy.WEIGHT_CLIP >> int(gen.integers(0, 5)) for _ in sizes]
        made = [gen.integers(-bound, bound + 1, n) for n, bound in zip(sizes, bounds)]
        made += [_SOFTMAX_TABLE[:softmax] if table is None else np.asarray(table, dtype=np.int64)]
        made += [np.zeros(2 * w + ALPHABET, dtype=np.int64)]
        if off:
            made[off[0]] = np.resize(made[off[0]], max(0, made[off[0]].size + off[1]))
        return self.call("net", lambda s: [*(a.copy() for a in made), lr], form)

    def net_step(self, net: int, token: int):
        return self.call("net_step", lambda s: [s.states[net][1], token])

    def plant(self, net: int, row) -> None:
        """Write row over a net's forward pass: the weights net_step trains on."""
        for side in self.sides:
            buf = side.states[net][2][5]
            buf[buf.size - ALPHABET :] = row

    def freq(self, order=2, size=ALPHABET, form=None):
        return self.call("freq", lambda s: [order, np.full(size, -7, dtype=np.int64)], form)

    def freq_step(self, f: int, token: int):
        return self.call("freq_step", lambda s: [s.states[f][1], token])

    def keep_table(self, handle: int, form=None):
        """Bind a fresh cum (all -7) to a net or count table; from a
        successful call on, each side's view of the state holds it."""
        cums = {}

        def arguments(side) -> list:
            cums[side] = np.full(ALPHABET + 1, -7, dtype=np.int64)
            return [side.states[handle][1], cums[side]]

        out = self.call("keep_table", arguments, form)
        if out is None:
            for side in self.sides:
                side.tables[handle] = cums[side]
        return out

    def run(self, handle: int, tokens) -> tuple:
        """A net's or count table's step on each of tokens, in one call."""

        def arguments(side) -> list:
            kind, state, arrays = side.states[handle]
            # the row each step leaves: a net's forward pass, a table's row
            row = arrays[5][-ALPHABET:] if kind == "net" else arrays[0]
            return [f"{kind}_step", state, row, side.tables.get(handle), tokens]

        return self.call(_run, arguments)


def _run(module, fn: str, state, row: np.ndarray, table, tokens) -> tuple:
    """fn on state for each token up to the first error: a running hash of
    row and of the kept table (None while unbound) after every step, so that
    either differing at any step shows, the number of steps made and the
    error's message (None if there was none)."""
    digest = 0
    for made, tok in enumerate(tokens):
        try:
            getattr(module, fn)(state, tok)
        except ValueError as exc:  # the forward pass of a net's last step, rejected
            return digest, made, str(exc)
        digest = hash((digest, row.tobytes(), None if table is None else table.tobytes()))
    return digest, len(tokens), None


_LIMIT = 1 << 37  # the row limit: quantize and net_step refuse a total this large
# the most weights other than one in a row the extension's quantize_grouped takes
GROUPED_LIMIT = int(re.search(rb"#define GROUPED_LIMIT (\d+)", kernel.SOURCE.read_bytes())[1])


def _count_row(gen: np.random.Generator, m: int, k: int) -> np.ndarray:
    """A count row: m ones, k of them (at most m) replaced by draws below a
    random power of two up to 2^16 (ties when low), a draw of 1 becoming 0:
    counts and the zeros quantize_grouped also takes."""
    k = min(k, m)
    row = np.ones(m, dtype=np.int64)
    counts = gen.integers(0, 1 << int(gen.integers(2, 17)), k)
    row[gen.choice(m, k, replace=False)] = np.where(counts == 1, 0, counts)
    return row


@st.composite
def _weight_rows(draw) -> np.ndarray:
    """Rows of 256 weights of any magnitude up to past the row limit, 2^37;
    drawn from a few values (many ties), spread, count rows with up to two
    more counts than quantize_grouped takes, or with a negative."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = 1 << draw(st.integers(0, 38))
    shape = draw(st.sampled_from(["few", "spread", "counts"]))
    if shape == "few":
        row = gen.choice(gen.integers(0, high, draw(st.integers(1, 4))), ALPHABET)
    elif shape == "spread":
        row = gen.integers(0, high, ALPHABET)
    else:
        row = _count_row(gen, ALPHABET, draw(st.integers(0, GROUPED_LIMIT + 2)))
    if draw(st.integers(0, 9)) == 0:
        row[gen.integers(ALPHABET)] = -draw(st.integers(1, _LIMIT))
    return row


def _any_table(gen: np.random.Generator, m: int) -> np.ndarray:
    """The table of m weights of random magnitude, zeros included, whose
    total stays below the row limit (twin_quantize: the twin's or, for
    another alphabet than 256, the oracle's)."""
    weights = gen.integers(0, 1 << int(gen.integers(1, min(30, 38 - m.bit_length()))), m)
    weights[gen.integers(m)] += 1
    return twin_quantize(weights)


@st.composite
def _tables(draw) -> np.ndarray:
    """A table for any alphabet (_any_table) or of a count row
    (_count_row), or a broken one: two entries swapped, every entry
    shifted, or one entry overwritten."""
    m = draw(st.one_of(st.integers(2, 300), st.sampled_from([256, 4096, PROB_SCALE])))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cum = _any_table(gen, m)
    else:
        cum = twin_quantize(_count_row(gen, m, draw(st.integers(0, GROUPED_LIMIT + 2))))
    i, j = gen.integers(0, m + 1, 2)
    broken = draw(st.sampled_from([None, None, "swap", "shift", "poke"]))
    if broken == "swap":
        cum[[i, j]] = cum[[j, i]]
    elif broken == "shift":
        cum += int(gen.integers(-PROB_SCALE, PROB_SCALE + 1))
    elif broken == "poke":
        cum[i] = gen.integers(-2 * PROB_SCALE, 2 * PROB_SCALE + 1)
    return cum


def _forms(*positions: int):
    """A valid call half the time, else one array argument passed in one of
    FORMS; one draw either way."""
    forms = [(position, name) for position in positions for name in FORMS]
    return st.sampled_from([None] * len(forms) + forms)


# a token outside the alphabet, or none
_BAD_TOKENS = st.sampled_from([None, None, None, ALPHABET, -1, 1 << 70, -(1 << 70)])

_SOFTMAX_LIMIT = _LIMIT // ALPHABET  # 2^29: 256 entries below it total below 2^37
# softmax tables net() must refuse, each with its fault, then tables it takes
# whose forward passes are the extremes of quantize's rule
BAD_SOFTMAX_TABLES = {
    "all zeros": [0, 0, 0],
    "first entry zero": [0, 5, 3],
    "a negative entry": [9, 4, -1],
    "first entry negative": [-1],
    "an entry at 2^29": [1, _SOFTMAX_LIMIT],
    "first entry at 2^29": [_SOFTMAX_LIMIT, 1],
    "an entry at 2^38": [1, 1 << 38],
    "first entry at 2^38": [1 << 38, 1],
    "an entry past int64's half": [1, 1 << 62],
}
GOOD_SOFTMAX_TABLES = {
    "one entry of 1": [1],
    "entries just below 2^29": [_SOFTMAX_LIMIT - 1] * 3,  # a forward pass totals 2^37 - 256
    "zeros after the first": [7, 0, 0, 0],
}


def _made(handle):
    """A new state's handle for its bundle, or nothing where the call failed."""
    return handle if isinstance(handle, int) else multiple()


class StepMachine(RuleBasedStateMachine):
    """Random sessions of step calls, each made on both sides by Twins."""

    fast = _kernel_numpy  # the module held to the twin, set by run_machine

    encoders = Bundle("encoders")
    payloads = Bundle("payloads")
    decoders = Bundle("decoders")
    nets = Bundle("nets")
    freqs = Bundle("freqs")

    def __init__(self):
        super().__init__()
        self.twins = Twins(self.fast)

    @rule(row=_weight_rows(), form=_forms(0, 1))
    def quantize(self, row, form):
        self.twins.quantize(row, form)

    @rule(target=encoders)
    def encoder(self):
        return self.twins.encoder()

    # a symbol of the table, one past it, or outside int64
    @rule(enc=encoders, cum=_tables(), sym=st.integers(0, PROB_SCALE) | st.sampled_from([-1, 1 << 70]), form=_forms(1))
    def encode(self, enc, cum, sym, form):
        self.twins.encode(enc, cum, sym % cum.size if 0 <= sym <= PROB_SCALE else sym, form)

    @rule(target=payloads, enc=encoders)
    def finish(self, enc):
        return self.twins.finish(enc)

    # a finished payload, any bytes, or all 0xFF after the phantom byte: the
    # target a corrupted payload is clamped to
    @rule(
        target=decoders,
        payload=payloads | st.binary(max_size=40) | st.integers(0, 40).map(lambda k: b"\0" + b"\xff" * k),
        cut=st.integers(0, 6),
    )
    def decoder(self, payload, cut):
        return _made(self.twins.decoder(payload[: max(0, len(payload) - cut)]))

    @rule(dec=decoders, cum=_tables(), form=_forms(1))
    def decode(self, dec, cum, form):
        self.twins.decode(dec, cum, form)

    @rule(
        target=nets,
        shape=st.sampled_from([(1, 1), (1, 8), (2, 3), (3, 16), (8, 2), (2, 256)]),  # (k, w)
        seed=st.integers(0, 2**32 - 1),
        lr=st.sampled_from([1, ONE, 1 << 20, 0, (1 << 20) + 1, -(1 << 70)]) | st.integers(1, 1 << 20),
        softmax=st.sampled_from([_SOFTMAX_TABLE.size, 1, 2, 300, 0]),
        off=st.none() | st.tuples(st.integers(0, 5), st.sampled_from([-1, 1])),
        form=_forms(0, 1, 2, 3, 4, 5),
        table=st.sampled_from([None] * 4 + [*BAD_SOFTMAX_TABLES.values(), *GOOD_SOFTMAX_TABLES.values()]),
    )
    def net(self, shape, **arguments):
        return _made(self.twins.net(*shape, **arguments))

    @rule(net=nets, tokens=st.binary(min_size=1, max_size=40), bad=_BAD_TOKENS)
    def net_step(self, net, tokens, bad):
        self.twins.run(net, tokens)
        if bad is not None:
            self.twins.net_step(net, bad)

    @rule(net=nets, row=_weight_rows())
    def plant(self, net, row):
        self.twins.plant(net, row)

    # bound after whatever steps the state has made, beside unbound states
    @rule(state=nets | freqs, form=_forms(1))
    def keep_table(self, state, form):
        self.twins.keep_table(state, form)

    @rule(
        target=freqs,
        order=st.integers(-1, 4) | st.just(1 << 70),
        size=st.sampled_from([ALPHABET, ALPHABET, 0, 255, 257]),
        form=_forms(1),
    )
    def freq(self, order, size, form):
        return _made(self.twins.freq(order, size, form))

    @rule(f=freqs, tokens=st.binary(min_size=1, max_size=100), bad=_BAD_TOKENS)
    def freq_step(self, f, tokens, bad):
        self.twins.run(f, tokens)
        if bad is not None:
            self.twins.freq_step(f, bad)

    def teardown(self):
        self.twins.settle()


def run_machine(module, examples: int) -> None:
    """StepMachine holding module to the twin over examples random sessions."""
    machine = type("StepMachine", (StepMachine,), {"fast": module})
    options = settings(
        max_examples=examples, stateful_step_count=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    run_state_machine_as_test(machine, settings=options)


# --- explicit cases: quantize ----------------------------------------------------


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


def _ones_and(count: int, at: int, m: int = 256) -> np.ndarray:
    """A count row: ones, and count at index at."""
    row = np.ones(m, dtype=np.int64)
    row[at] = count
    return row


def _ones_with(counts: dict[int, int], m: int = 256) -> np.ndarray:
    """A count row: ones, and counts[i] at each index i."""
    row = np.ones(m, dtype=np.int64)
    row[list(counts)] = list(counts.values())
    return row


def _grouped_case(row: np.ndarray) -> tuple:
    """How the extension settles row's leftover slots.  On quantize_grouped
    (at most GROUPED_LIMIT weights other than one): ("no leftover",), or
    ("cut", i, "one" or "count") where the threshold falls among the
    remainders equal to the ones' r1 and the winners there, by index, end
    at row[i].  Any other row takes the dense path: ("dense", i) where the
    threshold falls among the remainders equal to leftover_threshold's
    pivot and the winners there end at row[i], else ("dense",)."""
    m, others = row.size, np.flatnonzero(row != 1)
    free, total = PROB_SCALE - row.size, int(row.sum())
    base, rem = np.divmod(row * free, total)
    leftover = free - int(base.sum())
    if others.size <= GROUPED_LIMIT:
        r1 = free % total
        above, equal = int((rem > r1).sum()), np.flatnonzero(rem == r1)
        if not leftover:
            return ("no leftover",)
        if above < leftover <= above + equal.size:
            cut = int(equal[leftover - above - 1])
            return ("cut", cut, "one" if row[cut] == 1 else "count")
    pivot = int(np.median(rem[[0, m // 2, m - 1]]))
    above, equal = int((rem > pivot).sum()), np.flatnonzero(rem == pivot)
    if above < leftover <= above + equal.size:
        return ("dense", int(equal[leftover - above - 1]))
    return ("dense",)


_BIG = _LIMIT - 1  # the largest total quantize accepts
# rows of 256 weights where quantize is easiest to get wrong
HARD_ROWS = {
    # count rows (GROUPED_CASES): the ones share a remainder, and the
    # leftover slots' threshold falls among them, cut at the first one (one
    # of them wins) or at the last (all of them do), which quantize_grouped
    # settles, or among the counts above or below it, which it leaves to
    # the dense path
    "255 ones and a large count": _ones_and(60_000, 100),
    "255 ones and a count past 2^16": _ones_and(1 << 20, 255),
    "ones cut at the first, after a 2": _ones_and(2, 0),
    "ones cut at the last, after a 418": _ones_and(418, 0),
    "ones cut at the last, before a 418": _ones_and(418, 255),
    "ones cut at index 0, before a 2": _ones_with({45: 2}),
    "ones cut at index 255, two counts": _ones_with({62: 16215, 65: 16257}),
    "ones and counts cut at a count": _ones_with({25: 39, 52: 12, 214: 19}),
    "no leftover, ones and a 255": _ones_with({7: 255}),
    "no leftover, ones and two counts": _ones_with({133: 261, 165: 573}),
    "leftover above the ones": _ones_with({38: 64825}),
    "leftover above the ones, a tie split by index": _ones_with({56: 24972, 89: 24972, 161: 15004}),
    "leftover below the ones": _ones_with({88: 41513, 221: 23566}),
    "leftover below the ones, a tie split by index": _ones_with({160: 129, 215: 129, 233: 878}),
    "a count of 2^16-1": _ones_with({40: COUNT_LIMIT - 1, 41: 2}),
    "just after a halving": _ones_with({3: 4, 200: COUNT_LIMIT // 2}),
    "counts at the limit": _ones_with({6 * i + 3: 1000 + 37 * i for i in range(GROUPED_LIMIT)}),
    # one count past the limit: the dense path, and its pivot group (the
    # ones) cut at the first and the last
    "counts one past the limit": _ones_with({6 * i + 3: 1000 + 37 * i for i in range(GROUPED_LIMIT + 1)}),
    "ones cut at the first, past the limit": _ones_with(dict.fromkeys(range(1, GROUPED_LIMIT + 2), 199)),
    "ones cut at the last, past the limit": _ones_with(dict.fromkeys(range(1, GROUPED_LIMIT + 2), 318)),
    "all equal, m=256": _spread(256, 256 * 9),
    # the threshold away from a median-of-three pivot, above it and below
    "distinct, m=256": np.arange(256, dtype=np.int64) ** 3 + 7,
    "distinct reversed, m=256": np.arange(256, 0, -1, dtype=np.int64) ** 3 + 7,
    # the row limit: totals on either side of 2^37, the quotient of every
    # weight one short of an integer (below 1) or not
    "total 2^37-1, spread, m=256": _spread(256, _BIG),
    "total 2^37, spread, m=256": _spread(256, _LIMIT),
    "total 2^37-1, exact multiples, m=256": _near_multiples(256, 200, _BIG, 200, 0),
    "weights 2^31-1 and 2^31, m=256": _ones_and((1 << 31) - 1, 3) + _ones_and(1 << 31, 200) - 1,
    "total 1, m=256": _spread(256, 1),
    "no leftover, m=256": _spread(256, 256),
    "exact multiples, m=256": _near_multiples(256, 200, _BIG, 255, 0),
    "one below multiples, m=256": _near_multiples(256, 128, _BIG, 509, 1),
    # far past the row limit
    "total 2^46-1, m=256": _spread(256, (1 << 46) - 1),
}


# the hard rows and division rows the row rule refuses; every other one is
# divided, so none of them passes only by being refused on both sides
REFUSED_ROWS = {
    "total 2^37, spread, m=256", "total 2^46-1, m=256", "total 2^37, spread", "total 2^46-1, spread",
    "total 2^46-1, one weight", "total 2^46-1, a quotient one short",
}


# the case each count row among the hard rows reaches
GROUPED_CASES = {
    "255 ones and a large count": ("cut", 20, "one"),
    "255 ones and a count past 2^16": ("cut", 14, "one"),
    "ones cut at the first, after a 2": ("cut", 1, "one"),
    "ones cut at the last, after a 418": ("cut", 255, "one"),
    "ones cut at the last, before a 418": ("cut", 254, "one"),
    "ones cut at index 0, before a 2": ("cut", 0, "one"),
    "ones cut at index 255, two counts": ("cut", 255, "one"),
    "ones and counts cut at a count": ("cut", 25, "count"),
    "no leftover, ones and a 255": ("no leftover",),
    "no leftover, ones and two counts": ("no leftover",),
    "leftover above the ones": ("dense",),
    "leftover above the ones, a tie split by index": ("dense",),
    "leftover below the ones": ("dense",),
    "leftover below the ones, a tie split by index": ("dense",),
    "a count of 2^16-1": ("cut", 255, "one"),
    "just after a halving": ("cut", 250, "one"),
    "counts at the limit": ("cut", 4, "one"),
    "counts one past the limit": ("dense", 46),
    "ones cut at the first, past the limit": ("dense", 0),
    "ones cut at the last, past the limit": ("dense", 255),
    "no leftover, m=256": ("no leftover",),
}


def test_count_hard_rows_reach_the_case_they_name():
    assert {name: _grouped_case(HARD_ROWS[name]) for name in GROUPED_CASES} == GROUPED_CASES
    # the tied counts get different slots: the lower index wins
    for side in ("above", "below"):
        row = HARD_ROWS[f"leftover {side} the ones, a tie split by index"]
        tied = np.flatnonzero(row == row[np.flatnonzero(row > 1)[0]])
        widths = np.diff(twin_quantize(row))[tied]
        assert widths.size == 2 and widths[0] == widths[1] + 1


@needs_kernel
@pytest.mark.parametrize("name", list(HARD_ROWS))
def test_quantize_kernel_matches_numpy_on_hard_rows(name, builds):
    outcome = Twins(*builds.values()).quantize(HARD_ROWS[name])
    assert (outcome is not None) == (name in REFUSED_ROWS), outcome


# two cases the hard rows had only at other lengths, drawn at 256: every
# quotient 255 exactly, which w * (1/total) in doubles puts one under; and
# weights too large with a negative among them, which is what is reported
@needs_kernel
def test_quantize_kernel_matches_numpy_on_cases_redrawn_at_256(builds):
    t = Twins(*builds.values())
    assert t.quantize(_spread(256, 256 * 49)) is None
    too_large = np.where(np.arange(256) == 255, -1, 1 << 56)
    assert t.quantize(too_large) == (ValueError, "weights must be nonnegative with one positive")


# the hard rows of other lengths, from when quantize took 2 to 2^16 weights,
# under the names they had there
OTHER_LENGTH_ROWS = {
    "total 2^37-1, one below multiples, m=2": _near_multiples(2, 1, _BIG, 3, 1),
    "total 2^37-1, one below multiples, m=300": _near_multiples(300, 3, _BIG, 101, 1),
    "total 2^37, one below multiples, m=2": _near_multiples(2, 1, _LIMIT + 65533, 65533, 1),
    "total 2^37-2, m=3": np.array([(1 << 36) - 1, (1 << 36) - 2, 1]),
    "m=2": np.array([1, 3]),
    "m=2, total 2^37-1": np.array([_BIG - 1, 1]),
    "m=2^16, all ones": np.ones(PROB_SCALE, dtype=np.int64),
    "m=2^16, skewed": np.arange(PROB_SCALE, dtype=np.int64) ** 2 >> 10,
    "total 1, m=300": _spread(300, 1),
    "total 2^37-1, m=4096": _spread(4096, _BIG),
    "all equal, m=3": _spread(3, 15),
    "all equal, m=255": _spread(255, 255 << 29),
    "all equal, m=257": _spread(257, 257 * 7),
    "all equal, m=1000": _spread(1000, _BIG - _BIG % 1000),
    "all equal, m=2, a quotient the reciprocal puts one under": _spread(2, 2 * 21799),
    "no leftover, m=4": _spread(4, 1 << 36),
    "no leftover, m=2^15": _spread(1 << 15, 1 << 15),
    "exact multiples, m=2": _near_multiples(2, 1, _BIG, 65408, 0),
    "exact multiples, m=300": _near_multiples(300, 3, _BIG, 20960, 0),
    "one below multiples, m=2": _near_multiples(2, 1, _BIG, 65533, 1),
    "one below multiples, m=300": _near_multiples(300, 3, _BIG, 21743, 1),
    "one below multiples, m=5000": _near_multiples(5000, 3, _BIG, 20001, 1),
    "m=2, total 2^46-1": np.array([(1 << 46) - 2, 1]),
    "total 2^46-2, m=3": np.array([(1 << 45) - 1, (1 << 45) - 2, 1]),
    "total 2^46-1, m=4096": _spread(4096, (1 << 46) - 1),
    "2^46 then negative": np.array([1 << 46, -1]),
    "sum 2^46 then negative": np.array([1 << 45, 1 << 45, -1]),
    "sum past 2^46 and negative": np.array([1 << 46, 1 << 46, -1]),
}


# each is refused for its length, on every build as on the twin, and before
# the row rule: those it took and those it refused alike, the cum untouched
@needs_kernel
@pytest.mark.parametrize("name", list(OTHER_LENGTH_ROWS))
def test_quantize_refuses_the_hard_rows_of_other_lengths(name, builds):
    row = OTHER_LENGTH_ROWS[name]
    assert row.dtype == np.int64 and row.size != ALPHABET
    assert Twins(*builds.values()).quantize(row) == (ValueError, "weights must hold 256 entries")


# StepMachine's quantize rule draws from the same rows, about 200 a run
@needs_kernel
@given(row=_weight_rows())
@settings(max_examples=100, deadline=None)
def test_quantize_kernel_matches_numpy_on_any_row(row):
    Twins(kernel.load()).quantize(row)


@needs_kernel
@pytest.mark.parametrize("dtype", [np.int64, np.int32])  # quantize reads int64 rows only
def test_quantize_kernel_matches_numpy_on_skewed_rows(dtype):
    rng = Lcg64(5)
    for _ in range(100):
        # mostly small counts with a few large ones, as a count row looks
        row = np.array([1 + rng.below(4) ** rng.below(12) for _ in range(ALPHABET)], dtype=dtype)
        outcome = Twins(kernel.load()).quantize(row)
        assert outcome == (None if dtype == np.int64 else (ValueError, "weights must be int64")), row


@pytest.mark.parametrize("path", ["public", "numpy"])
def test_quantize_takes_256_weights_below_the_total_limit(path, monkeypatch):
    if path == "numpy":
        pin_twin(monkeypatch)
    assert list(np.diff(quantize_weights(_ROW))) == oracle_largest_remainder(_ROW)
    below = _ones_and(_LIMIT - ALPHABET, 0)  # a total of 2^37 - 1
    assert quantize_weights(below)[-1] == PROB_SCALE
    for above in (_ones_and(_LIMIT - 255, 0), _spread(256, _LIMIT), _spread(256, (1 << 46) - 1), np.full(256, 1 << 62)):
        with pytest.raises(ValueError, match="^weight total too large; rescale below 2\\^37$"):
            quantize_weights(above)
    for size in (0, 2, 255, 257, PROB_SCALE):
        with pytest.raises(ValueError, match="^weights must hold 256 entries$"):
            quantize_weights(np.ones(size, dtype=np.int64))
    # no predictor comes near the limit: its largest rows, 256 counts below
    # the count limit or 256 entries of the softmax table, total 2^24 at most
    for top in (_kernel_numpy.COUNT_LIMIT - 1, int(_SOFTMAX_TABLE.max())):
        assert 256 * top << 13 <= _LIMIT


def test_quantize_kernel_rejects_what_would_break_its_buffers(step):
    # (weights, cum) lengths other than (256, 257): the weights are checked
    # first, after the array contract and before the row rule
    wrong = {(255, 256): "weights", (255, 257): "weights", (257, 257): "weights", (257, 258): "weights",
             (256, 256): "cum", (256, 258): "cum", (256, 0): "cum"}
    for (m, n), name in wrong.items():
        want = (ValueError, f"{name} must hold {256 if name == 'weights' else 257} entries")
        for fill in (1, -1):  # a row the rule takes, and one it refuses
            arguments = [np.full(m, fill, dtype=np.int64), np.full(n, -7, dtype=np.int64)]
            assert Twins(step).call("quantize", lambda s: [a.copy() for a in arguments]) == want, (m, n, fill)
    assert Twins(step).quantize(np.ones(255, dtype=np.int32)) == (ValueError, "weights must be int64")
    for row in (_ones_and(-1, 3), np.zeros(256, dtype=np.int64)):
        assert Twins(step).quantize(row) == (ValueError, "weights must be nonnegative with one positive")


def test_quantize_weights_returns_a_new_table(step):
    row = _ones_with({0: 5, 1: 0, 2: 9})
    fresh = quantize_weights(row)
    assert np.array_equal(fresh, twin_quantize(row)) and quantize_weights(row) is not fresh
    # the row goes to the step module as it is: no other dtype or layout is copied
    for form, why in (("int32", "must be int64"), ("float64", "must be int64"), ("strided", "must be C-contiguous")):
        assert Twins(step).quantize(row, (0, form)) == (ValueError, f"weights {why}")
        with pytest.raises(ValueError, match=f"^weights {why}$"):
            quantize_weights(FORMS[form](row))


# (weights, cum) pairs that hold enough entries but are not one-dimensional
SHAPE_CASES = {
    "2-d cum": (_ROW, np.zeros((1, 257), dtype=np.int64)),
    "2-d weights": (_ROW.reshape(2, 128), np.zeros(257, dtype=np.int64)),
    "0-d weights": (np.array(5), np.zeros(257, dtype=np.int64)),
    "both 2-d": (_ROW.reshape(1, 256), np.zeros((257, 1), dtype=np.int64)),
}


@pytest.mark.parametrize("name", list(SHAPE_CASES))
def test_quantize_rejects_arrays_that_are_not_one_dimensional(name, step):
    weights, cum = SHAPE_CASES[name]
    want = "cum" if weights.ndim == 1 else "weights"
    outcome = Twins(step).call("quantize", lambda s: [weights.copy(), cum.copy()])
    assert outcome == (ValueError, f"{want} must be one-dimensional")


# --- explicit cases: every array argument in every form ------------------------------


def _payload_at(target: int) -> bytes:
    """A payload whose first symbol decodes at target (< 2^16) under any
    table: after the phantom byte, code = target << 16."""
    return b"\0" + (target << 16).to_bytes(4, "big") + bytes(8)


# the state a function is called on, made fresh
STATES = {
    "encode": lambda t: t.encoder(), "decode": lambda t: t.decoder(_payload_at(30_000)), "keep_table": lambda t: t.freq()
}
# a valid call of each function, one argument passed in a form if given
VALID_CALLS = {
    "quantize": lambda t, form: t.quantize(_ROW, form),
    "encode": lambda t, form: t.encode(STATES["encode"](t), _TABLE, 5, form),
    "decode": lambda t, form: t.decode(STATES["decode"](t), _TABLE, form),
    "net": lambda t, form: t.net(form=form),
    "freq": lambda t, form: t.freq(form=form),
    "keep_table": lambda t, form: t.keep_table(STATES["keep_table"](t), form),
}
# each function's array arguments: (function, position, name, whether it is written)
ARRAY_ARGUMENTS = [
    ("quantize", 0, "weights", False),
    ("quantize", 1, "cum", True),
    ("encode", 1, "cum", False),
    ("decode", 1, "cum", False),
    *(("net", i, name, name != "softmax") for i, name in enumerate(("emb", "b1", "w2", "b2", "softmax", "buf"))),
    ("freq", 1, "row", True),
    ("keep_table", 1, "cum", True),
]
_ARGUMENT_IDS = [f"{fn}-{name}" for fn, _, name, _ in ARRAY_ARGUMENTS]


@pytest.mark.parametrize("fn, position, name, written", ARRAY_ARGUMENTS, ids=_ARGUMENT_IDS)
def test_array_arguments_are_rejected_as_numpy(fn, position, name, written):
    # after the rejected call, the session goes on as a fresh one does
    fresh = Twins(kernel.load())
    if fn in STATES:
        STATES[fn](fresh)
    after = fresh.settle()
    for kind, why in BREAKERS.items():
        if kind != "read-only" or written:
            t = Twins(kernel.load())
            error, message = VALID_CALLS[fn](t, (position, kind))
            assert error is ValueError and (why is None or message == f"{name} {why}"), (kind, message)
            assert t.settle() == after, kind


@pytest.mark.parametrize("fn, position, name, written", ARRAY_ARGUMENTS, ids=_ARGUMENT_IDS)
def test_array_arguments_are_read_through_the_buffer_protocol_as_numpy(fn, position, name, written):
    # a memoryview or ctypes array of an int64 vector is the vector (and is
    # written through); a list, which has no buffer, is a TypeError, worded
    # alike
    def outcome(form):
        twins = Twins(kernel.load())
        VALID_CALLS[fn](twins, form)
        return twins.snapshot()

    assert outcome((position, "memoryview")) == outcome(None) == outcome((position, "ctypes"))
    assert outcome((position, "list"))[0] == NO_BUFFER


# --- explicit cases: range coder ---------------------------------------------------


def test_kernel_checks_the_arrays_it_is_given():
    t = Twins(kernel.load())
    enc, dec = t.encoder(), t.decoder(_payload_at(0))
    rejected = [
        t.encode(enc, _TABLE, 1 << 70),  # symbols past int64
        t.encode(enc, _TABLE, -(1 << 70)),
        t.decode(dec, [0]),  # no symbol at all
        t.decode(dec, _TABLE + 1),  # the target (0) below the table
        t.decode(t.decoder(_payload_at(PROB_SCALE - 1)), _TABLE[:-1]),  # past it
        t.decode(dec, [-1, 1, PROB_SCALE]),  # an interval outside [0, 2^16]
        t.decode(t.decoder(_payload_at(9)), [0, 5, 1 << 17]),
    ]
    assert all(error is ValueError for error, _ in rejected)
    # the rejected calls left both coders as they were
    assert t.state(dec).cursor == 5 and t.decode(dec, _TABLE) == 0
    fresh = Twins(kernel.load())
    alone = fresh.encoder()
    fresh.encode(alone, _TABLE, 5)
    t.encode(enc, _TABLE, 5)
    assert t.finish(enc) == fresh.finish(alone)
    assert t.encode(enc, _TABLE, 5) == (ValueError, "encoder already finished")


def _first_symbols(module, cases: list[tuple[bytes, np.ndarray]]) -> list[int]:
    """The first symbol each payload decodes to under its table."""
    return [module.decode(module.decoder(payload), cum) for payload, cum in cases]


def test_decode_finds_the_symbol_holding_the_target():
    rng = Lcg64(11)
    for m in (2, 3, 256, 4096, PROB_SCALE):
        for _ in range(5):
            cum = twin_quantize(np.array([1 + rng.below(9) ** rng.below(8) for _ in range(m)]))
            # symbol boundaries and their left neighbours (a sample of them
            # for wide tables), random targets, and the target a corrupted
            # payload is clamped to (2^16 - 1)
            edges = np.concatenate([cum[:-1], cum[1:-1] - 1])[:: 1 + m // 1000]
            targets = [*map(int, edges), *(rng.below(PROB_SCALE) for _ in range(200)), PROB_SCALE - 1]
            payloads = [*map(_payload_at, targets[:-1]), b"\0" + b"\xff" * 12]
            want = [int(np.searchsorted(cum, target, side="right")) - 1 for target in targets]
            assert Twins(kernel.load()).call(_first_symbols, lambda s: [[(p, cum) for p in payloads]]) == want, m


def test_decode_searches_a_table_that_is_not_increasing_as_numpy():
    # bisection on such a table finds a symbol that depends on the entries
    # it probes; both step modules probe as searchsorted(side="right") does
    t = Twins(kernel.load())
    assert t.decode(t.decoder(_payload_at(30_000)), [0, 40_000, 100, PROB_SCALE]) == 2
    gen, cases = np.random.default_rng(14), []
    for _ in range(2000):
        m = int(gen.integers(2, 300))
        cum = twin_quantize(gen.integers(1, 1000, m))
        i, j = gen.integers(0, m + 1, 2)
        cum[[i, j]] = cum[[j, i]]
        cases.append((_payload_at(int(gen.integers(0, PROB_SCALE))), cum))
    t.call(_first_symbols, lambda s: [cases])


def test_decoder_takes_only_bytes_like_payloads_as_numpy():
    t = Twins(kernel.load())
    enc, symbols = t.encoder(), list(range(0, 256, 7))
    for sym in symbols:
        t.encode(enc, _TABLE, sym)
    payload = t.finish(enc)
    assert t.decoder(list(payload)) == NO_BUFFER
    # the payload must be one contiguous block
    assert t.decoder(np.frombuffer(payload, dtype=np.uint8).repeat(2)[::2])[0] is ValueError
    dec = t.decoder(np.frombuffer(payload + bytes(-len(payload) % 8), dtype=np.int64))  # its bytes, as int64
    assert [t.decode(dec, _TABLE) for _ in symbols] == symbols and t.state(dec).cursor == len(payload)


# long streams over several alphabets, past the machine's few steps and
# short payloads


def _stream_tables(seed: int, alphabets: list[int]) -> list[np.ndarray]:
    """One table per alphabet size (_any_table)."""
    gen = np.random.default_rng(seed)
    return [_any_table(gen, m) for m in alphabets]


def _encoded(module, stream: list[np.ndarray], symbols: list[int]) -> tuple[list[int], bytes]:
    """The width of each symbol under its table, and the payload."""
    enc = module.encoder()
    return [module.encode(enc, cum, sym) for cum, sym in zip(stream, symbols)], module.finish(enc)


def _decoded(module, payload: bytes, tables: list[np.ndarray]) -> tuple[list[int], int | None, int]:
    """The symbols payload decodes to under tables, the index of the symbol
    at which it ran out (None if it did not) and the cursor at the end."""
    symbols = []
    try:
        dec = module.decoder(payload)
        for cum in tables:
            symbols.append(module.decode(dec, cum))
    except TruncatedStreamError as exc:
        assert str(exc) == f"payload exhausted at byte {len(payload)}; stream is truncated"
        return symbols, len(symbols), len(payload)
    return symbols, None, dec.cursor


_ALPHABETS = st.lists(st.integers(2, PROB_SCALE), min_size=1, max_size=3)


@given(alphabets=_ALPHABETS, seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300), data=st.data())
@settings(max_examples=80, deadline=None)
def test_extension_and_twin_code_the_same_bytes(alphabets, seed, n, data):
    tables = _stream_tables(seed, alphabets)
    gen = np.random.default_rng(seed + 1)
    stream = [tables[i] for i in gen.integers(0, len(tables), n)]
    symbols = [int(gen.integers(0, cum.size - 1)) for cum in stream]
    t = Twins(kernel.load())
    widths, payload = t.call(_encoded, lambda s: [stream, symbols])
    assert widths == [cum[sym + 1] - cum[sym] for cum, sym in zip(stream, symbols)]
    assert t.call(_decoded, lambda s: [payload, stream]) == (symbols, None, len(payload))
    # a valid stream reads its last byte, so any cut runs out, at one symbol on both
    cut = data.draw(st.integers(0, len(payload) - 1), label="cut")
    read, ran_out, _ = t.call(_decoded, lambda s: [payload[:cut], stream])
    assert ran_out is not None and read == symbols[:ran_out]


@given(
    alphabets=_ALPHABETS,
    seed=st.integers(0, 2**32 - 1),
    # all 0xFF after the phantom byte: the clamped target 2^16 - 1
    payload=st.one_of(st.binary(max_size=200), st.integers(0, 200).map(lambda k: b"\0" + b"\xff" * k)),
)
@settings(max_examples=80, deadline=None)
def test_extension_and_twin_decode_any_payload_alike(alphabets, seed, payload):
    tables = _stream_tables(seed, alphabets)
    stream = [tables[i % len(tables)] for i in range(400)]
    Twins(kernel.load()).call(_decoded, lambda s: [payload, stream])


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


# --- explicit cases: neural step -------------------------------------------------


NEURAL_CASES = [
    (8, 256, 1 << 20, 0, 256, 120),  # the documented extremes
    (8, 256, 1 << 20, 1, 256, 120),
    (1, 8, 1, 2, 256, 400),
    (3, 16, 1 << 13, 3, 5, 400),  # a stream of five byte values
]


@needs_kernel
@pytest.mark.parametrize("context, width, lr, seed, symbols, steps", NEURAL_CASES)
def test_neural_kernel_matches_numpy_step_by_step(context, width, lr, seed, symbols, steps, builds):
    rng, tokens = Lcg64(100 + seed), [0]
    for _ in range(steps):
        # sticky stream: the net learns, saturates and gets surprised
        tokens.append(tokens[-1] if rng.below(4) else rng.below(symbols))
    t = Twins(*builds.values())
    assert t.run(t.net(context, width, seed, lr), tokens[1:])[1:] == (steps, None)


def _one_short(q: int, total: int) -> np.ndarray:
    """256 weights summing to about total whose first w has w * 2^16 one
    short of q times the row's total: the quotient a reciprocal rounds up."""
    total -= (total - pow(q, -1, ONE)) % ONE  # q * total = 1 (mod 2^16)
    w = (q * total - 1) // ONE
    return np.concatenate([[w], _spread(255, total - w)])


def _guarded_net(t: Twins) -> int:
    net = t.net(2, 8, seed=6)
    for tok in b"guard":
        t.net_step(net, tok)
    return net


# forward passes written over a net's own: net_grad divides every row that
# quantize's rule accepts, up to a total of 2^37 - 1, and net_step refuses
# the rest (those in REFUSED_ROWS) as quantize does
_U = 2097143  # 1/(u * 2^16) rounds low: u * 2^16 times it falls under 1
DIVISION_ROWS = {
    "the net's own softmax weights": None,
    "exact quotients, one the reciprocal puts one under": np.concatenate(
        [[_U, (ONE - 1) * _U], np.zeros(254, dtype=np.int64)]
    ),
    "total 2^37-1, spread": _spread(256, _BIG),
    "total 2^37-1, one weight, a quotient of 2^16": np.eye(1, 256, 9, dtype=np.int64)[0] * _BIG,
    "total 2^37-1, a quotient one short": _one_short(40503, _BIG),
    "total 2^37, spread": _spread(256, _LIMIT),
    "total 2^46-1, spread": _spread(256, (1 << 46) - 1),
    "total 2^46-1, one weight": np.eye(1, 256, 9, dtype=np.int64)[0] * ((1 << 46) - 1),
    "total 2^46-1, a quotient one short": _one_short(40503, (1 << 46) - 1),
}


@needs_kernel
@pytest.mark.parametrize("name", list(DIVISION_ROWS))
def test_net_step_divides_on_both_sides_of_its_guard_as_numpy(name, builds):
    t = Twins(*builds.values())
    net = _guarded_net(t)
    row = DIVISION_ROWS[name]
    if row is not None:
        t.plant(net, row)
    refused = t.quantize(row) if name in REFUSED_ROWS else None  # quantize's (type, message)
    assert t.net_step(net, 7) == refused and (refused is None or refused[0] is ValueError)


# forward passes that quantize's rule rejects, and net_step with it
BAD_FORWARD_PASSES = {
    "a negative entry": np.where(np.arange(256) == 5, -1, 1 << 12),
    "all zeros": np.zeros(256, dtype=np.int64),
    "total 2^37": _spread(256, _LIMIT),
    "weights in [2^46, 2^47)": (1 << 46) + np.arange(256, dtype=np.int64) * (1 << 38),
}


@pytest.mark.parametrize("name", list(BAD_FORWARD_PASSES))
def test_net_step_rejects_the_rows_quantize_rejects_as_numpy(name, step, builds):
    row = BAD_FORWARD_PASSES[name]
    t = Twins(*builds.values()) if step is not _kernel_numpy else Twins(step)
    net = _guarded_net(t)
    t.plant(net, row)
    error = t.quantize(row)  # quantize's (type, message)
    assert error[0] is ValueError and t.net_step(net, 7) == error
    assert t.state(net).context == b"rd"


def test_neural_kernel_rejects_tokens_outside_the_alphabet(step):
    t = Twins(step)
    net = t.net()
    t.net_step(net, 255)
    for bad in (256, -1, 1 << 70, -(1 << 70)):
        assert t.net_step(net, bad) == (ValueError, f"token {bad} outside the alphabet [0, 256)")
    # outside PredictorConfig's [1, 2^20], and past int64
    for lr in (0, -5, (1 << 20) + 1, 1 << 70, -(1 << 70)):
        assert t.net(lr=lr) == (ValueError, f"learning rate {lr} outside [1, 2^20]")
    assert all(isinstance(t.net(lr=lr), int) for lr in (1, 1 << 20))
    assert t.net(off=(3, -1))[0] is ValueError  # a net codes bytes: b2 needs 256 entries
    t.plant(net, 0)  # a corrupted forward pass
    assert t.net_step(net, 1)[0] is ValueError


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
    error, message = Twins(step).call("net", lambda s: [*(np.zeros(n, dtype=np.int64) for n in NET_SIZES[name]), ONE])
    assert error is ValueError and message.startswith("net arrays disagree: ")


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
    pin_twin(monkeypatch)
    twin = NeuralPredictor(config)
    twin.update(9)
    want = (twin.emb, twin.b1, twin.w2, twin.b2, twin._weights.base)
    assert all(np.array_equal(r().ravel(), w.ravel()) for r, w in zip(held, want))
    assert net.context == twin._net.context == b"\x09"
    del net
    gc.collect()
    assert all(r() is None for r in held)  # released with the state


# --- explicit cases: freq step ---------------------------------------------------


def _freq_streams() -> dict[str, bytes]:
    rng = Lcg64(21)
    return {
        "random": bytes(rng.below(256) for _ in range(8 << 10)),
        "constant": b"\x2a" * 70_000,  # every order's last context crosses a halving
        "text": pseudo_text(11, 16 << 10)[: 16 << 10],
    }


FREQ_STREAMS = _freq_streams()


def check_freq_stream(t: Twins, order: int, data: bytes, checkpoints: int, bound: bool = False) -> None:
    """The same row (and kept table, if bound) after every step, and the
    same context and freq_state payload at checkpoints spread over data and
    at its end."""
    f, every = t.freq(order), max(1, len(data) // checkpoints)
    if bound:
        assert t.keep_table(f) is None
    for start in range(0, len(data), every):
        t.run(f, data[start : start + every])
        end = min(len(data), start + every)
        assert t.state(f).context == data[max(0, end - order) : end]


@needs_kernel
@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("stream", list(FREQ_STREAMS))
def test_freq_kernel_matches_numpy_step_by_step(stream, order):
    check_freq_stream(Twins(kernel.load()), order, FREQ_STREAMS[stream], 8)


@needs_kernel
@pytest.mark.parametrize("order", range(4))
def test_bound_freq_steps_match_numpy_on_both_builds(order, builds):
    # rows pass from quantize_grouped to the dense path as their contexts fill
    check_freq_stream(Twins(*builds.values()), order, FREQ_STREAMS["text"][:6000], 4, bound=True)


@needs_kernel
def test_freq_kernel_matches_numpy_across_table_growths():
    # about 50 000 distinct order-3 contexts: several hundred row blocks and
    # a table that doubles a dozen times
    gen = np.random.default_rng(8)
    check_freq_stream(Twins(kernel.load()), 3, gen.integers(0, 256, 50_000).astype(np.uint8).tobytes(), 3)


def test_freq_state_payload_is_sorted_as_python_sorts_bytes(step):
    # keys of every length whose bytes sort differently from their numbers
    data = b"\x00\x00\x01\xff\x00\x01\x00\x00\x00\xff\xff\x01"
    t = Twins(step)
    f = t.freq(3)
    t.run(f, data)
    payload, keys, pos = step.freq_state(t.state(f)), [], 0
    while pos < len(payload):
        n = payload[pos]
        keys.append(payload[pos + 1 : pos + 1 + n])
        pos += 1 + n + 4 * 256
    assert pos == len(payload) and keys == sorted({data[max(0, i - 3) : i] for i in range(len(data))})


def test_freq_rejects_bad_orders_and_tokens_as_numpy(step):
    t = Twins(step)
    for order in (-1, 4, 1 << 70):
        assert t.freq(order) == (ValueError, f"freq order {order} outside [0, 3]")
    f = t.freq(2)
    t.run(f, b"abcab")
    for bad in (256, -1, 1 << 70, -(1 << 70)):
        assert t.freq_step(f, bad) == (ValueError, f"token {bad} outside the alphabet [0, 256)")


# --- explicit cases: kept tables -------------------------------------------------


_SOFTMAX_MESSAGE = "softmax table needs a positive first entry and every entry in [0, 2^29)"


@pytest.mark.parametrize("name", list(BAD_SOFTMAX_TABLES))
def test_net_refuses_softmax_tables_that_give_rows_quantize_refuses(name, step):
    assert Twins(step).net(table=BAD_SOFTMAX_TABLES[name]) == (ValueError, _SOFTMAX_MESSAGE)


@needs_kernel
@pytest.mark.parametrize("name", list(GOOD_SOFTMAX_TABLES))
def test_bound_net_steps_on_the_extremes_of_the_softmax_rule(name, builds):
    t = Twins(*builds.values())
    net = t.net(3, 16, seed=4, table=GOOD_SOFTMAX_TABLES[name])
    assert t.keep_table(net) is None
    assert t.run(net, b"extremes of the rule" * 3)[1:] == (60, None)
    assert np.array_equal(t.sides[0].tables[net], twin_quantize(t.sides[0].states[net][2][5][-ALPHABET:]))


def _bound_session(t: Twins, kind: str) -> int:
    """A net or count table stepped unbound, then bound, then stepped on."""
    state = t.net(2, 8, seed=3) if kind == "net" else t.freq(2)
    t.run(state, b"unbound steps first, ")
    assert t.keep_table(state) is None
    assert t.run(state, b"then bound ones: abracadabra")[1:] == (28, None)
    return state


@needs_kernel
@pytest.mark.parametrize("kind", ["net", "freq"])
def test_bound_steps_write_the_table_quantize_writes(kind, builds):
    t = Twins(*builds.values())
    state = _bound_session(t, kind)
    for side in t.sides:
        row = side.states[state][2][5][-ALPHABET:] if kind == "net" else side.states[state][2][0]
        assert np.array_equal(side.tables[state], twin_quantize(row))


@pytest.mark.parametrize("kind", ["net", "freq"])
def test_a_bound_step_changes_nothing_but_the_table(kind, step):
    # the same tokens on a bound state and an unbound one leave the same state
    t = Twins(step)
    bound = _bound_session(t, kind)
    plain = t.net(2, 8, seed=3) if kind == "net" else t.freq(2)
    t.run(plain, b"unbound steps first, then bound ones: abracadabra")
    for side in t.sides:
        assert _same(side.view(bound)[:-1], side.view(plain)[:-1])
    # a cum bound in its place is the only one written from then on
    first = t.sides[0].tables[bound]
    kept = first.copy()
    assert t.keep_table(bound) is None and t.run(bound, b"x")[1:] == (1, None)
    assert np.array_equal(first, kept) and t.sides[0].tables[bound][-1] == PROB_SCALE


def test_keep_table_takes_257_entries_as_numpy(step):
    t = Twins(step)
    f, net = t.freq(), t.net()
    for size in (256, 258, 0):
        for state in (f, net):
            out = t.call("keep_table", lambda s: [s.states[state][1], np.zeros(size, dtype=np.int64)])
            assert out == (ValueError, "cum must hold 257 entries")
    assert t.run(f, b"abc")[1:] == t.run(net, b"abc")[1:] == (3, None)  # nothing was bound
    assert all(side.tables == {} for side in t.sides)


@needs_kernel
def test_keep_table_takes_only_net_and_count_table_states():
    ext = kernel.load()
    for state in (ext.encoder(), ext.decoder(bytes(5)), None):
        with pytest.raises(TypeError, match=r"^expected a kolmozip._kernel.net or kolmozip._kernel.freq state"):
            ext.keep_table(state, np.zeros(257, dtype=np.int64))


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


# --- random sessions -------------------------------------------------------------
# after the explicit cases, so that a fault they catch fails there, unshrunk


def test_step_module_matches_numpy():
    run_machine(kernel.load(), 40)


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


def _fake_compiler(tmp_path: Path, output: str) -> str:
    """A compiler that writes output into the file it is pointed at."""
    fake = tmp_path / "bin" / "cc"
    fake.parent.mkdir()
    fake.write_text(f'#!/bin/sh\nfor last; do :; done\necho {output} > "$last"\n')
    fake.chmod(0o755)
    return str(fake)


@pytest.mark.parametrize("home", ["unknown", "relative"])
def test_no_absolute_cache_base_warns_once_and_writes_nothing(home, monkeypatch, tmp_path):
    fake = _fake_compiler(tmp_path, "junk")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setattr(kernel, "_find_compiler", lambda: fake)
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


def test_a_build_replaces_the_file_at_its_key_and_never_writes_into_it(tmp_path):
    # a process that loaded the old file keeps reading it whole: the build is
    # written beside it and renamed over it
    target = tmp_path / "cache" / "kernel-key.so"
    target.parent.mkdir()
    target.write_text("old\n")
    with target.open() as loaded:
        kernel._compile(_fake_compiler(tmp_path, "new"), b"", target)
        assert loaded.read() == "old\n"
    assert target.read_text() == "new\n"
    assert [p.name for p in target.parent.iterdir()] == [target.name]


def test_the_cache_key_covers_the_source_and_the_flags(monkeypatch, tmp_path):
    targets = []

    def no_build(compiler, source, target):
        targets.append(target.name)
        raise OSError("not built")

    monkeypatch.setattr(kernel, "_find_compiler", lambda: "cc")
    monkeypatch.setattr(kernel, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(kernel, "_compile", no_build)
    edited = tmp_path / "_kernel.c"
    edited.write_bytes(kernel.SOURCE.read_bytes() + b"\n")
    for source, flags in ((kernel.SOURCE, kernel._FLAGS), (edited, kernel._FLAGS), (kernel.SOURCE, kernel._FLAGS[1:])):
        monkeypatch.setattr(kernel, "SOURCE", source)
        monkeypatch.setattr(kernel, "_FLAGS", flags)
        with pytest.warns(RuntimeWarning, match="not built"):
            assert kernel.build_and_load() is None
    assert len(set(targets)) == 3


def _compile_into(tmp_path: Path, source: bytes) -> Path:
    target = tmp_path / f"kernel{sysconfig.get_config_var('EXT_SUFFIX') or '.so'}"
    kernel._compile(kernel._find_compiler(), source, target)
    return target


def _clone_targets() -> tuple[str, ...]:
    """The target of each clone the source builds of the step's loops here."""
    if platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc":
        return ()
    return ("avx2", "default")


_WARNINGS_AS_ERRORS = ("-Wall", "-Wextra", "-Werror")


@pytest.fixture(scope="module")
def builds(tmp_path_factory) -> dict:
    """Each build of the step module this process can run, by name:
    kernel.load(), whose clone is the one the CPU picks (AVX2 wherever the
    CPU has it), then, where there is a compiler, the clone-free build
    (what aarch64, macOS and musl compile, and what a CPU without AVX2
    runs), built warning-free."""
    found = {"extension": kernel.load()}
    if kernel._find_compiler() is None:
        return found
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernel, "_FLAGS", (*kernel._FLAGS, *_WARNINGS_AS_ERRORS))
        found["clone-free"] = _clone_free_build(tmp_path_factory.mktemp("clone-free"))
    return found


@needs_compiler
def test_kernel_compiles_warning_free_with_its_clones(tmp_path, monkeypatch, builds):
    # builds compiled the clone-free build warning-free
    monkeypatch.setattr(kernel, "_FLAGS", (*kernel._FLAGS, *_WARNINGS_AS_ERRORS))
    library = _compile_into(tmp_path, kernel.SOURCE.read_bytes()).read_bytes()
    # an AVX2 clone of each of the step's three loop roots, next to the
    # baseline one, and a resolver that picks between them; GCC names a clone
    # function.target, with every other character of the target made "_"
    suffixes = [re.sub(r"\W", "_", target) for target in _clone_targets()]
    if not suffixes:
        return
    loops = ("forward", "net_grad", "quantize_row")
    clones = re.findall(rb"(\w+)\.(avx2|default|resolver)\0", library)
    assert sorted({(fn.decode(), kind.decode()) for fn, kind in clones}) == sorted(
        (fn, kind) for fn in loops for kind in (*suffixes, "resolver")
    )
    assert b"arch_x86_64_v4" not in library
    # each root's clones are flattened: no helper beneath a root is a function
    # of its own, whose baseline build the AVX2 clone would call
    helpers = ("quantize_dense", "quantize_grouped", "leftover_threshold", "select_rank", "divide_row")
    assert [helper for helper in helpers if helper.encode() in library] == []


def _clone_free_build(tmp_path: Path):
    """The kernel with VECTOR_CLONES made nothing: the baseline code, as
    built where there are no clones, which runs whatever clone this CPU
    would pick."""
    source = kernel.SOURCE.read_bytes()
    switch = b"__has_attribute(target_clones)"
    assert source.count(switch) == 1
    library = _compile_into(tmp_path, source.replace(switch, b"0"))
    assert b".resolver" not in library.read_bytes()
    return kernel._import(library)


# the explicit cases the step's loops are easiest to get wrong on (hard
# rows, division rows, bad forward passes, neural streams) run on both
# builds; this test runs the state machine on the one kernel.load() is not


@needs_compiler
def test_clone_free_build_matches_numpy(builds):
    run_machine(builds["clone-free"], 10)


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
