"""Per-layer spans taken from outside the package.

The tracer swaps each public entry point of a layer for a wrapper that
counts calls and accumulates wall time, split into total and self time
(total minus the time spent in wrapped callees).  Nothing inside
``src/kolmozip`` is edited; the wrappers are installed and removed around
each traced operation.

Where a wrapper must go follows from how the package binds names:

* ``from X import Y`` copies the name into the importer, so a function
  is wrapped in the namespace that calls it (``kolmozip.cli.compress``,
  ``kolmozip.pipeline.quantize_weights``, ``kolmozip.pipeline.make_predictor``).
* The pipeline binds ``pred.predict_weights``, ``pred.update`` and
  ``encoder.encode_symbol`` once per session, so methods are patched on
  the class, before a session starts.
* ``kolmozip.kclab.phi`` is looked up as a module global by ``phi_curve``
  and ``joint_bound_report``, so one wrapper there sees every call.

Spans read the wall clock, the cheapest one to read twice per call.
Wrapping still adds a fixed cost to every call, so per-call times are
upper bounds; end-to-end metrics come only from untraced runs.
"""

from __future__ import annotations

import time

from kolmozip import cli, coder, kclab, pipeline, predictors, sources

# (owner, attribute, span name); several owners may share one span name
# because each importer holds its own reference to the same function
ENTRY_POINTS = (
    (cli, "main", "cli.main"),
    (cli, "compress", "pipeline.compress"),
    (cli, "decompress", "pipeline.decompress"),
    (cli, "serialize", "pipeline.serialize"),
    (cli, "deserialize", "pipeline.deserialize"),
    (pipeline, "compress_conditional", "pipeline.compress"),
    (pipeline, "decompress", "pipeline.decompress"),
    (pipeline, "serialize", "pipeline.serialize"),
    (pipeline, "deserialize", "pipeline.deserialize"),
    (pipeline, "make_predictor", "predictors.construct"),
    (pipeline, "quantize_weights", "coder.quantize"),
    (predictors.UniformPredictor, "predict_weights", "predictors.predict"),
    (predictors.UniformPredictor, "update", "predictors.update"),
    (predictors.FreqPredictor, "predict_weights", "predictors.predict"),
    (predictors.FreqPredictor, "update", "predictors.update"),
    (predictors.NeuralPredictor, "predict_weights", "predictors.predict"),
    (predictors.NeuralPredictor, "update", "predictors.update"),
    (coder.RangeEncoder, "encode_symbol", "coder.encode"),
    (coder.RangeEncoder, "finish", "coder.finish"),
    (coder.RangeDecoder, "decode_symbol", "coder.decode"),
    (sources, "generate", "sources.generate"),
    (sources, "worksheet_corpus", "sources.worksheet"),
    (kclab, "phi", "kclab.phi"),
)

# spans whose result length is summed (the payload the coder emitted)
_SIZED = {"coder.finish"}


class Span:
    """Aggregate of one span name under one tag."""

    __slots__ = ("calls", "total_s", "self_s", "result_len")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.result_len = 0


class Tracer:
    """Aggregated spans keyed by (span name, tag).

    The tag names the part of the workload (or the set-up phase) the current
    operation belongs to; the benchmark sets it before each operation.
    """

    def __init__(self) -> None:
        self.tag = ""
        self.spans: dict[tuple[str, str], Span] = {}
        self.coded: dict[str, int] = {}  # bytes coded per tag while traced
        self._stack: list[float] = []  # child time of each open span
        self._swaps = [
            (owner, attr, vars(owner)[attr], self._wrap(name, vars(owner)[attr]))
            for owner, attr, name in ENTRY_POINTS
        ]

    def _wrap(self, name: str, fn):
        stack, spans, clock, sized = self._stack, self.spans, time.perf_counter, name in _SIZED

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span = spans.get((name, self.tag))
                if span is None:
                    span = spans[name, self.tag] = Span()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
            if sized:
                span.result_len += len(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapped in self._swaps:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    def span(self, name: str, tag: str) -> Span:
        return self.spans.get((name, tag)) or Span()


def per_call_us(span: Span) -> float:
    return 1e6 * span.total_s / span.calls if span.calls else 0.0


# every session, plain or conditional, goes through these
SESSION_SPANS = (
    "pipeline.compress",
    "pipeline.decompress",
    "pipeline.serialize",
    "pipeline.deserialize",
    "predictors.construct",
    "predictors.predict",
    "predictors.update",
    "coder.quantize",
    "coder.encode",
    "coder.decode",
    "coder.finish",
)


def session_layers(tracer: Tracer, tag: str) -> tuple[dict, list[str]]:
    """Predictor and coder metrics of the sessions under one tag, plus failed self-checks.

    The range coder codes one symbol per call, so the encode and decode
    call counts must equal the bytes the traced operations coded.
    """
    s = {name: tracer.span(name, tag) for name in SESSION_SPANS}
    coded = tracer.coded.get(tag, 0)
    symbols = s["coder.encode"].calls + s["coder.decode"].calls
    metrics = {
        "predictors.construct.us_per_call": per_call_us(s["predictors.construct"]),
        "predictors.construct.calls": s["predictors.construct"].calls,
        "predictors.predict.us_per_call": per_call_us(s["predictors.predict"]),
        "predictors.predict.calls": s["predictors.predict"].calls,
        "predictors.update.us_per_call": per_call_us(s["predictors.update"]),
        "predictors.update.calls": s["predictors.update"].calls,
        "coder.quantize.us_per_call": per_call_us(s["coder.quantize"]),
        "coder.quantize.calls_per_coded_byte": (
            s["coder.quantize"].calls / symbols if symbols else 0.0
        ),
        "coder.encode.us_per_call": per_call_us(s["coder.encode"]),
        "coder.encode.calls": s["coder.encode"].calls,
        "coder.decode.us_per_call": per_call_us(s["coder.decode"]),
        "coder.decode.calls": s["coder.decode"].calls,
        "coder.finish.us_per_call": per_call_us(s["coder.finish"]),
        "coder.payload_bytes": s["coder.finish"].result_len,
    }
    failures = [f"{tag}: {name} never called" for name, span in s.items() if not span.calls]
    for direction in ("encode", "decode"):
        calls = s[f"coder.{direction}"].calls
        if calls != coded:
            failures.append(f"{tag}: coder.{direction}.calls {calls} != {coded} coded bytes")
    return metrics, failures
