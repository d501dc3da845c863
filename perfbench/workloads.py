"""Seeded inputs and the three workloads, one per model family.

A workload is a model family (uniform, freq or neural) and runs three
parts, interleaved until the time is up:

* streams: one long stream per corpus through ``kolmozip compress`` /
  ``kolmozip decompress`` file to file, where the per-byte loop dominates;
* sessions: worksheet records as conditional round trips, where predictor
  construction, priming and coder set-up dominate;
* kc: a pure-Python ``kclab`` sweep, the one layer no family touches, run
  on every workload so that every workload reports every metric.

Each workload builds its inputs from the seed alone, checks every output,
and returns its end-to-end metrics (untraced) or per-layer metrics
(traced).  Seed 0 reproduces the acceptance-suite corpora: ``Lcg64(3)``
random bytes, the ``MARKOV2`` chain, ``pseudo_text(11, ...)`` and
``worksheet_corpus(7, 1000)``; seed s shifts each of those seeds by s.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import itertools
import json
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from kolmozip import cli, kclab, pipeline, sources
from kolmozip.predictors import PredictorConfig
from kolmozip.rng import Lcg64

import tracing

# Every measured interval is process CPU time.  On an idle host it equals
# wall time; on a shared one it leaves out the time the process spent
# descheduled, which otherwise made a p99 latency move by 50% between
# identical runs.  Only the --seconds deadline runs on the wall clock.
clock = time.process_time

# The 2-core host this was tuned on drifts, in phases of a few seconds,
# between its fast speed and one up to 1.7x slower.  The three parts run
# interleaved, so each sees the same mix of phases; streams and sessions
# report mean times, which follow the share of the run spent slow, and
# kc, with a hundred short passes, reports its best pass.
SHARES = {"stream": 0.5, "session": 0.35, "kc": 0.15}  # of the measured time

SETUP_REPEATS = 3
# a traced run does one fixed job, so its per-layer counts repeat exactly:
# every stream once, this many session records, this many kc passes
TRACE_RECORDS = 100
TRACE_PASSES = 10
GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

# the acceptance suite's order-2 chain; entropy rate 1.7411 bits/byte
MARKOV2 = sources.MarkovSpec(order=2, alphabet=4, concentration=4, seed=2024)

FAMILIES = ("uniform", "freq", "neural")
STREAM_MODELS = {"uniform": "uniform", "freq": "freq:2", "neural": "neural:1,8"}
SESSION_MODELS = {"uniform": "uniform", "freq": "freq:3", "neural": "neural:1,8"}
CORPORA = ("random", "constant", "markov", "text", "worksheet")
WORKSHEET_RECORDS = 1000  # the acceptance corpus the worksheet stream is cut from

# recorded once at t=64 (acceptance test_09), and the budget schedule of test_08
RECORDED_GAPS = {2: 7, 3: 10, 4: 16}
PHI_SCHEDULE = (1, 2, 4, 8, 16, 64)

# freq:2 halves a context once one count reaches 2^16; a constant stream
# needs 2 + (2^16 - 1) bytes to get there, and the freq constant stream
# must do so, because block-wise encoders have to split at these events
_HALVING_BYTES = 2 + (1 << 16) - 1


@dataclass(frozen=True)
class Plan:
    """Input sizes; the default is what the benchmark measures."""

    stream_bytes: dict[str, dict[str, int]]  # family -> corpus -> stream length
    session_records: dict[str, int]  # family -> first records of the worksheet corpus
    kc_gap_lengths: tuple[int, ...]  # family_max_gap(L, 64) for each L
    kc_curve_bits: int  # phi_curve over every string up to this length
    kc_pairs: int  # seeded (x, y) pairs whose witnesses are replayed


def _sizes(each: int, **override: int) -> dict[str, int]:
    return {corpus: override.get(corpus, each) for corpus in CORPORA}


DEFAULT_PLAN = Plan(
    # round trips of about a quarter second, where the CLI and predictor
    # set-up stay near 2%, except the freq constant stream (see above)
    stream_bytes={
        "uniform": _sizes(32 << 10),
        "freq": _sizes(4 << 10, constant=68 << 10),
        "neural": _sizes(1536),
    },
    # one pass over the records fits in the sessions' share of a 30 s run
    # (a neural session takes about 16 ms, a freq one 1.2 ms)
    session_records={"uniform": 1000, "freq": 1000, "neural": 500},
    kc_gap_lengths=(2, 3, 4),
    kc_curve_bits=6,
    kc_pairs=64,
)
assert DEFAULT_PLAN.stream_bytes["freq"]["constant"] >= _HALVING_BYTES


@dataclass
class Op:
    """One checked operation; `run` returns whether every output was right."""

    part: str  # "stream", "session" or "kc"
    coded: int  # bytes it encodes, and decodes again
    run: Callable[[], bool]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    build_s: float = 0.0  # median input build time
    metrics: dict[str, float] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


# --- inputs ------------------------------------------------------------------

_WORDS = (
    "the of and to in a is that for it was on are as with his they at be "
    "this have from or had by word but not what all were when we there can "
    "an your which their said if do will each about how up out them she "
    "many some so these would other into has more her two like him see "
    "time could no make than first been its who now people my made over "
    "did down only way find use may water long little very after called "
    "just where most know get through back much before go good new write "
    "our used me man too any day same right look think also around another "
    "came come work three must because does part even place well such here"
).split()


def pseudo_text(seed: int, min_bytes: int) -> bytes:
    """Zipf-weighted word salad with sentence and paragraph structure.

    The acceptance suite's text recipe; a shorter request yields a prefix
    of a longer one.
    """
    cum = list(itertools.accumulate(1.0 / (i + 1) for i in range(len(_WORDS))))
    acc = cum[-1]
    stream = Lcg64(seed)

    def word() -> str:
        u = stream.below(1 << 30) / (1 << 30) * acc
        return _WORDS[min(bisect.bisect_right(cum, u), len(_WORDS) - 1)]

    out: list[str] = []
    size = sentences = 0
    while size < min_bytes or out[-1] != "\n\n":
        n = 4 + stream.below(9)
        sentence = " ".join(word() for _ in range(n)).capitalize() + "."
        sep = "\n\n" if sentences % (5 + stream.below(5)) == 4 else " "
        out += (sentence, sep)
        size += len(sentence) + len(sep)
        sentences += 1
    return "".join(out).encode("ascii")


def corpus(kind: str, seed: int, n: int, records=None) -> bytes:
    """First n bytes of one acceptance corpus, with its seed shifted by `seed`.

    `records` is the seed's worksheet corpus, if already built.
    """
    if kind == "random":
        stream = Lcg64(3 + seed)
        return bytes(stream.below(256) for _ in range(n))
    if kind == "constant":
        return bytes([(0x2A + seed) & 0xFF]) * n
    if kind == "markov":
        return sources.generate(replace(MARKOV2, seed=MARKOV2.seed + seed), n)
    if kind == "text":
        return pseudo_text(11 + seed, n)[:n]
    if kind == "worksheet":
        records = records or sources.worksheet_corpus(7 + seed, WORKSHEET_RECORDS)
        stream = sources.worksheet_stream(records)
        if n > len(stream):
            raise ValueError(f"worksheet stream has only {len(stream)} bytes")
        return stream[:n]
    raise ValueError(f"unknown corpus {kind!r}")


def kc_pairs(seed: int, count: int) -> list[tuple[str, str]]:
    """Seeded (x, y) pairs: x of 7..16 bits, y of 0..8 bits, from a fair coin."""
    spec = sources.MarkovSpec(order=0, alphabet=2, concentration=1, seed=seed)
    coin = sources.generate(spec, 24 * count)
    bits = coin.translate(bytes.maketrans(b"\0\1", b"01")).decode()
    return [
        (bits[24 * i : 24 * i + 7 + i % 10], bits[24 * i + 16 : 24 * i + 16 + i % 9])
        for i in range(count)
    ]


@dataclass
class Inputs:
    streams: dict[str, bytes]  # corpus -> stream
    records: list  # the session records
    pairs: list[tuple[str, str]]  # kc witness pairs


def _build(family: str, seed: int, plan: Plan, tracer, outcome: Outcome, workdir: Path) -> Inputs:
    """Build the inputs SETUP_REPEATS times; keep the median time.

    Every build must give the same inputs.  Traced runs record the
    sources spans of all builds under the part "setup".
    """
    sizes = plan.stream_bytes[family]

    def make() -> Inputs:
        records = sources.worksheet_corpus(7 + seed, WORKSHEET_RECORDS)
        streams = {c: corpus(c, seed, n, records) for c, n in sizes.items()}
        for c, data in streams.items():
            (workdir / f"{c}.in").write_bytes(data)
        return Inputs(streams, records[: plan.session_records[family]], kc_pairs(seed, plan.kc_pairs))

    times, built = [], []
    for _ in range(SETUP_REPEATS):
        if tracer:
            tracer.tag = "setup"
            tracer.install()
        start = clock()
        try:
            built.append(make())
        finally:
            times.append(clock() - start)
            if tracer:
                tracer.uninstall()
    if any(b != built[0] for b in built):
        raise RuntimeError("input generation is not deterministic")
    outcome.build_s = statistics.median(times)
    return built[0]


# --- the operation loop --------------------------------------------------------


def drive(parts: dict[str, list[Op]], seconds: float, tracer, outcome: Outcome) -> None:
    """Run every op at least once, and fill the `seconds`, interleaving the parts.

    The part furthest below its share (SHARES) of the measured time runs
    next, and within a part the ops take turns.  With a tracer each op
    runs twice, untraced then traced, so the sum of the differences is
    the tracing overhead.  An op that raises counts as failed; nothing is
    retried.
    """
    plain = traced = 0.0
    spent = dict.fromkeys(parts, 0.0)
    turns = dict.fromkeys(parts, 0)
    deadline = time.perf_counter() + seconds
    while True:
        choices = [p for p in parts if turns[p] < len(parts[p])]  # still owe a first run
        if time.perf_counter() < deadline:
            choices = list(parts)
        elif not choices:
            break
        part = min(choices, key=lambda p: spent[p] / SHARES[p])
        ops = parts[part]
        op = ops[turns[part] % len(ops)]
        turns[part] += 1
        for with_trace in (False, True) if tracer else (False,):
            if with_trace:
                tracer.tag = part
                tracer.install()
            start = clock()
            try:
                ok = op.run()
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                ok = False
                outcome.errors.append(f"{part}: {exc!r}")
            finally:
                elapsed = clock() - start
                if with_trace:
                    tracer.uninstall()
            outcome.attempted += 1
            outcome.failed += not ok
            if with_trace:
                traced += elapsed
                tracer.coded[part] = tracer.coded.get(part, 0) + op.coded
            else:
                plain += elapsed
                spent[part] += elapsed
    if tracer:
        outcome.metrics["trace.overhead_s"] = traced - plain
        outcome.report["trace_overhead_ratio"] = traced / plain - 1 if plain else None


# --- streams -------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Streams:
    """One stream per corpus, compressed and decompressed through the CLI."""

    def __init__(self, family: str, seed: int, plan: Plan, inputs: Inputs, workdir: Path) -> None:
        self.family, self.inputs, self.workdir = family, inputs, workdir
        self.sizes = plan.stream_bytes[family]
        self.golden = GOLDEN["streams"][family] if seed == 0 and plan == DEFAULT_PLAN else None
        self.times = {c: ([], []) for c in CORPORA}  # corpus -> ([compress s], [decompress s])
        self.payload: dict[str, int] = {}  # corpus -> payload bytes
        self.digests: dict[str, str] = {}  # corpus -> artifact sha256
        self.ops = [Op("stream", self.sizes[c], self._op(c)) for c in CORPORA]

    def _op(self, c: str) -> Callable[[], bool]:
        src = self.workdir / f"{c}.in"
        art, dst = self.workdir / f"{c}.kz", self.workdir / f"{c}.out"
        model = STREAM_MODELS[self.family]

        def run() -> bool:
            start = clock()
            code, out = _cli(["compress", str(src), str(art), "--model", model])
            mid = clock()
            if code:
                return False
            code = _cli(["decompress", str(art), str(dst)])[0]
            end = clock()
            if code:
                return False
            self.times[c][0].append(mid - start)
            self.times[c][1].append(end - mid)
            self.payload[c] = json.loads(out)["payload_bytes"]
            digest = hashlib.sha256(art.read_bytes()).hexdigest()
            expected = self.golden[c] if self.golden else self.digests.get(c, digest)
            self.digests[c] = digest
            return dst.read_bytes() == self.inputs.streams[c] and digest == expected

        return run

    def metrics(self, outcome: Outcome) -> None:
        outcome.report["stream_sha256"] = dict(sorted(self.digests.items()))
        outcome.report["stream_times_s"] = self.times  # [compress], [decompress]
        if not all(self.times[c][0] for c in CORPORA):
            return  # every round trip of some stream failed; `failed` says so
        for i, direction in enumerate(("compress", "decompress")):
            # each corpus weighs the same: the mean over streams of the mean per-byte time
            per_byte = statistics.fmean(statistics.fmean(self.times[c][i]) / self.sizes[c] for c in CORPORA)
            outcome.metrics[f"{direction}_kBps"] = 1e-3 / per_byte
        outcome.metrics["bpb"] = 8 * sum(self.payload.values()) / sum(self.sizes.values())


# --- sessions ------------------------------------------------------------------


class Sessions:
    """Conditional round trips: code r given k+m, through the wire format."""

    def __init__(self, family: str, seed: int, plan: Plan, inputs: Inputs) -> None:
        self.records = inputs.records
        self.config = PredictorConfig.from_spec(SESSION_MODELS[family])
        self.golden = GOLDEN["sessions"][family] if seed == 0 and plan == DEFAULT_PLAN else None
        self.latency: list[float] = []
        self.artifacts: dict[int, bytes] = {}  # record index -> serialized artifact
        self.ops = [Op("session", len(rec.r), self._op(i)) for i, rec in enumerate(self.records)]

    def _op(self, i: int) -> Callable[[], bool]:
        rec, config = self.records[i], self.config
        context = rec.k + rec.m

        def run() -> bool:
            start = clock()
            artifact, _ = pipeline.compress_conditional(rec.r, context, config)
            blob = pipeline.serialize(artifact)
            back = pipeline.decompress(pipeline.deserialize(blob), context)
            self.latency.append(clock() - start)
            first = self.artifacts.setdefault(i, blob)
            return back == rec.r and blob == first

        return run

    def metrics(self, outcome: Outcome) -> None:
        blobs = [self.artifacts.get(i) for i in range(len(self.records))]
        if None in blobs:
            return  # a session raised; `failed` says so
        ms = [1e3 * s for s in self.latency]
        p99 = statistics.quantiles(ms, n=100)[98]
        outcome.report["sessions"] = {"count": len(ms), "p50_ms": statistics.median(ms), "p99_ms": p99}
        outcome.metrics["cond_rt_ms_mean"] = statistics.fmean(ms)
        outcome.metrics["cond_rt_ms_p99"] = p99
        payload = sum(len(pipeline.deserialize(b).payload) for b in blobs)
        outcome.metrics["cond_bpb"] = 8 * payload / sum(len(rec.r) for rec in self.records)
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()
        outcome.report["session_sha256"] = digest
        if self.golden and digest != self.golden:
            outcome.failed += 1
            outcome.errors.append("session artifacts differ from golden.json")


# --- kc --------------------------------------------------------------------------


def _witness_ok(est, x: str, y: str) -> bool:
    if est.witness is None:
        return est.value_bits == est.ceiling_bits
    run = kclab.run_program(est.witness, y, t=est.budget)
    return run.status == kclab.HALTED and run.output == x and est.value_bits == est.witness.bit_length


def _curve_ok(curve, x: str, y: str) -> bool:
    values = [est.value_bits for est in curve]
    return (
        all(a >= b for a, b in zip(values, values[1:]))
        and all(est.value_bits <= est.ceiling_bits for est in curve)
        and all(_witness_ok(est, x, y) for est in curve)
    )


class KcSweep:
    """Pure-Python kclab: joint-bound gaps and phi budget curves, one op a pass."""

    def __init__(self, plan: Plan, inputs: Inputs) -> None:
        self.pairs = inputs.pairs
        self.strings = list(kclab.all_bit_strings(plan.kc_curve_bits))
        self.gaps = {L: RECORDED_GAPS[L] for L in plan.kc_gap_lengths}
        self.phi_per_pass = (
            sum(3 * ((2 << L) - 1) ** 2 for L in self.gaps)  # joint_bound_report: 3 phi per pair
            + len(self.strings) * (2 * len(PHI_SCHEDULE) + 1)
            + 2  # the all-ones curve
            + len(self.pairs) * len(PHI_SCHEDULE)
        )
        self.rates: list[float] = []
        self.ops = [Op("kc", 0, self.run)]

    def run(self) -> bool:
        start = clock()
        found = {L: kclab.family_max_gap(L, 64) for L in self.gaps}
        curves = [(x, y, kclab.phi_curve(x, y, PHI_SCHEDULE)) for x in self.strings for y in ("", x)]
        self_bits = [kclab.phi(max(1, len(x)), x, x).value_bits for x in self.strings]
        ones = kclab.phi_curve("1" * 8, "", (4, 8))
        curves += [(x, y, kclab.phi_curve(x, y, PHI_SCHEDULE)) for x, y in self.pairs]
        self.rates.append(self.phi_per_pass / (clock() - start))
        return (
            found == self.gaps
            and all(_curve_ok(curve, x, y) for x, y, curve in curves)
            and max(self_bits) <= 3
            and [est.value_bits for est in ones] == [24, 12]
        )

    def metrics(self, outcome: Outcome) -> None:
        outcome.report["kc"] = {"passes": len(self.rates), "phi_per_pass": self.phi_per_pass}
        if self.rates:
            outcome.metrics["kc_phi_per_s"] = max(self.rates)  # the best pass


# --- the workload ------------------------------------------------------------------


def _layers(tracer, outcome: Outcome, kc: KcSweep) -> None:
    """Collect the per-layer metrics and failed self-checks of a traced run."""
    for name in ("generate", "worksheet"):
        span = tracer.span(f"sources.{name}", "setup")
        outcome.metrics[f"sources.{name}_s"] = span.total_s / SETUP_REPEATS
        if not span.calls:
            outcome.errors.append(f"sources.{name} never called")
    for part in ("stream", "session"):
        metrics, failures = tracing.session_layers(tracer, part)
        outcome.metrics.update({f"{name}.{part}": v for name, v in metrics.items()})
        outcome.errors += failures
    main = tracer.span("cli.main", "stream")
    coded = tracer.coded.get("stream", 0) or 1
    if not main.calls:
        outcome.errors.append("stream: cli.main never called")
    outcome.metrics["cli.main.self_ms"] = 1e3 * main.self_s / (main.calls or 1)
    for direction in ("compress", "decompress"):
        span = tracer.span(f"pipeline.{direction}", "stream")
        outcome.metrics[f"pipeline.{direction}.self_us_per_byte"] = 1e6 * span.self_s / coded
    for direction in ("serialize", "deserialize"):
        span = tracer.span(f"pipeline.{direction}", "session")
        outcome.metrics[f"pipeline.{direction}.us_per_call"] = tracing.per_call_us(span)
    outcome.metrics["pipeline.sessions"] = tracer.span("pipeline.compress", "session").calls
    phi = tracer.span("kclab.phi", "kc")
    expected = kc.phi_per_pass * TRACE_PASSES
    if phi.calls != expected:
        outcome.errors.append(f"kclab.phi.calls {phi.calls} != {expected} expected")
    outcome.metrics["kclab.phi.us_per_call"] = tracing.per_call_us(phi)
    outcome.metrics["kclab.phi.calls"] = phi.calls


def run_family(family: str, seed: int, seconds: float, plan: Plan, tracer, workdir: Path) -> Outcome:
    """Streams, sessions and kc passes under one model family."""
    outcome = Outcome()
    inputs = _build(family, seed, plan, tracer, outcome, workdir)
    streams = Streams(family, seed, plan, inputs, workdir)
    sessions = Sessions(family, seed, plan, inputs)
    kc = KcSweep(plan, inputs)
    if tracer:  # the fixed job
        parts = {"stream": streams.ops, "session": sessions.ops[:TRACE_RECORDS], "kc": kc.ops * TRACE_PASSES}
        drive(parts, 0, tracer, outcome)
        _layers(tracer, outcome, kc)
    else:
        drive({"stream": streams.ops, "session": sessions.ops, "kc": kc.ops}, seconds, None, outcome)
        for part in (streams, sessions, kc):
            part.metrics(outcome)
    return outcome
