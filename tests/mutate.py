"""Mutation check for the tests of the step module and the pipeline.

Each mutant below changes one line of ``src/kolmozip/_kernel.c``,
``_kernel_numpy.py`` or ``pipeline.py``: a comparison flipped, a bound off
by one, a check dropped, a clamp removed, a message reworded.  For each
mutant the script copies ``src/`` into a temporary directory, applies the
mutant there and runs, with ``pytest -x -q``, the suites that cover its
file (SUITES) against the copy, one mutant at a time.  A C mutant builds
its extension into a temporary ``XDG_CACHE_HOME``; the others share one
build of the unmutated extension.  A mutant is killed when that run fails
(or outlives its timeout).  Nothing is written into ``src/``.

    python tests/mutate.py                                        # every mutant
    python tests/mutate.py c-search-side-left np-state-unsorted   # these two

The last line printed is the kill set as JSON.  Hypothesis runs with a fixed
seed, so a second run of the same suite kills the same mutants.  A step
function added to the module adds its mutants to MUTANTS.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
C, NP, PIPELINE = "_kernel.c", "_kernel_numpy.py", "pipeline.py"
TIMEOUT_S = 300
# the suites in tests/ that cover each mutated file
SUITES = {
    C: ["test_kernel.py"],
    NP: ["test_kernel.py"],
    PIPELINE: ["test_pipeline.py", "test_cli.py", "test_acceptance.py"],
}
# the tests that bound wall time, left out: a bound on time tells nothing of a mutant
TIMED = [
    "tests/test_acceptance.py::test_01_round_trip_every_kind_and_corpus",
    "tests/test_acceptance.py::test_08_phi_budget_curves_and_doubling_witness",
]

# name: (file, the text of one line, what replaces it); the text occurs once in the file
MUTANTS = {
    # get_array and the array contract
    "c-ndim-check-dropped": (C, "else if (view->ndim != 1)", "else if (0)"),
    "c-contiguity-check-dropped": (
        C, "else if (!PyBuffer_IsContiguous(view, 'C'))", "else if (!PyBuffer_IsContiguous(view, 'C') && 0)"
    ),
    "c-writable-check-dropped": (C, "else if (writable && view->readonly)", "else if (0 && view->readonly)"),
    "c-byte-order-flipped": (C, "*f == (PY_BIG_ENDIAN ? '>' : '<')", "*f == (PY_BIG_ENDIAN ? '<' : '>')"),
    "c-int64-message-changed": (C, 'why = "must be int64";', 'why = "must be an int64";'),
    # quantize
    "c-alphabet-bound-off-by-one": (C, "if (m < 2 || m > PROB_SCALE) {", "if (m < 2 || m > PROB_SCALE + 1) {"),
    "c-cum-length-check-loosened": (C, "if (n_cum != m + 1) {", "if (n_cum < m + 1) {"),
    "c-total-limit-off-by-one": (
        C, "if (bits >= 0 && (bits >= TOTAL_LIMIT || total >= TOTAL_LIMIT))",
        "if (bits >= 0 && (bits >= TOTAL_LIMIT || total > TOTAL_LIMIT))",
    ),
    "c-zero-total-check-dropped": (C, "if (bits < 0 || total == 0)", "if (bits < 0)"),
    "c-ties-to-higher-index": (
        C, "base[i] += (rem[i] << 16) + (m - 1 - i) >= threshold;", "base[i] += (rem[i] << 16) + i >= threshold;"
    ),
    "c-leftover-threshold-off-by-one": (
        C, "base[i] += (rem[i] << 16) + (m - 1 - i) >= threshold;", "base[i] += (rem[i] << 16) + (m - 1 - i) > threshold;"
    ),
    "c-row-limit-raised": (C, "#define TOTAL_LIMIT (INT64_C(1) << 37)", "#define TOTAL_LIMIT (INT64_C(1) << 38)"),
    "c-exact-quotient-unrounded": (
        C, "const double near = (num * inv + BIAS) - BIAS;", "const double near = (num * inv + BIAS) - BIAS - 1.0;"
    ),
    "c-exact-quotient-uncorrected": (C, "q[i] = to_int(near) - under;", "q[i] = to_int(near);"),
    "c-exact-remainder-uncorrected": (C, "r[i] = above - total + (total & -under);", "r[i] = above - total;"),
    "c-pivot-count-inclusive": (C, "above += rem[i] > pivot;", "above += rem[i] >= pivot;"),
    "c-pivot-group-bound-off-by-one": (
        C, "if (above < leftover && leftover <= above + equal) {", "if (above < leftover && leftover < above + equal) {"
    ),
    "c-pivot-group-cut-one-late": (C, "return (pivot << 16) + (m - 1 - i);", "return (pivot << 16) + (m - 2 - i);"),
    "c-pivot-group-ties-to-higher-index": (C, "need -= rem[++i] == pivot;", "need -= rem[m - 1 - ++i] == pivot;"),
    "c-lower-side-wins-miscounted": (
        C, "wins = upper ? leftover : leftover - above - equal;", "wins = upper ? leftover : leftover - above;"
    ),
    "c-side-candidates-flipped": (
        C, "n += upper ? rem[i] > pivot : rem[i] < pivot;", "n += upper ? rem[i] < pivot : rem[i] > pivot;"
    ),
    "c-select-pivot-not-placed": (C, "        swap_i64(a, store, hi);", "        (void)0;"),
    # quantize's grouped path for count rows
    "c-grouped-limit-off-by-one": (
        C, "if (m - ones > GROUPED_LIMIT ||", "if (m - ones > GROUPED_LIMIT + 1 ||"
    ),
    "c-grouped-cut-one-late": (
        C, "int64_t cut = leftover - above - 1;", "int64_t cut = leftover - above;"
    ),
    "c-grouped-class-bound-one-past": (
        C, "if (above < leftover && leftover <= above + ones + equal) {",
        "if (above < leftover && leftover <= above + ones + equal + 1) {",
    ),
    "c-grouped-ties-to-higher-index": (
        C, "key[j] = (r[j] << 16) + (m - 1 - at[j]);", "key[j] = (r[j] << 16) + at[j];"
    ),
    "c-grouped-fill-difference-dropped": (
        C, "off += b[j] + (key[j] >= threshold) - b1 - (at[j] < c1);", "off += 0;"
    ),
    # range coder
    "c-symbol-bound-off-by-one": (
        C, 'get_int(args[2], 0, n - 1, "symbol %S outside [0, %lld)", &sym)',
        'get_int(args[2], 0, n, "symbol %S outside [0, %lld)", &sym)',
    ),
    "c-encode-interval-top-off-by-one": (
        C, "if (c0 < 0 || c0 >= c1 || c1 > PROB_SCALE) {", "if (c0 < 0 || c0 >= c1 || c1 > PROB_SCALE + 1) {"
    ),
    "c-encode-finished-check-dropped": (C, "    if (enc->finished) {", "    if (0) {"),
    "c-cache-byte-shift": (
        C, "enc->cache = (unsigned)(low >> 24) & 0xFF;", "enc->cache = (unsigned)(low >> 16) & 0xFF;"
    ),
    "c-flush-one-byte-short": (C, "for (int i = 0; i < FLUSH_BYTES; i++)", "for (int i = 0; i < FLUSH_BYTES - 1; i++)"),
    "c-decoder-reads-four-bytes": (C, "for (int i = 0; i < 5; i++) {", "for (int i = 0; i < 4; i++) {"),
    "c-target-clamp-off-by-one": (C, "if (target >= PROB_SCALE) /*", "if (target > PROB_SCALE) /*"),
    "c-search-side-left": (C, "if (cum[mid] <= target)", "if (cum[mid] < target)"),
    "c-decode-symbol-bound-off-by-one": (C, "if (sym < 0 || sym >= n - 1) {", "if (sym < 0 || sym >= n) {"),
    "c-decode-interval-check-dropped": (C, "    if (c0 < 0 || c1 > PROB_SCALE) {", "    if (c0 < 0) {"),
    "c-truncation-message-changed": (
        C, '"payload exhausted at byte %zd; stream is truncated"', '"payload exhausted at byte %zd; truncated"'
    ),
    # net
    "c-empty-softmax-accepted": (C, "net->softmax_len < 1) {", "net->softmax_len < 0) {"),
    "c-softmax-zero-first-entry-accepted": (C, "int ok = net->softmax[0] > 0;", "int ok = net->softmax[0] >= 0;"),
    "c-softmax-limit-off-by-one": (
        C, "ok &= net->softmax[i] >= 0 && net->softmax[i] < SOFTMAX_LIMIT;",
        "ok &= net->softmax[i] >= 0 && net->softmax[i] <= SOFTMAX_LIMIT;",
    ),
    "c-softmax-last-entry-unchecked": (
        C, "for (int64_t i = 0; i < net->softmax_len; i++)", "for (int64_t i = 0; i < net->softmax_len - 1; i++)"
    ),
    "c-net-table-not-kept": (C, "    table_write(&net->table, net->buf + 2 * net->w);", "    (void)0;"),
    "c-gradient-multiplier-off-by-one": (
        C, "divide_row(weights, a, total, ONE, dlog, rem);", "divide_row(weights, a, total, ONE - 1, dlog, rem);"
    ),
    "c-learning-rate-bound-off-by-one": (
        C, 'get_int(args[N_ARRAYS], 1, MAX_LR + 1,', 'get_int(args[N_ARRAYS], 1, MAX_LR + 2,'
    ),
    "c-hidden-clamp-off-by-one": (C, "hidden[j] = clamp(pre[j], ONE);", "hidden[j] = clamp(pre[j], ONE - 1);"),
    "c-softmax-gap-shift": (
        C, "int64_t gap = floor_shift(top - logits[s], 8);", "int64_t gap = floor_shift(top - logits[s], 7);"
    ),
    "c-floor-shift-truncates": (C, "return x >= 0 ? x >> s : ~(~x >> s);", "return x >= 0 ? x >> s : -(-x >> s);"),
    "c-saturation-mask-flipped": (
        C, "dpre[j] = hidden[j] == pre[j] ? floor_shift(acc, 16) : 0;",
        "dpre[j] = hidden[j] != pre[j] ? floor_shift(acc, 16) : 0;",
    ),
    "c-w2-clamp-removed": (
        C, "row[s] = clamp(row[s] - floor_shift(hl * dlog[s], shift2), WEIGHT_CLIP);",
        "row[s] = row[s] - floor_shift(hl * dlog[s], shift2);",
    ),
    "c-output-shift-off-by-one": (
        C, "const int shift2 = 32 + net->width_shift;", "const int shift2 = 31 + net->width_shift;"
    ),
    "c-b1-step-sign-flipped": (
        C, "net->b1[j] = clamp(net->b1[j] - dpre[j], WEIGHT_CLIP);",
        "net->b1[j] = clamp(net->b1[j] + dpre[j], WEIGHT_CLIP);",
    ),
    # freq
    "c-freq-order-bound-off-by-one": (
        C, 'get_int(args[0], 0, MAX_ORDER + 1, "freq order', 'get_int(args[0], 0, MAX_ORDER + 2, "freq order'
    ),
    "c-freq-row-length-check-loosened": (C, "if (n != ALPHABET) {", "if (n < ALPHABET) {"),
    "c-halving-threshold-off-by-one": (C, "if (c >= COUNT_LIMIT) {", "if (c > COUNT_LIMIT) {"),
    "c-halving-floor-removed": (C, "counts[s] = half ? half : 1;", "counts[s] = half;"),
    "c-context-grows-past-order": (
        C, "(key_len(f->ctx) < (uint32_t)f->order);", "(key_len(f->ctx) <= (uint32_t)f->order);"
    ),
    "c-sort-key-unaligned": (
        C, "return (key & 0xFFFFFF) << 8 * (MAX_ORDER - n) << 8 | n;", "return (key & 0xFFFFFF) << 8 | n;"
    ),
    "c-state-high-byte-dropped": (C, "p[1] = (unsigned char)(counts[s] >> 8);", "p[1] = 0;"),
    "c-freq-table-not-kept": (C, "    table_write(&f->table, f->row);", "    (void)0;"),
    # keep_table
    "c-kept-table-length-check-loosened": (C, "if (n != ALPHABET + 1) {", "if (n < ALPHABET + 1) {"),
    "c-kept-table-not-replaced": (C, "    table->cum = view.buf;", "    table->cum = table->cum ? table->cum : view.buf;"),
    "c-kept-table-takes-any-state": (C, "    else if (Py_IS_TYPE(args[0], &freq_type))", "    else if (1)"),
    # the twin
    "np-ndim-check-loosened": (NP, "    elif a.ndim != 1:", "    elif a.ndim > 1:"),
    "np-writable-check-dropped": (NP, "    elif writable and not a.flags.writeable:", "    elif False:"),
    "np-zero-total-check-dropped": (NP, "    if bits < 0 or total == 0:", "    if bits < 0:"),
    "np-row-limit-raised": (NP, "_TOTAL_LIMIT = 1 << 37", "_TOTAL_LIMIT = 1 << 38"),
    "np-alphabet-bound-off-by-one": (NP, "    if not 2 <= m <= PROB_SCALE:", "    if not 1 <= m <= PROB_SCALE:"),
    "np-ties-to-higher-index": (
        NP, "key += np.arange(m - 1, -1, -1, dtype=np.int64)", "key += np.arange(m, dtype=np.int64)"
    ),
    "np-cache-byte-mask": (NP, "enc.cache = (low >> 24) & 0xFF", "enc.cache = (low >> 24) & 0x7F"),
    "np-target-clamp-off-by-one": (NP, "        target = PROB_SCALE - 1", "        target = PROB_SCALE"),
    "np-search-side-left": (NP, 'cum.searchsorted(target, "right")', 'cum.searchsorted(target, "left")'),
    "np-learning-rate-bound-off-by-one": (NP, "if not 1 <= lr <= MAX_LR:", "if not 1 <= lr < MAX_LR:"),
    "np-saturation-mask-flipped": (NP, "dpre *= hidden == pre", "dpre *= hidden != pre"),
    "np-softmax-wraps": (
        NP, 'n.softmax.take(gap, out=n.weights, mode="clip")', 'n.softmax.take(gap, out=n.weights, mode="wrap")'
    ),
    "np-halving-threshold-off-by-one": (NP, "if counts[token] >= COUNT_LIMIT:", "if counts[token] > COUNT_LIMIT:"),
    "np-state-unsorted": (NP, "for key in sorted(f.counts):", "for key in f.counts:"),
    "np-freq-row-length-check-loosened": (NP, "if row.size != ALPHABET:", "if row.size < ALPHABET:"),
    "np-softmax-negative-entry-accepted": (NP, "int(softmax.min()) >= 0", "int(softmax.min()) >= -1"),
    "np-kept-table-length-check-loosened": (NP, "if cum.size != ALPHABET + 1:", "if cum.size < ALPHABET + 1:"),
    "np-freq-table-not-kept": (NP, "    _write_table(f, f.row)", "    pass"),
    "np-no-buffer-message-changed": (
        NP, """raise TypeError(f"a bytes-like object is required, not '{type(a).__name__}'") from None""",
        """raise TypeError(f"a buffer is required, not '{type(a).__name__}'") from None""",
    ),
    "np-weights-message-changed": (
        NP, '_BAD_WEIGHTS = "weights must be nonnegative with one positive"',
        '_BAD_WEIGHTS = "weights must be non-negative with one positive"',
    ),
    # the pipeline
    "pipeline-audit-skips-first-token": (PIPELINE, "        if audit:", "        if audit and i:"),
    "pipeline-audit-check-dropped": (PIPELINE, "    if audit is not None and not callable(audit):", "    if False:"),
    "pipeline-left-over-check-loosened": (PIPELINE, "    if unread:", "    if unread > 1:"),
    "pipeline-trailing-bytes-check-dropped": (PIPELINE, "    if pos + payload_len < len(blob):", "    if False:"),
    "pipeline-token-cap-off-by-one": (PIPELINE, "if d >= MAX_INPUT or", "if d > MAX_INPUT or"),
}


def apply(src: Path, name: str) -> None:
    """Write mutant name into the copy of the package under src."""
    file, old, new = MUTANTS[name]
    path = src / "kolmozip" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times in {file}")
    path.write_text(text.replace(old, new))


def _env(work: Path, cache: Path) -> dict:
    return dict(
        os.environ, PYTHONPATH=str(work / "src"), XDG_CACHE_HOME=str(cache),
        HYPOTHESIS_STORAGE_DIRECTORY=str(work / "hypothesis"),
    )


def _builds(env: dict, cwd: Path) -> bool:
    build = [sys.executable, "-c", "from kolmozip import kernel; raise SystemExit(not kernel.build_and_load())"]
    return not subprocess.run(build, env=env, cwd=cwd, capture_output=True).returncode


def run(name: str, shared_cache: Path) -> str:
    """killed, survived or unbuilt: the suite's verdict on mutant name.
    A mutant of a Python file loads the extension built in shared_cache."""
    file = MUTANTS[name][0]
    with tempfile.TemporaryDirectory(prefix="kolmozip-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(REPO / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        apply(work / "src", name)
        env = _env(work, work / "cache" if file == C else shared_cache)
        if file == C and not _builds(env, work):  # a C mutant that does not compile tests nothing
            return "unbuilt"
        suite = [sys.executable, "-m", "pytest", *(str(REPO / "tests" / test) for test in SUITES[file])]
        suite += ["-x", "-q"]
        suite += ["-p", "no:cacheprovider", "--hypothesis-seed=0", "--rootdir", str(REPO)]
        suite += [arg for test in TIMED for arg in ("--deselect", test)]
        try:
            done = subprocess.run(suite, env=env, cwd=work, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
        return "killed" if done.returncode else "survived"


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants: {' '.join(unknown)}")
    killed = []
    with tempfile.TemporaryDirectory(prefix="kolmozip-mutants-") as tmp:
        shared_cache = Path(tmp) / "cache"
        if not _builds(_env(REPO, shared_cache), Path(tmp)):
            raise SystemExit("the unmutated extension does not build")
        for name in names or MUTANTS:
            start = time.monotonic()
            verdict = run(name, shared_cache)
            print(f"{verdict:9} {time.monotonic() - start:6.1f} s  {name}", flush=True)
            killed += [name] if verdict == "killed" else []
    print(json.dumps(sorted(killed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
