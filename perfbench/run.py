"""Seeded benchmark of the kolmozip package in this checkout.

    python3 perfbench/run.py --workload freq --seed 0 --seconds 30 --trace 0

Runs one workload (uniform, freq or neural: the model family) against
``src/kolmozip``, checks every output, and prints two JSON lines: a report
(provenance, sample counts, artifact digests, errors), then the result the
metrics are read from.  ``--trace 0`` gives the end-to-end metrics;
``--trace 1`` the per-layer metrics, taken with wrappers installed from
outside the package.  Metric names and units are those declared in
BENCHMARK.json, and a run that misses one is not correct.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 5  # this process and four fresh interpreters


@functools.cache
def _load():
    """Import the checkout's package (never an installed copy) and the workloads.

    Also returns the CPU seconds from process start to the end of the
    imports, the first part of the set-up time.
    """
    if not (SRC / "kolmozip" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kolmozip package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import tracing
    import workloads

    return time.process_time(), numpy, tracing, workloads


def _import_s() -> float:
    """Median CPU seconds from interpreter start to the end of the imports.

    Imports run once per interpreter, so the repeats are fresh ones.
    """
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; print(run._load()[0])"
    samples = [_load()[0]]
    for _ in range(IMPORT_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run(workload: str, seed: int, seconds: float, trace: bool, plan=None) -> tuple[dict, dict]:
    """Run one workload; return (result, report)."""
    _, numpy, tracing, workloads = _load()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    load_start = os.getloadavg()
    tracer = tracing.Tracer() if trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        outcome = workloads.run_family(
            workload, seed, seconds, plan or workloads.DEFAULT_PLAN, tracer, Path(workdir)
        )
    metrics = dict(outcome.metrics)
    if not trace:
        metrics["setup_s"] = _import_s() + outcome.build_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if metrics.keys() != units.keys():
        outcome.errors.append(f"metrics differ from BENCHMARK.json: {sorted(metrics.keys() ^ units.keys())}")
        metrics = {name: value for name, value in metrics.items() if name in units}
    result = {
        "correct": outcome.failed == 0 and not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "failures": outcome.failed / outcome.attempted if outcome.attempted else None,
        "provenance": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": _commit(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        **outcome.report,
        "errors": outcome.errors[:20],
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("uniform", "freq", "neural"))
    parser.add_argument("--seed", type=int, default=0, help="0 reproduces the acceptance corpora")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
