"""Tiny-size smoke test: every declared metric is emitted and nothing fails.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json

import pytest

import run


def _tiny_plan():
    workloads = run._load()[3]  # importable only once the package is on sys.path
    return workloads.Plan(
        stream_bytes={
            "uniform": {c: 256 for c in workloads.CORPORA},
            "freq": {c: 128 for c in workloads.CORPORA},
            "neural": {c: 48 for c in workloads.CORPORA},
        },
        session_records=dict.fromkeys(workloads.FAMILIES, 12),
        kc_gap_lengths=(2,),
        kc_curve_bits=3,
        kc_pairs=4,
    )


@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_without_failures(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    plan = _tiny_plan()
    for workload in (w["name"] for w in spec["workloads"]):
        result, report = run.run(workload, 1, 0.2, trace, plan)
        assert result["attempted"] > 0
        assert result["failed"] == 0, report["errors"]
        assert result["correct"], report["errors"]
        assert report["failures"] == 0
        assert {"nproc", "python", "numpy", "loadavg_start", "loadavg_end"} <= set(report["provenance"])
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == declared, workload
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)) and metric["value"] > 0, name
