"""The benchmark's tracer against the package as it stands.

perfbench/tracing.py wraps package functions and methods by name, from
outside the package.  A renamed function, a method moved to a base class
or a coder call folded away would make the benchmark crash or count
wrong; these tests catch that where the package changes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from kolmozip import pipeline
from kolmozip.cli import main
from kolmozip.predictors import PredictorConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_tracer_finds_every_entry_point():
    # construction reads each patched name as an own attribute of its owner
    tracing.Tracer()


@pytest.mark.parametrize("model", ["uniform", "freq:2", "freq:3", "neural:1,8"])
def test_traced_stream_and_session_count_every_coded_byte(model, tmp_path, capsys):
    data = b"abracadabra, said the cat " * 40
    context, target = data[:300], data[300:700]
    src, art, out = tmp_path / "in", tmp_path / "in.kz", tmp_path / "out"
    src.write_bytes(data)
    config = PredictorConfig.from_spec(model)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.tag = "stream"
        assert main(["compress", str(src), str(art), "--model", model]) == 0
        assert main(["decompress", str(art), str(out)]) == 0
        tracer.tag = "session"
        artifact, _ = pipeline.compress_conditional(target, context, config)
        blob = pipeline.serialize(artifact)
        assert pipeline.decompress(pipeline.deserialize(blob), context) == target
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert out.read_bytes() == data
    tracer.coded = {"stream": len(data), "session": len(target)}
    for tag, trained in (("stream", len(data)), ("session", len(data[:700]))):
        metrics, failures = tracing.session_layers(tracer, tag)
        assert failures == []
        assert metrics["predictors.update.calls"] == 2 * trained  # both directions
        # each session predicts and quantizes its first table; every later
        # table comes out of the update before it
        assert metrics["predictors.predict.calls"] == 2
        assert tracer.span("coder.quantize", tag).calls == 2
