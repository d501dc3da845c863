"""CLI surface: exit codes, JSONL reports, atomic output files, "-" and special files."""

from __future__ import annotations

import argparse
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import kolmozip
from kolmozip.cli import build_parser, main
from kolmozip.pipeline import CompressedArtifact, deserialize, serialize
from kolmozip.rng import Lcg64
from kolmozip.sources import read_worksheet


def run(capsys, *argv: str) -> tuple[int, list[dict], str]:
    """Invoke main(); return (exit code, parsed stdout records, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    return code, records, captured.err


@pytest.fixture
def sample(tmp_path):
    path = tmp_path / "sample.bin"
    path.write_bytes(bytes(Lcg64(5).below(97) for _ in range(4096)))
    return path


def test_compress_decompress_round_trip(tmp_path, sample, capsys):
    art = tmp_path / "sample.kz"
    out = tmp_path / "sample.out"
    code, records, _ = run(capsys, "compress", str(sample), str(art), "--model", "freq:1")
    assert code == 0
    assert records[0]["input_bytes"] == 4096
    assert records[0]["config"] == "freq:1"
    code, records, _ = run(capsys, "decompress", str(art), str(out))
    assert code == 0 and records[0]["output_bytes"] == 4096
    assert out.read_bytes() == sample.read_bytes()


def test_reports_are_invocation_deterministic(tmp_path, sample, capsys):
    outs = []
    for name in ("a.kz", "b.kz"):
        art = tmp_path / name
        code, records, _ = run(
            capsys, "compress", str(sample), str(art), "--model", "neural:1,8", "--audit"
        )
        assert code == 0
        outs.append((records, art.read_bytes()))
    assert outs[0] == outs[1]


def test_audit_digest_chain_matches_across_directions(tmp_path, sample, capsys):
    art = tmp_path / "s.kz"
    out = tmp_path / "s.out"
    _, enc, _ = run(capsys, "compress", str(sample), str(art), "--model", "freq:0", "--audit")
    _, dec, _ = run(capsys, "decompress", str(art), str(out), "--audit")
    assert enc[0]["digest_chain"] == dec[0]["digest_chain"]


def test_conditional_cycle_requires_context(tmp_path, capsys):
    ctx = tmp_path / "ctx.bin"
    tgt = tmp_path / "tgt.bin"
    ctx.write_bytes(b"the quick brown fox " * 100)
    tgt.write_bytes(b"the quick brown fox " * 40)
    art = tmp_path / "t.kz"
    out = tmp_path / "t.out"
    code, records, _ = run(
        capsys, "ccompress", str(tgt), str(art), "--context", str(ctx), "--model", "freq:2"
    )
    assert code == 0 and records[0]["context_bytes"] == 2000
    code, _, err = run(capsys, "decompress", str(art), str(out))
    assert code == 2 and "context" in err and not out.exists()
    code, _, _ = run(capsys, "decompress", str(art), str(out), "--context", str(ctx))
    assert code == 0 and out.read_bytes() == tgt.read_bytes()


def test_wrong_magic_exits_2_without_partial_output(tmp_path, capsys):
    bad = tmp_path / "junk.kz"
    bad.write_bytes(b"NOTKZV1\x00\x00\x00\x00\x00")
    out = tmp_path / "junk.out"
    code, records, err = run(capsys, "decompress", str(bad), str(out))
    assert code == 2 and records == [] and "magic" in err
    assert not out.exists()


def test_truncated_artifact_exits_2_without_partial_output(tmp_path, sample, capsys):
    art = tmp_path / "s.kz"
    run(capsys, "compress", str(sample), str(art), "--model", "freq:0")
    art.write_bytes(art.read_bytes()[:-3])
    out = tmp_path / "s.out"
    code, _, _ = run(capsys, "decompress", str(art), str(out))
    assert code == 2 and not out.exists()


def test_payload_with_an_appended_byte_exits_2(tmp_path, sample, capsys):
    art = tmp_path / "s.kz"
    run(capsys, "compress", str(sample), str(art), "--model", "freq:1")
    a = deserialize(art.read_bytes())
    art.write_bytes(serialize(CompressedArtifact(a.config, a.d, 0, a.payload + b"\x00")))
    out = tmp_path / "s.out"
    code, records, err = run(capsys, "decompress", str(art), str(out))
    assert code == 2 and records == [] and "left over" in err
    assert not out.exists()


def test_outputs_get_the_umask_default_mode(tmp_path, sample, capsys):
    art, out, gen = tmp_path / "s.kz", tmp_path / "s.out", tmp_path / "g.bin"
    old = os.umask(0o022)
    try:
        assert run(capsys, "compress", str(sample), str(art), "--model", "uniform")[0] == 0
        assert run(capsys, "decompress", str(art), str(out))[0] == 0
        assert run(capsys, "gen", "worksheet", str(gen), "--count", "3")[0] == 0
    finally:
        os.umask(old)
    for path in (art, out, gen):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path


@pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
def test_an_existing_output_keeps_its_mode(tmp_path, sample, capsys, mode):
    # a private file coded over a private file stays private, as a plain open() leaves it
    art, cart, out = tmp_path / "s.kz", tmp_path / "c.kz", tmp_path / "s.out"
    for path in (art, cart, out):
        path.write_bytes(b"old")
        path.chmod(mode)
    old = os.umask(0o022)
    try:
        assert run(capsys, "compress", str(sample), str(art), "--model", "uniform")[0] == 0
        assert run(capsys, "ccompress", str(sample), str(cart), "--context", str(art), "--model", "freq:1")[0] == 0
        assert run(capsys, "decompress", str(art), str(out))[0] == 0
    finally:
        os.umask(old)
    assert out.read_bytes() == sample.read_bytes()
    for path in (art, cart, out):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path


def test_usage_errors_exit_1(tmp_path, sample, capsys):
    art = tmp_path / "x.kz"
    cases = [
        ("compress", str(sample), str(art), "--model", "bogus:9"),
        ("compress", str(tmp_path / "missing"), str(art), "--model", "uniform"),
        ("frobnicate",),
        ("kc", "phi", "--x", "0121"),
        ("kc", "phi", "--x", "1", "--curve", "8,4"),  # schedule must increase
    ]
    for argv in cases:
        code = main(list(argv))
        capsys.readouterr()
        assert code == 1, argv
    assert not art.exists()


def test_gen_markov_is_seed_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    args = ("--order", "1", "--alphabet", "4", "--seed", "9", "--len", "1000")
    assert run(capsys, "gen", "markov", str(a), *args)[0] == 0
    assert run(capsys, "gen", "markov", str(b), *args)[0] == 0
    assert a.read_bytes() == b.read_bytes() and a.stat().st_size == 1000


def test_gen_worksheet_file_parses(tmp_path, capsys):
    path = tmp_path / "w.bin"
    code, records, _ = run(capsys, "gen", "worksheet", str(path), "--seed", "3", "--count", "25")
    assert code == 0 and records[0]["count"] == 25
    with open(path, "rb") as fh:
        parsed = read_worksheet(fh)
    assert len(parsed) == 25 and all(int(r.r) < 20000 for r in parsed)


def test_ladder_reports_in_config_order(tmp_path, sample, capsys):
    code, records, _ = run(
        capsys, "ladder", str(sample), "--models", "uniform,freq:0,freq:1"
    )
    assert code == 0
    assert [r["config"] for r in records] == ["uniform", "freq:0", "freq:1"]
    assert abs(records[0]["bpb"] - 8.0) < 0.1


def test_cli_import_loads_neither_the_kernel_nor_a_process_pool(sample):
    # nor fractions, which only the exact-rational test oracles use; nor
    # does a ladder: it runs its models one after another in this process
    code = (
        "import sys, kolmozip.cli; from kolmozip import kernel; "
        "assert kernel.load.cache_info().currsize == 0, 'kernel loaded'; "
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'; "
        "assert 'fractions' not in sys.modules, 'fractions imported'; "
        f"assert kolmozip.cli.main(['ladder', {str(sample)!r}, '--models', 'freq:0,freq:1,freq:2']) == 0; "
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported by the ladder'; "
        "assert 'concurrent.futures.process' not in sys.modules, 'process pool imported'"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(kolmozip.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert [json.loads(line)["config"] for line in done.stdout.splitlines()] == [
        "freq:0",
        "freq:1",
        "freq:2",
    ]


def test_audit_help_is_one_text_that_states_its_cost():
    # compress, ccompress and decompress describe --audit the same way
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {
        name: action.help
        for name in ("compress", "ccompress", "decompress")
        for action in commands.choices[name]._actions
        if "--audit" in action.option_strings
    }
    assert set(helps) == {"compress", "ccompress", "decompress"}
    (text,) = set(helps.values())
    assert "cost grows" in text


def test_one_parser_serves_every_call_as_a_fresh_one_does(tmp_path, capsys, monkeypatch):
    # main() calls in one process, a usage error and a help text among them,
    # exit and print as the same calls in fresh interpreters do
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps alike on both sides
    chain = tmp_path / "chain.bin"
    calls = [
        ("gen", "markov", str(chain), "--order", "1", "--len", "64"),
        ("compress", str(chain)),  # no outfile and no --model
        ("kc", "phi", "--x", "0110"),
        ("kc", "--help"),
        ("gen", "markov", str(chain), "--order", "1", "--len", "64"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(kolmozip.__file__).parents[1]))
    for argv in calls:
        code = main(list(argv))
        got = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "kolmozip.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert build_parser() is build_parser()


def test_ladder_splits_neural_specs_despite_inner_comma(tmp_path, sample, capsys):
    code, records, _ = run(
        capsys, "ladder", str(sample), "--models", "freq:1,neural:1,8,neural:2,8"
    )
    assert code == 0
    assert [r["config"] for r in records] == ["freq:1", "neural:1,8", "neural:2,8"]


def test_kc_phi_curve_golden(capsys):
    code, records, _ = run(capsys, "kc", "phi", "--x", "11111111", "--y", "", "--curve", "4,8")
    assert code == 0
    assert [r["value_bits"] for r in records] == [24, 12]
    assert records[0]["witness"] is None
    assert records[1]["witness"] == ["OUT1", "OUT1", "DBL", "DBL"]
    assert records[1]["steps_of_witness"] == 8


def test_kc_joint_report_fields(capsys):
    code, records, _ = run(capsys, "kc", "joint", "--x", "1", "--y", "1", "--t", "64")
    assert code == 0
    rec = records[0]
    assert rec["pair_bits"] == 12 and rec["decomposed_bits"] == 10 and rec["gap"] == 2


def _reader(fifo: Path) -> tuple[threading.Thread, list[bytes]]:
    """A thread reading fifo to its end, and the list it leaves the bytes in."""
    got: list[bytes] = []
    thread = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    thread.start()
    return thread, got


def test_special_outputs_are_written_through_or_refused(tmp_path, sample, capsys):
    art = tmp_path / "s.kz"
    assert run(capsys, "compress", str(sample), str(art), "--model", "freq:1")[0] == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    thread, got = _reader(fifo)
    code = run(capsys, "compress", str(sample), str(fifo), "--model", "freq:1")[0]
    thread.join(timeout=30)
    assert code == 0 and stat.S_ISFIFO(fifo.stat().st_mode) and got == [art.read_bytes()]
    # a directory is refused, named as it was given, and left empty
    directory = tmp_path / "d"
    directory.mkdir()
    code, _, err = run(capsys, "compress", str(sample), str(directory), "--model", "freq:1")
    assert code == 1 and f"Is a directory: '{directory}'" in err and list(directory.iterdir()) == []


def test_a_symlink_output_replaces_its_target(tmp_path, sample, capsys):
    art, target, link = tmp_path / "s.kz", tmp_path / "real.kz", tmp_path / "link.kz"
    assert run(capsys, "compress", str(sample), str(art), "--model", "freq:1")[0] == 0
    target.write_bytes(b"old")
    link.symlink_to(target)
    assert run(capsys, "compress", str(sample), str(link), "--model", "freq:1")[0] == 0
    assert link.is_symlink() and target.read_bytes() == art.read_bytes()


def test_an_input_that_is_the_output_is_refused_before_writing(tmp_path, sample, capsys):
    before = sample.read_bytes()
    code, records, err = run(capsys, "compress", str(sample), str(sample), "--model", "freq:1")
    assert code == 1 and records == [] and "same file" in err
    target = tmp_path / "t.bin"
    target.write_bytes(b"abc" * 50)
    code, _, err = run(capsys, "ccompress", str(target), str(sample), "--context", str(sample), "--model", "freq:1")
    assert code == 1 and "same file" in err
    assert sample.read_bytes() == before


def test_a_bad_seed_is_reported_as_the_seed(tmp_path, sample, capsys):
    out = tmp_path / "o.kz"
    code, _, err = run(capsys, "compress", str(sample), str(out), "--model", "uniform", "--seed", "-1")
    assert code == 1 and "seed must fit in 64 bits" in err and "model spec" not in err
    assert not out.exists()


def test_dash_reads_stdin_and_writes_stdout(tmp_path, sample, capsys):
    art = tmp_path / "s.kz"
    _, records, _ = run(capsys, "compress", str(sample), str(art), "--model", "freq:1")
    env = dict(os.environ, PYTHONPATH=str(Path(kolmozip.__file__).parents[1]))

    def cli(*argv: str, data: bytes) -> subprocess.CompletedProcess:
        argv = [sys.executable, "-m", "kolmozip.cli", *argv]
        return subprocess.run(argv, input=data, env=env, capture_output=True, timeout=120)

    done = cli("compress", "-", "-", "--model", "freq:1", data=sample.read_bytes())
    assert done.returncode == 0 and done.stdout == art.read_bytes()
    # the report goes to stderr, unchanged, ahead of the summary
    assert json.loads(done.stderr.splitlines()[0]) == records[0]
    done = cli("decompress", "-", "-", data=art.read_bytes())
    assert done.returncode == 0 and done.stdout == sample.read_bytes()
    done = cli("decompress", "-", str(tmp_path / "out"), "--context", "-", data=art.read_bytes())
    assert done.returncode == 1 and b"stdin" in done.stderr and not (tmp_path / "out").exists()
