"""Command-line front end: compression, generation, experiments, KC lab.

Machine-readable reports go to stdout as one JSON object per line; human
summaries go to stderr.  A file argument "-" is stdin or stdout; when the
data go to stdout, the report goes to stderr.  An output file is written to
a temp file in the directory of the file it names (the target, for a
symlink) and renamed into place, so a failing run never leaves a partial
file; an existing output that is not a regular file (a FIFO or a device) is
opened and written through.  An input that is the output file is refused
before anything is written.  Exit codes: 0 success, 1 usage error, 2
malformed or undecodable input.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import re
import stat
import sys
import tempfile

from .errors import KolmozipError
from .kclab import joint_bound_report, phi, phi_curve, run_program
from .pipeline import (
    compress,
    compress_conditional,
    decompress,
    deserialize,
    scaling_ladder,
    serialize,
)
from .predictors import PredictorConfig
from .sources import MarkovSpec, generate, worksheet_corpus, write_worksheet


def _emit(record: dict, outfile: str | None = None) -> None:
    # stdout is the data's when the output file is "-"
    (sys.stderr if outfile == "-" else sys.stdout).write(json.dumps(record) + "\n")


def _say(message: str) -> None:
    sys.stderr.write(message + "\n")


def _check_paths(inputs: list[str | None], outfile: str) -> None:
    """Refuse, before anything is read or written, two inputs read from
    stdin and an input that is the output file."""
    named = [path for path in inputs if path]
    if named.count("-") > 1:
        raise ValueError("only one input can be read from stdin ('-')")
    if outfile != "-" and os.path.exists(outfile):
        for path in named:
            if path != "-" and os.path.exists(path) and os.path.samefile(path, outfile):
                raise ValueError(f"{path} and {outfile} are the same file")


def _write_output(path: str, data: bytes) -> None:
    """Write data to path: stdout for "-", straight into an existing file
    that is not regular, else through a temporary file renamed into place."""
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    try:
        mode = os.stat(path).st_mode  # through any symlink
    except FileNotFoundError:
        mode = stat.S_IFREG
    if not stat.S_ISREG(mode):  # a FIFO, socket or device (or a directory, which open refuses)
        with open(path, "wb") as fh:
            fh.write(data)
        return
    target = os.path.realpath(path)  # a symlink's target is replaced, in its own directory
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".kolmozip-")
    except OSError as exc:  # name the file the user gave, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            # mkstemp creates the file 0600; give it the mode a plain
            # open() would, as cp and gzip do
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _bits(text: str) -> str:
    if set(text) <= {"0", "1"}:
        return text
    raise argparse.ArgumentTypeError(f"{text!r} is not a 0/1 string")


def _schedule(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of ints")


# --- subcommand bodies -------------------------------------------------------


def _cmd_compress(args: argparse.Namespace) -> int:
    """compress, or ccompress: the same, given the context file args.context."""
    _check_paths([args.infile, args.context], args.outfile)
    config = PredictorConfig.from_spec(args.model, seed=args.seed)
    data = _read_file(args.infile)
    record = {"config": config.spec_string(), "input_bytes": len(data)}
    chain = hashlib.md5() if args.audit else None
    audit = chain.update if chain else None
    if args.context is None:
        artifact, stats = compress(data, config, audit=audit)
        summary = f"{len(data)} -> {len(artifact.payload)} payload bytes"
    else:
        context = _read_file(args.context)
        artifact, stats = compress_conditional(data, context, config, audit=audit)
        record["context_bytes"] = len(context)
        summary = f"{len(data)} bytes given {len(context)} context bytes"
    _write_output(args.outfile, serialize(artifact))
    record.update(payload_bytes=len(artifact.payload), ideal_bits=stats.ideal_bits, bpb=stats.payload_bpb)
    if chain:
        record["digest_chain"] = chain.hexdigest()
    _emit(record, args.outfile)
    _say(f"{args.outfile}: {summary} ({stats.payload_bpb:.3f} bpb)")
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    _check_paths([args.infile, args.context], args.outfile)
    artifact = deserialize(_read_file(args.infile))
    context = _read_file(args.context) if args.context else b""
    chain = hashlib.md5() if args.audit else None
    data = decompress(artifact, context, audit=chain.update if chain else None)
    _write_output(args.outfile, data)
    record = {
        "config": artifact.config.spec_string(),
        "output_bytes": len(data),
    }
    if chain:
        record["digest_chain"] = chain.hexdigest()
    _emit(record, args.outfile)
    _say(f"{args.outfile}: {len(data)} bytes")
    return 0


def _cmd_gen_markov(args: argparse.Namespace) -> int:
    spec = MarkovSpec(args.order, args.alphabet, args.concentration, args.seed)
    _write_output(args.outfile, generate(spec, args.len))
    _emit(
        {
            "kind": "markov",
            "order": spec.order,
            "alphabet": spec.alphabet,
            "concentration": spec.concentration,
            "seed": spec.seed,
            "bytes": args.len,
        },
        args.outfile,
    )
    _say(f"{args.outfile}: {args.len} bytes of order-{spec.order} chain")
    return 0


def _cmd_gen_worksheet(args: argparse.Namespace) -> int:
    records = worksheet_corpus(args.seed, args.count)
    buf = io.BytesIO()
    write_worksheet(records, buf)
    _write_output(args.outfile, buf.getvalue())
    _emit(
        {
            "kind": "worksheet",
            "seed": args.seed,
            "count": args.count,
            "bytes": buf.tell(),
        },
        args.outfile,
    )
    _say(f"{args.outfile}: {args.count} records, {buf.tell()} bytes")
    return 0


def _split_models(text: str) -> list[str]:
    # "neural:K,W" has a comma inside it, so a new list element starts only
    # at a comma followed by a model family name
    return re.split(r",(?=(?:uniform|freq|neural)\b)", text)


def _cmd_ladder(args: argparse.Namespace) -> int:
    configs = [
        PredictorConfig.from_spec(part, seed=args.seed)
        for part in _split_models(args.models)
    ]
    data = _read_file(args.infile)
    for entry in scaling_ladder(data, configs):
        _emit(entry)
        _say(f"{entry['config']}: {entry['bpb']:.4f} bpb")
    return 0


def _kc_record(est, x: str, y: str) -> dict:
    witness = est.witness
    return {
        "x": x,
        "y": y,
        "t": est.budget,
        "value_bits": est.value_bits,
        "ceiling_bits": est.ceiling_bits,
        "witness": witness.names() if witness else None,
        "steps_of_witness": (
            run_program(witness, y, t=est.budget).steps_used if witness else None
        ),
    }


def _cmd_kc_phi(args: argparse.Namespace) -> int:
    if args.curve:
        estimates = phi_curve(args.x, args.y, args.curve)
    else:
        estimates = [phi(args.t, args.x, args.y)]
    for est in estimates:
        _emit(_kc_record(est, args.x, args.y))
        _say(f"phi(t={est.budget}) = {est.value_bits} bits")
    return 0


def _cmd_kc_joint(args: argparse.Namespace) -> int:
    report = joint_bound_report(args.x, args.y, args.t)
    _emit(report)
    _say(f"gap = {report['gap']} bits")
    return 0


def _read_file(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


# --- argument plumbing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for format/decode errors; argparse's
    # default usage-error exit is also 2, so route usage errors to 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_AUDIT_HELP = (
    "report a state digest chain; it hashes the model's whole state after"
    " every token, so its cost grows with that state (for freq, the counts"
    " of every context seen so far)"
)


def _add_model_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, help="uniform | freq:K | neural:K,W")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--audit", action="store_true", help=_AUDIT_HELP)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after: parsing
    leaves it as it was, and building it costs far more than a parse."""
    parser = _Parser(prog="kolmozip", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("compress", help="code a file under an online model")
    sub.add_argument("infile")
    sub.add_argument("outfile")
    _add_model_args(sub)
    sub.set_defaults(func=_cmd_compress, context=None)

    sub = commands.add_parser("decompress", help="reconstruct a compressed file")
    sub.add_argument("infile")
    sub.add_argument("outfile")
    sub.add_argument("--context", help="context file for conditional artifacts")
    sub.add_argument("--audit", action="store_true", help=_AUDIT_HELP)
    sub.set_defaults(func=_cmd_decompress)

    sub = commands.add_parser("ccompress", help="code a file given a context file")
    sub.add_argument("infile", metavar="target")
    sub.add_argument("outfile")
    sub.add_argument("--context", required=True)
    _add_model_args(sub)
    sub.set_defaults(func=_cmd_compress)

    gen = commands.add_parser("gen", help="synthesize corpora").add_subparsers(
        dest="source", required=True
    )
    sub = gen.add_parser("markov", help="order-k Markov chain bytes")
    sub.add_argument("outfile")
    sub.add_argument("--order", type=int, required=True)
    sub.add_argument("--alphabet", type=int, default=256)
    sub.add_argument("--concentration", type=int, default=8)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--len", type=int, required=True)
    sub.set_defaults(func=_cmd_gen_markov)
    sub = gen.add_parser("worksheet", help="(k, m, r) arithmetic records")
    sub.add_argument("outfile")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--count", type=int, required=True)
    sub.set_defaults(func=_cmd_gen_worksheet)

    sub = commands.add_parser("ladder", help="bpb across a model capacity ladder")
    sub.add_argument("infile")
    sub.add_argument("--models", required=True, help="comma list of model specs")
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_ladder)

    kc = commands.add_parser("kc", help="Kolmogorov workbench").add_subparsers(
        dest="probe", required=True
    )
    sub = kc.add_parser("phi", help="budget-t shortest-program estimate")
    sub.add_argument("--x", type=_bits, required=True)
    sub.add_argument("--y", type=_bits, default="")
    sub.add_argument("--t", type=int, default=64)
    sub.add_argument("--curve", type=_schedule, help="budgets T1,T2,... (overrides --t)")
    sub.set_defaults(func=_cmd_kc_phi)
    sub = kc.add_parser("joint", help="pair complexity vs. split-code bound")
    sub.add_argument("--x", type=_bits, required=True)
    sub.add_argument("--y", type=_bits, default="")
    sub.add_argument("--t", type=int, default=64)
    sub.set_defaults(func=_cmd_kc_joint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except KolmozipError as exc:
        _say(f"kolmozip: error: {exc}")
        return 2
    except (ValueError, OSError) as exc:
        _say(f"kolmozip: error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
