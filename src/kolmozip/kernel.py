"""The per-byte step module: the C extension (``_kernel.c``) or its numpy twin.

It holds the whole per-byte step but the loop around it: quantization, the
range coder's encoder and decoder states, and the states of the neural net
and of the freq model's count table (uint16 rows in the extension), each of
which owns its context.  ``keep_table`` binds a net or count table to an
int64 table of 257 entries, and each later step then quantizes the row it
leaves into it, so a coding session makes two calls a byte: code, then
step.  Quantization is exact integer arithmetic.  It and the net's
gradient divide a row by its total through one routine, in doubles, which
hold every value exactly for the totals below 2^37 that both accept.  A
row with few weights other than one (most count rows) takes a grouped path
in the extension: the ones share one floor and one remainder, so only the
other weights are divided, and the table is the ones' progression plus
each other weight's difference.  Any other row, or one whose leftover
slots do not end among the ones, takes the dense path, which counts the
remainders above and equal to a pivot.  The twin has only the dense
arithmetic, and the tests hold both extension paths to it.

``load()`` never returns None: it returns the extension or, when that
cannot be built, ``_kernel_numpy``, which exports the same functions with
the same errors and is the reference the extension is tested against.
There is no extension build step: the first ``load()`` in a process
compiles the source with the system ``cc`` against the interpreter's
headers into a per-user cache (``$XDG_CACHE_HOME/kolmozip``, else
``~/.cache/kolmozip``), under a name keyed by the hash of the source,
flags, include directory, extension suffix and platform, and later calls
and processes reuse that file; a cached file that will not load is built
again once.  The key does not depend on the CPU: on x86-64 with glibc the
step's loops (the net's forward pass and gradient step, and quantize) carry
an AVX2 clone beside the baseline one, and the running CPU picks one when
the file loads, so one cached file serves any x86-64 machine, with the same
bytes out.

- No ``cc`` on PATH: the twin, without a word.
- A compiler that fails (for instance without the Python headers), a cache
  that cannot be written, a freshly built file that will not load, or no
  cache at all because neither ``$XDG_CACHE_HOME`` nor the home directory is
  an absolute path: one RuntimeWarning naming the error, then the twin.

The module is compiled to a temporary file in the cache directory and
published with ``os.replace``, so concurrent processes (CLI invocations,
fresh interpreters) never load a half-written file.  Nothing
is ever written next to the source.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from pathlib import Path
from types import ModuleType

SOURCE = Path(__file__).with_name("_kernel.c")
# -fwrapv: signed overflow wraps exactly like numpy's int64 arithmetic;
# -falign-loops=32: each loop starts on a 32-byte boundary, so the speed of
# the step's vector loops does not hang on where an edit leaves them
_FLAGS = ("-O3", "-fPIC", "-shared", "-fwrapv", "-falign-loops=32")
_BUILD_TIMEOUT_S = 120
_MODULE = "kolmozip._kernel"  # PyInit__kernel in the source


def _cache_dir() -> Path:
    base = Path(os.environ.get("XDG_CACHE_HOME", ""))
    if not base.is_absolute():  # unset, empty or relative: the XDG default
        # expanduser leaves "~" as it is when no home directory is known
        base = Path(os.path.expanduser("~")) / ".cache"
    if not base.is_absolute():  # a relative HOME would build under the working directory
        raise OSError("no cache: neither XDG_CACHE_HOME nor the home directory is an absolute path")
    return base / "kolmozip"


def _find_compiler() -> str | None:
    return shutil.which("cc")


def _include_dirs() -> tuple[str, ...]:
    paths = sysconfig.get_paths()
    return tuple(dict.fromkeys((paths["include"], paths["platinclude"])))


def _compile(compiler: str, source: bytes, target: Path) -> None:
    """Compile source to target via a temporary file in the same directory."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=target.suffix)
    os.close(fd)
    try:
        # the source goes in on stdin, so what is compiled is what was hashed
        includes = [f"-I{path}" for path in _include_dirs()]
        done = subprocess.run(
            [compiler, *_FLAGS, *includes, "-x", "c", "-", "-o", tmp],
            input=source,
            capture_output=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        if done.returncode:
            lines = done.stderr.decode(errors="replace").strip().splitlines()
            detail = lines[-1] if lines else "no diagnostics"
            raise OSError(f"{compiler} exited with status {done.returncode}: {detail}")
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _import(path: Path) -> ModuleType:
    # loaded straight from the cache file, never entered in sys.modules
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, str(path))
    spec = importlib.util.spec_from_file_location(_MODULE, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def build_and_load() -> ModuleType | None:
    """Compile (unless cached) and load the kernel; None if that is not possible."""
    compiler = _find_compiler()
    if compiler is None:
        return None
    try:
        source = SOURCE.read_bytes()
        suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
        build = (" ".join(_FLAGS), *_include_dirs(), suffix, sys.platform, platform.machine())
        key = hashlib.sha256(b"\0".join((source, *(s.encode() for s in build)))).hexdigest()[:20]
        target = _cache_dir() / f"kernel-{key}{suffix}"
        if target.is_file():
            try:
                return _import(target)
            except ImportError:  # left truncated or corrupt, say by a crash: build it again
                pass
        _compile(compiler, source, target)
        return _import(target)
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        warnings.warn(
            f"kolmozip: C step kernel unavailable ({exc}); using its numpy twin",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


@functools.cache
def load() -> ModuleType:
    """The process's step module: the extension, built on first use, else the twin."""
    return build_and_load() or importlib.import_module("._kernel_numpy", __package__)
