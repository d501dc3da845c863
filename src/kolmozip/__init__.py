"""kolmozip: lossless compression by online learning, plus a shortest-program workbench."""

from .coder import RangeDecoder, RangeEncoder
from .errors import FormatError, KolmozipError, TruncatedStreamError
from .kclab import (
    KcEstimate,
    MachineResult,
    TinyProgram,
    family_max_gap,
    joint_bound_report,
    pair_encode,
    phi,
    phi_curve,
    prefix_encode,
    run_program,
)
from .pipeline import (
    CompressedArtifact,
    SessionStats,
    compress,
    compress_conditional,
    decompress,
    deserialize,
    scaling_ladder,
    serialize,
)
from .predictors import PredictorConfig, make_predictor
from .sources import (
    MarkovSpec,
    WorksheetRecord,
    entropy_rate,
    generate,
    read_worksheet,
    worksheet_corpus,
    worksheet_stream,
    write_worksheet,
)

__version__ = "0.1.0"

__all__ = [
    "CompressedArtifact",
    "FormatError",
    "KcEstimate",
    "KolmozipError",
    "MachineResult",
    "MarkovSpec",
    "PredictorConfig",
    "RangeDecoder",
    "RangeEncoder",
    "SessionStats",
    "TinyProgram",
    "TruncatedStreamError",
    "WorksheetRecord",
    "compress",
    "compress_conditional",
    "decompress",
    "deserialize",
    "entropy_rate",
    "family_max_gap",
    "generate",
    "joint_bound_report",
    "make_predictor",
    "pair_encode",
    "phi",
    "phi_curve",
    "prefix_encode",
    "read_worksheet",
    "run_program",
    "scaling_ladder",
    "serialize",
    "worksheet_corpus",
    "worksheet_stream",
    "write_worksheet",
]
