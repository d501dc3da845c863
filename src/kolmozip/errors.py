"""Exception types shared across the package."""


class KolmozipError(Exception):
    """Base class for all kolmozip-specific errors."""


class FormatError(KolmozipError):
    """Serialized artifact is malformed (bad magic, version, or header)."""


class TruncatedStreamError(KolmozipError):
    """Payload ended before the decoder consumed the bytes it needed."""

