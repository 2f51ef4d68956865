"""Exception types shared across the package."""


class SeqbvsError(Exception):
    """Base class for package-specific errors."""


class SizeLimitError(SeqbvsError, ValueError):
    """Requested problem size exceeds a hard guard."""


class ConfigError(SeqbvsError, ValueError):
    """Invalid or inconsistent configuration."""


class DataError(SeqbvsError, ValueError):
    """Input data violates a contract (non-finite values, bad shape of content)."""


class ShapeError(SeqbvsError, ValueError):
    """Array dimensions do not match."""


class InsufficientDataError(SeqbvsError, ValueError):
    """Not enough observations to run an operation."""


class OutputError(SeqbvsError, RuntimeError):
    """Filesystem output failed; the message carries the offending path."""
