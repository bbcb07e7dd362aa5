"""Exception types shared across the package.

Each one survives a pickle round trip with its type, message and
attributes, so an error raised in a worker process is raised again as
itself in the parent.
"""


class ShapeError(ValueError):
    """Array shapes are incompatible with the requested operation."""


class ContractError(ValueError):
    """A call violated an API precondition (bad node, stale tape, ...)."""


class ParameterError(ValueError):
    """A numeric hyperparameter is outside its valid range (config ``field``)."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field

    def __reduce__(self):
        return type(self), (str(self), self.field)


def check_minimums(cfg, minimums: dict[str, int]) -> None:
    """Raise a ``ParameterError`` for the first field of ``cfg`` below its minimum."""
    for name, low in minimums.items():
        if getattr(cfg, name) < low:
            raise ParameterError(f"{name} must be >= {low}, got {getattr(cfg, name)!r}",
                                 name)


class TruncationError(ValueError):
    """A sequence does not fit the configured maximum length."""


class JsonlParseError(ValueError):
    """A JSONL line could not be parsed; carries the file and 1-based line."""

    def __init__(self, path, line_number: int, message: str):
        self.path = path
        self.line_number = line_number
        self.message = message
        super().__init__(f"{path}:{line_number}: {message}")

    def __reduce__(self):
        return type(self), (self.path, self.line_number, self.message)


class OracleInvalidError(RuntimeError):
    """The finite-difference oracle cannot be trusted (non-deterministic f)."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""
