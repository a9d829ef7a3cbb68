"""Exception types shared across the package, the checks of config values
that raise them, and the one way a batch outcome's exception is raised."""

__all__ = [
    "ConfigurationError",
    "IntegrityError",
    "DataError",
    "DegenerateDataError",
    "UndefinedMetricError",
    "MecSizeError",
    "SingularModelError",
    "ParseError",
    "integer",
    "real",
    "boolean",
    "setting",
    "unwrap",
]


class ConfigurationError(ValueError):
    """Invalid sampler, learner, or experiment configuration."""


class IntegrityError(RuntimeError):
    """Internal consistency violated, e.g. a cycle where a DAG is required."""


class DataError(ValueError):
    """Input data unusable, e.g. non-finite entries."""


class DegenerateDataError(DataError):
    """Data degenerate for the requested operation, e.g. a constant column."""


class UndefinedMetricError(ValueError):
    """The requested quantity is undefined for the given input."""


class MecSizeError(RuntimeError):
    """Equivalence-class enumeration exceeded its member cap."""


class SingularModelError(RuntimeError):
    """Likelihood or determinant degenerated during optimization."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ParseError(ValueError):
    """Malformed input file."""

    def __init__(self, message, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def real(value):
    """``value`` if it is a JSON number; a bool or a string raises ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return value


def integer(value) -> int:
    """``value`` as an ``int`` if it is an integral JSON number; a bool, a
    string or a fraction raises ``TypeError`` or ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def boolean(value) -> bool:
    """``value`` if it is a JSON boolean; anything else raises ``TypeError``."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {type(value).__name__}")
    return value


def setting(parse, key: str, value):
    """``parse(value)``; a malformed value raises ``ConfigurationError`` naming ``key``."""
    try:
        return parse(value)
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"malformed setting {key!r}: {err}") from None


def unwrap(outcome):
    """A batch fit's outcome, or the exception it holds raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
