"""Exception hierarchy shared across the package.

Each type carries the stable exit code the CLI returns for it, so library
code should raise the most specific type that applies rather than bare
ValueError.
"""


class CogbertError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1


class ShapeError(CogbertError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(CogbertError, ArithmeticError):
    """A computation produced or received non-finite values."""


class ValidationError(CogbertError, ValueError):
    """An input violates a documented precondition."""
    exit_code = 2


class ConfigError(CogbertError, ValueError):
    """A configuration object or file is inconsistent or unparsable."""
    exit_code = 2


class DataError(CogbertError, ValueError):
    """A data file is missing required content or refers to unknown ids."""
    exit_code = 3


class FeatureLookupError(DataError, KeyError):
    """A sentence id has no record in the feature database."""

    def __str__(self) -> str:
        return BaseException.__str__(self)  # KeyError's __str__ would quote the message


class CheckpointError(CogbertError, ValueError):
    """A checkpoint file is malformed or does not match the model config."""
    exit_code = 3


class EmptyResultError(CogbertError, ValueError):
    """An operation legitimately ran but produced nothing usable."""
    exit_code = 4
