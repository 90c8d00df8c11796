"""Exception types shared across the package."""


class LrcoError(Exception):
    """Base class for all package-specific failures."""


class DegenerateFeatureError(LrcoError):
    """A vector with (near-)zero norm reached an operation that needs a direction."""


class ShapeMismatchError(LrcoError):
    """Array shapes are inconsistent with the model or operation contract."""


class DatasetFormatError(LrcoError):
    """A checkpoint file is malformed or unreadable (message names the path)."""


class ConfigError(LrcoError):
    """A run configuration is invalid (unknown key, bad value, bad combination)."""


class TrainingDivergedError(LrcoError):
    """A training step produced a non-finite loss; message carries diagnostics."""


class InvalidRowsError(LrcoError, ValueError):
    """Rows break a loss or memory-bank input contract: a probability row is
    not a distribution, or a row is not unit-norm; a row holding NaN breaks
    either. It is also a ValueError, the type callers catch for bad input."""
