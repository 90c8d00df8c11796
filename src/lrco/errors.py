"""Exception types shared across the package, and the field-domain check
that every config dataclass validates with."""

import math
from dataclasses import MISSING, field, fields


class LrcoError(Exception):
    """Base class for all package-specific failures."""


class DegenerateFeatureError(LrcoError):
    """A vector with (near-)zero norm reached an operation that needs a direction."""


class ShapeMismatchError(LrcoError):
    """Array shapes are inconsistent with the model or operation contract."""


class DatasetFormatError(LrcoError):
    """A checkpoint file is malformed or unreadable (message names the path)."""


class ConfigError(LrcoError, ValueError):
    """A run configuration is invalid (unknown key, bad value, bad combination).
    It is also a ValueError, the type callers catch for bad input."""


class TrainingDivergedError(LrcoError):
    """A training step produced a non-finite loss; message carries diagnostics."""


class InvalidRowsError(LrcoError, ValueError):
    """Rows break a loss or memory-bank input contract: a probability row is
    not a distribution, or a row is not unit-norm; a row holding NaN breaks
    either. It is also a ValueError, the type callers catch for bad input."""


def within(domain, default=MISSING):
    """A dataclass field whose value, or each entry of a tuple value, must lie
    in ``domain``: an interval such as "(0, 1)" or "[1, inf)", or a tuple of
    choices. ``check_domains`` enforces it; None is left unchecked."""
    return field(default=default, metadata={"domain": domain})


def inside(value, domain) -> bool:
    """Whether ``value`` lies in ``domain``, the rule of ``within``."""
    if isinstance(domain, tuple):
        return value in domain
    low, high = (float(end) for end in domain[1:-1].split(","))
    # the first comparison refuses NaN and both infinities, whatever the ends
    return (-math.inf < value < math.inf
            and (low < value if domain[0] == "(" else low <= value)
            and (value < high if domain[-1] == ")" else value <= high))


def check_domains(obj, prefix: str = "") -> None:
    """Refuse the first field of dataclass ``obj`` whose value lies outside
    its declared domain; the message names ``prefix`` + the field name."""
    for f in fields(obj):
        domain, value = f.metadata.get("domain"), getattr(obj, f.name)
        if domain is None or value is None:
            continue
        entries = value if isinstance(value, tuple) else (value,)
        if not all(inside(v, domain) for v in entries):
            verb = "be one of" if isinstance(domain, tuple) else "lie in"
            raise ConfigError(f"{prefix}{f.name} must {verb} {domain}, got {value!r}")
