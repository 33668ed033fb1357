"""Exception types shared across the package, and the kinds of settings:
how each kind's text is read and checked on settings dataclass fields."""

import sys
from dataclasses import fields
from numbers import Integral, Real


class XsrankError(Exception):
    """Base class for package errors."""


class ConfigError(XsrankError):
    """Invalid or inconsistent configuration."""


class DataError(XsrankError):
    """Malformed or insufficient input data."""


class ShapeError(XsrankError):
    """Tensor shape mismatch in a primitive."""


class NonFiniteError(XsrankError):
    """A NaN or Inf appeared where only finite values are allowed."""


class TapeError(XsrankError):
    """Misuse of the differentiation tape."""


def _real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# a settings field's annotation -> (parser of its text, what it must be, test)
SETTING_KINDS = {
    "int": (int, "an integer", lambda v: _real(v) and isinstance(v, Integral)),
    # an int beyond the float range is no finite float either
    "float": (float, "a finite number", lambda v: _real(v) and abs(v) <= sys.float_info.max),
    "bool": (lambda raw: _BOOLS[raw.lower()], "true or false", lambda v: isinstance(v, bool)),
    "str": (str, "a string", lambda v: isinstance(v, str)),
    "str | None": (str, "a string", lambda v: v is None or isinstance(v, str)),
}


def check_kinds(settings) -> None:
    """Refuse, with a ConfigError naming it, the first field of the
    dataclass instance `settings` whose value is not of its annotated kind."""
    for f in fields(settings):
        _, kind, ok = SETTING_KINDS[f.type]
        value = getattr(settings, f.name)
        if not ok(value):
            raise ConfigError(f"{f.name} is {value!r}, not {kind}")
