"""Exception types shared across the simulator, the numeric range check and
the overflow-free mean."""

import math

import numpy as np


class ConfigurationError(ValueError):
    """Inconsistent or unsatisfiable configuration (kernel pairing, CLI options, ...).

    The base of every error a bad setting or argument raises; the CLI maps
    it and its subclasses to exit code 2."""


class DimensionError(ConfigurationError):
    """Image / kernel / frame dimensions are incompatible."""


class InvalidParameterError(ConfigurationError):
    """A numeric parameter is outside its legal range."""


class InvalidGainError(ConfigurationError):
    """Requested cell gain is non-positive."""


class UnachievableGainError(ConfigurationError):
    """Requested cell gain exceeds the 1/2 peak gain of the Gilbert cell."""


class FormatError(ValueError):
    """A binary input file (IDX, PGM) is malformed."""


def check_range(name: str, value, *, above=None, at_least=None, at_most=None):
    """Return ``value`` if it is finite, greater than ``above``, at least
    ``at_least`` and at most ``at_most`` (each bound only when given); else
    raise InvalidParameterError.  A Python int is always finite, however large."""
    if ((isinstance(value, int) or math.isfinite(value))
            and (above is None or value > above)
            and (at_least is None or value >= at_least)
            and (at_most is None or value <= at_most)):
        return value
    bounds = "".join(f" and {op} {bound}" for op, bound in
                     ((">", above), (">=", at_least), ("<=", at_most)) if bound is not None)
    raise InvalidParameterError(f"{name} must be finite{bounds}, got {value}")


def scaled_stat(stat, values, **kwargs):
    """``stat(values, **kwargs)`` (np.mean or np.std) of values scaled by a power
    of two to a peak below 1, scaled back: the same bits, but the sum and squares
    stay finite when the values near the largest float."""
    exponent = math.frexp(float(np.max(values)))[1]
    return float(np.ldexp(stat(np.ldexp(values, -exponent), **kwargs), exponent))
