"""Exception types shared across the simulator."""


class DimensionError(ValueError):
    """Image / kernel / frame dimensions are incompatible."""


class InvalidParameterError(ValueError):
    """A numeric parameter is outside its legal range."""


class ConfigurationError(ValueError):
    """Inconsistent or unsatisfiable configuration (kernel pairing, CLI options, ...)."""


class InvalidGainError(ValueError):
    """Requested cell gain is non-positive."""


class UnachievableGainError(ValueError):
    """Requested cell gain exceeds the 1/2 peak gain of the Gilbert cell."""


class FormatError(ValueError):
    """A binary input file (IDX, PGM) is malformed."""
