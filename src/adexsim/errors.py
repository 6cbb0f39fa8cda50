"""Exception types shared across the package."""


class AdexSimError(Exception):
    """Base class for all package errors."""


class NonFiniteState(AdexSimError):
    """An integration step produced NaN or Inf (dt too large for the chosen parameters)."""

    def __init__(self, message, time=None):
        super().__init__(message if time is None else f"{message} (at t = {time:.9g} s)")
        self.time = time


class NotLeakOverThreshold(AdexSimError):
    """The leak-over-threshold closed form does not apply: the leak/stimulus
    equilibrium potential does not exceed the detection threshold, or the
    reset potential lies above it."""


class WindowTooShort(AdexSimError):
    """Not enough pre-stimulus samples to establish a baseline."""


class InvalidConfig(AdexSimError):
    """A sub-circuit is disabled (or inconsistent) but one of its parameters is requested."""


class NoIdealEquivalent(InvalidConfig, ValueError):
    """The derived soft threshold V_T reaches V_det, so the circuit has no
    ideal AdEx equivalent with its exponential term on.  Also a ValueError,
    which AdExParameters raises for the same condition."""


class ParseError(AdexSimError):
    """Config text could not be parsed; carries line/column."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ValidationError(AdexSimError):
    """A parsed config violates an invariant; names the violated constraint."""
