"""Exception types shared across the package."""


class LabError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteInput(LabError):
    """An input that must be finite was NaN or infinite."""


class UnstableCoefficients(LabError):
    """Coefficients fall outside the stability region -1 < b < 1 - |a|."""


class HorizonOverflow(LabError):
    """A weight or matrix entry left double-precision range."""


class DegenerateSpectrum(LabError):
    """Roots too close to separate but not flagged as a repeated pair."""


class InvalidParameters(LabError):
    """A parameter violates its documented constraint."""


class InvalidOrder(LabError):
    """Moment order r must be positive."""


class InsufficientHorizon(InvalidParameters):
    """A weight table is too short for the requested sum length."""


class InfiniteMoment(LabError):
    """The analytic moment needed by this operation diverges."""


class EmptyGrid(LabError):
    """An evaluation grid must contain at least one point."""


class ParseError(LabError):
    """A config file line could not be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(LabError):
    """A parsed config violates a documented invariant."""
