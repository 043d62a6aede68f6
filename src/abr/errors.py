"""Exception types shared across the library.

Every error raised on purpose derives from AbrError so callers (and the
command line driver) can distinguish our failures from genuine bugs.
"""


class AbrError(Exception):
    """Base class for all library errors."""


class NonSquareError(AbrError):
    """Determinant requested for a non-square matrix."""


class BadShapeError(AbrError):
    """Matrix shape does not match what the operation requires."""


class BadIndicesError(AbrError):
    """Column indices are out of range, repeated, or not increasing."""


class InvariantError(AbrError):
    """A structural invariant of a value was violated (ragged rows,
    non-increasing parameters, float contamination, ...)."""


class ParseError(AbrError):
    """Input text could not be parsed.  Carries line/column for syntax
    errors when the underlying JSON decoder provides them."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class TooFewPointsError(AbrError):
    """The sequence is shorter than the operation needs."""


class DegenerateInputError(AbrError):
    """A determinant or divided difference that must be nonzero vanished.
    ``witness`` holds the offending index tuple when known."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class WrongOrientationError(AbrError):
    """Projections are not positively oriented.  Reversing the point order
    multiplies every d x d projection minor by (-1)^(d(d-1)/2), so it can
    repair an all-negative sequence only when d = 2 or 3 (mod 4)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class IdentityViolationError(AbrError):
    """An exact identity that must hold failed; indicates a bug, never bad
    input."""


class TooLargeError(AbrError):
    """Refused: the requested enumeration or dense table exceeds the
    configured guard."""


class GenerationFailedError(AbrError):
    """Random instance generation exhausted its retry budget."""


class ParameterSearchFailedError(AbrError):
    """No parameter base in the configured range produced a verified
    construction.  ``attempts`` lists (base, reason) pairs."""

    def __init__(self, message, attempts=()):
        super().__init__(message)
        self.attempts = tuple(attempts)
