"""Exception types, and the base of the immutable value classes, shared
across the library.

Every error raised on purpose derives from AbrError so callers (and the
command line driver) can distinguish our failures from genuine bugs.
"""


class Frozen:
    """Base of the immutable value classes (``Matrix``, the sequences and
    ``ColoringTable``): ``__init__`` sets its attributes once, through
    ``_freeze``; assignment raises, and equality, hashing and repr read the
    attributes named in ``_fields``, as for a frozen dataclass."""

    _fields = ()

    def _freeze(self, **attributes):
        for name, value in attributes.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


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
    """Input text could not be parsed.  Carries the line (CSV rows, JSON
    syntax errors) and the column when the JSON decoder provides it."""

    def __init__(self, message, line=None, column=None):
        if column is not None:
            message = f"{message} (line {line}, column {column})"
        elif line is not None:
            message = f"{message} (line {line})"
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
