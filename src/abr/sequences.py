"""Point sequences, their validators, and exact JSON round-trip I/O.

Two shapes of data flow through the package:

* ``PlanarSequence``: points (t_i, h_i) with strictly increasing t, the raw
  material for divided differences and for moment-curve lifts.
* ``LiftedSequence``: points x_i = (z_i, h_i) in R^d where z_i in R^(d-1) is
  the projection and h_i the height (stored flat, height last).

A lifted sequence is *cyclically ordered* when every increasing d-tuple of
projections spans a positively oriented simplex with a row of ones on top;
validators below check that, plus the nondegeneracy conditions the coloring
oracles rely on.  At run time the key engine of ``paths`` decides both as
it keys a sequence; the validators name the lex-least witness once it has
refused one, report the budgeted status of ``generate moment``, and are
the tests' references.  They share one scan loop over the values of a
``linalg.SignKernel``: a lifted sequence's ``kernel`` (built lazily, and
keyed by ``paths``), or, in ``validate_d_general_position`` alone, one
built on a planar sequence's ``moment_coordinates``, the lift's rational
coordinates: every planar color is computed from the closed-form keys of
``paths``.  Both import ``linalg`` when they build the kernel, so a planar
command loads no ``linalg``.

Wire format (UTF-8 JSON, all rationals as "p/q" or "p" strings):

    {"kind": "planar", "points": [["0/1", "5/1"], ...]}
    {"kind": "lifted", "dimension": d, "points": [[z_1, ..., z_{d-1}, h], ...]}

Unknown fields are rejected rather than ignored.  A rational is read by
``parse_rational`` and written by ``format_rational``, both here with
``as_fraction``, which refuses floats, and ``cleared_column``, a point's
integer column for ``linalg`` and ``paths``; the JSON codec itself
(``load_json`` / ``dump_json``) lives in ``tables``.
"""

import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .errors import Frozen, InvariantError, ParseError, TooFewPointsError, TooLargeError
from .tables import dump_json, load_json

VALID = "valid"
INVALID = "invalid"
UNVERIFIED = "unverified"

ZERO_DETERMINANT = "zero_determinant"
NEGATIVE_DETERMINANT = "negative_determinant"
ZERO_DIVIDED_DIFFERENCE = "zero_divided_difference"

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")


def as_fraction(value):
    """Coerce ints, Fractions and Fraction-like exact values; reject floats."""
    if isinstance(value, float):
        raise InvariantError(
            f"floating point value {value!r} is not exact; use Fraction or int"
        )
    return Fraction(value)


def cleared_column(coords):
    """Integer column (L, L*x_1, ..., L*x_k) for a point x; L > 0 is the lcm
    of the denominators, so determinant signs are unchanged."""
    scale = lcm(*(x.denominator for x in coords))
    return (scale,) + tuple(x.numerator * (scale // x.denominator) for x in coords)


def parse_rational(text):
    """Parse 'p/q' or 'p' (ASCII decimal digits, optional sign) into a
    Fraction."""
    if not isinstance(text, str):
        raise ParseError(f"rational must be a string, got {type(text).__name__}")
    if not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"malformed rational {text!r}; expected 'p/q' or 'p'")
    try:
        return Fraction(text)
    except ValueError as exc:
        raise ParseError(
            f"rational has more than {sys.get_int_max_str_digits()} digits") from exc


def format_rational(value):
    """Render a Fraction as 'p/q' (always with the denominator); a part with
    more digits than Python converts to a string raises TooLargeError."""
    value = as_fraction(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise TooLargeError(
            f"an output number has more than {sys.get_int_max_str_digits()} digits") from exc


class ValidationReport(namedtuple("ValidationReport", "status failures checked")):
    """Outcome of an exhaustive (or budget-limited) tuple scan.

    ``status`` is one of "valid", "invalid", "unverified"; "unverified" means
    the tuple budget ran out before any violation was found and is never a
    silent pass.  ``failures`` holds (index_tuple, reason) pairs, capped at
    the bound the validator was given; ``checked`` counts examined tuples.
    """

    __slots__ = ()

    @property
    def valid(self):
        return self.status == VALID


class PlanarSequence(Frozen):
    """Finite sequence of (t, h) pairs with strictly increasing t."""

    _fields = ("points",)

    def __init__(self, points):
        pts = []
        for entry in points:
            pair = tuple(entry)
            if len(pair) != 2:
                raise InvariantError(f"planar point {entry!r} must have exactly 2 coordinates")
            pts.append((as_fraction(pair[0]), as_fraction(pair[1])))
        if not pts:
            raise InvariantError("sequence must contain at least one point")
        for a, b in zip(pts, pts[1:]):
            if a[0] >= b[0]:
                raise InvariantError(
                    f"t values must strictly increase; got {a[0]} then {b[0]}"
                )
        self._freeze(points=tuple(pts))

    def __len__(self):
        return len(self.points)


class LiftedSequence(Frozen):
    """Finite sequence of points in R^dimension, height stored last."""

    _fields = ("dimension", "points")

    def __init__(self, dimension, points):
        if not isinstance(dimension, int) or isinstance(dimension, bool):
            raise InvariantError("dimension must be an int")
        if dimension < 2:
            raise InvariantError(f"dimension must be >= 2, got {dimension}")
        pts = []
        for entry in points:
            coords = tuple(as_fraction(x) for x in entry)
            if len(coords) != dimension:
                raise InvariantError(
                    f"point {entry!r} has {len(coords)} coordinates, expected {dimension}"
                )
            pts.append(coords)
        if not pts:
            raise InvariantError("sequence must contain at least one point")
        self._freeze(dimension=dimension, points=tuple(pts))

    def __len__(self):
        return len(self.points)

    def reversed(self):
        """Same points in the opposite order (orientation repair)."""
        return LiftedSequence(self.dimension, self.points[::-1])

    @cached_property
    def kernel(self):
        """Integer kernel of the columns (1, z_i, h_i), shared by every pass."""
        from .linalg import SignKernel

        return SignKernel(self.points)


def moment_lift(p, d):
    """Lift a planar sequence onto the d-dimensional moment curve.

    (t, h) becomes (t, t^2, ..., t^(d-1), h).  Distinct increasing t makes
    every projected d-tuple a Vandermonde matrix with positive determinant,
    so the lift always has cyclically ordered projections.
    """
    if not isinstance(d, int) or d < 2:
        raise InvariantError(f"lift dimension must be an int >= 2, got {d!r}")
    return LiftedSequence(d, moment_coordinates(p.points, d))


def moment_coordinates(points, d):
    """The moment-lift coordinates (t, t^2, ..., t^(d-1), h) of planar
    points (t, h); order d = 1 gives (h,)."""
    return [tuple(t ** e for e in range(1, d)) + (h,) for t, h in points]


def _scan(n, r, value, zero_reason, negative_reason, max_failures, max_tuples):
    """The validators' shared loop over the kernel values of r-tuples, in lex
    order: a zero value fails with ``zero_reason``, a negative one with
    ``negative_reason`` unless that is None."""
    if n < r:
        raise TooFewPointsError(f"need at least {r} points, got {n}")
    failures = []
    checked = 0
    for tup in combinations(range(n), r):
        if max_tuples is not None and checked >= max_tuples:
            if failures:
                break
            return ValidationReport(UNVERIFIED, (), checked)
        checked += 1
        v = value(tup)
        if v > 0:
            continue
        if v == 0 or negative_reason:
            failures.append((tup, zero_reason if v == 0 else negative_reason))
            if len(failures) >= max_failures:
                break
    if not failures:
        return ValidationReport(VALID, (), checked)
    return ValidationReport(INVALID, tuple(failures), checked)


def validate_cyclic_projections(s, *, max_failures=16, max_tuples=None):
    """Check that every increasing d-tuple of projections is positively
    oriented, collecting up to ``max_failures`` zero or negative minors.
    ``max_tuples`` bounds the scan; hitting it without a violation yields
    "unverified"."""
    return _scan(len(s), s.dimension, s.kernel.minor, ZERO_DETERMINANT,
                 NEGATIVE_DETERMINANT, max_failures, max_tuples)


def validate_general_position(s, *, max_failures=16, max_tuples=None):
    """Check that no increasing (d+1)-tuple of lifted points is affinely
    degenerate (zero determinant with a row of ones on top)."""
    return _scan(len(s), s.dimension + 1, s.kernel.value, ZERO_DETERMINANT, None,
                 max_failures, max_tuples)


def validate_d_general_position(p, d, *, max_failures=16, max_tuples=None):
    """Check that every increasing (d+1)-tuple of a planar sequence has a
    nonzero order-d divided difference (no d+1 points on one polynomial
    graph of degree < d): the kernel value of a (d+1)-tuple of the moment
    columns is Vandermonde(t) > 0 times its order-d divided difference."""
    if not isinstance(d, int) or d < 1:
        raise InvariantError(f"order must be a positive int, got {d!r}")
    if len(p) <= d:  # refused before any power of t is formed
        raise TooFewPointsError(f"need at least {d + 1} points, got {len(p)}")
    from .linalg import SignKernel

    return _scan(len(p), d + 1, SignKernel(moment_coordinates(p.points, d)).value,
                 ZERO_DIVIDED_DIFFERENCE, None, max_failures, max_tuples)


_PLANAR_FIELDS = {"kind", "points"}
_LIFTED_FIELDS = {"kind", "dimension", "points"}


def parse_sequence(data):
    """Parse a sequence from JSON text (str or UTF-8 bytes).

    Raises ParseError for syntax/schema problems (with line/column when the
    JSON decoder reports them) and InvariantError for structural violations
    such as non-increasing t or ragged point dimensions.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from exc
    return sequence_from_json_obj(load_json(data))


def sequence_from_json_obj(obj):
    """A sequence from its decoded JSON object, with the same checks and
    errors as ``parse_sequence``."""
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    kind = obj.get("kind")
    if kind == "planar":
        allowed = _PLANAR_FIELDS
    elif kind == "lifted":
        allowed = _LIFTED_FIELDS
    else:
        raise ParseError(f"kind must be 'planar' or 'lifted', got {kind!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown field {sorted(unknown)[0]!r} for kind {kind!r}")
    missing = allowed - set(obj)
    if missing:
        raise ParseError(f"missing field {sorted(missing)[0]!r} for kind {kind!r}")
    raw_points = obj["points"]
    if not isinstance(raw_points, list):
        raise ParseError("'points' must be an array")
    points = []
    for i, entry in enumerate(raw_points):
        if not isinstance(entry, list):
            raise ParseError(f"point {i} must be an array of rational strings")
        try:
            points.append(tuple(parse_rational(x) for x in entry))
        except ParseError as exc:
            raise ParseError(f"point {i}: {exc}") from exc
    if kind == "planar":
        return PlanarSequence(tuple(points))
    dimension = obj["dimension"]
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise ParseError(f"dimension must be an integer, got {dimension!r}")
    return LiftedSequence(dimension, tuple(points))


def serialize_sequence(s):
    """Serialize a sequence to canonical JSON bytes (``dump_json``);
    parse_sequence round-trips exactly."""
    if isinstance(s, PlanarSequence):
        obj = {
            "kind": "planar",
            "points": [[format_rational(t), format_rational(h)] for t, h in s.points],
        }
    elif isinstance(s, LiftedSequence):
        obj = {
            "kind": "lifted",
            "dimension": s.dimension,
            "points": [[format_rational(x) for x in pt] for pt in s.points],
        }
    else:
        raise InvariantError(f"cannot serialize {type(s).__name__}")
    return dump_json(obj)
