"""Above-below colorings of lifted point tuples, exactly.

Take d+1 points x_i = (z_i, h_i) in R^d whose projections z_i are cyclically
ordered.  The projections split into even- and odd-indexed points whose
convex hulls intersect in a single projected point rho (the alternating
Radon partition); each side assigns rho a lifted height by interpolation.
The tuple's color is positive exactly when

    (-1)^d * (H_even - H_odd) > 0,

and this coincides with the sign of the (d+1) x (d+1) determinant whose
columns are (1, z_i, h_i).  Both oracles are implemented, plus a third one
for d = 3 that intersects the two diagonals of the projected quadrilateral
and compares interpolated heights at the crossing: the same rule says the
color is positive exactly when the even diagonal passes below the odd one.

The planar counterpart: for points (t_i, h_i) on the d-dimensional moment
curve the determinant factors as Vandermonde(t) * [order-d divided
difference of h], so the color equals the divided-difference sign.

The oracles and ``divided_difference`` are the Fraction references, each
value computed once: the divided difference by Newton's recursion, the
Radon point from the even block.  The closed Lagrange form and the odd
block are the tests' cross-checks, not run-time ones.  The lifted table
``color_table`` and the planar ``divdiff_color_table`` are built from the
integer keys of ``paths``, one key pass per middle, like every search of a
sequence; they, and ``LazyDivdiffColors``, the keyed coloring of every
sequence search, live in ``paths`` and are re-exported here.  The
one-switch certificate is the Fraction face of ``linalg.SignKernel``'s
integer core ``one_switch``, which ``check one-switch`` runs directly, so
only the tests, ``color --cross-check`` and a planar ``check identities``
load this module.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import prod

from .errors import BadShapeError, DegenerateInputError, InvariantError, WrongOrientationError
from .linalg import Matrix, SignKernel, det, signed_minor_kernel
from .paths import LazyDivdiffColors, color_table, divdiff_color_table  # noqa: F401  re-exported
from .sequences import as_fraction, moment_coordinates
from .tables import Color


class HeightPair(namedtuple("HeightPair", "h_even h_odd")):
    """Interpolated heights of the even and odd interpolation over the
    shared projected point."""

    __slots__ = ()


class RadonCertificate(namedtuple("RadonCertificate", "lam point even_part odd_part")):
    """Alternating Radon partition of d+1 cyclically ordered projections.

    ``lam`` holds one positive coefficient per point, normalized so the even
    block sums to 1 (the odd block then does too); ``point`` is the common
    convex combination of either block, computed from the even one."""

    __slots__ = ()


def _normalize_points(points, expect_len=None):
    pts = [tuple(as_fraction(x) for x in pt) for pt in points]
    if not pts:
        raise InvariantError("no points given")
    width = len(pts[0])
    if any(len(pt) != width for pt in pts):
        raise InvariantError("points have mixed dimensions")
    if expect_len is not None and len(pts) != expect_len:
        raise InvariantError(f"expected {expect_len} points, got {len(pts)}")
    return pts


def radon_certificate(zs):
    """Radon partition of d+1 points in R^(d-1) with cyclic order type.

    The kernel of the d x (d+1) matrix with columns (1, z_j) is spanned by
    the signed column-deleted minors; when all plain minors are positive the
    kernel vector alternates in sign, so even and odd positions form the two
    Radon blocks and the minors themselves are the weights.
    """
    zs = _normalize_points(zs)
    d = len(zs) - 1
    if len(zs[0]) != d - 1:
        raise InvariantError(
            f"{len(zs)} projections must live in R^{len(zs) - 1 - 1}, got R^{len(zs[0])}"
        )
    mat = Matrix(tuple([tuple(1 for _ in zs)] + [
        tuple(z[coord] for z in zs) for coord in range(d - 1)
    ]))
    kernel = signed_minor_kernel(mat)
    minors = [k if j % 2 == 0 else -k for j, k in enumerate(kernel)]
    zeros = [j for j, m in enumerate(minors) if m == 0]
    if zeros:
        raise DegenerateInputError(
            f"projection minor vanishes when deleting position {zeros[0]}",
            witness=tuple(zeros),
        )
    if all(m < 0 for m in minors):
        raise WrongOrientationError(
            "all projection minors are negative; projections are not cyclically ordered"
        )
    if any(m < 0 for m in minors):
        raise WrongOrientationError(
            "projection minors have mixed signs; projections are not cyclically ordered"
        )
    even = tuple(range(0, d + 1, 2))
    odd = tuple(range(1, d + 1, 2))
    total_even = sum(minors[j] for j in even)
    lam = tuple(m / total_even for m in minors)
    point = tuple(sum(lam[j] * zs[j][coord] for j in even) for coord in range(d - 1))
    return RadonCertificate(lam, point, even, odd)


def color_by_heights(points):
    """Height-comparison oracle: returns (HeightPair, Color)."""
    pts = _normalize_points(points)
    d = len(pts[0])
    if len(pts) != d + 1:
        raise InvariantError(f"need d+1 = {d + 1} points in R^{d}, got {len(pts)}")
    cert = radon_certificate([pt[:-1] for pt in pts])
    h_even = sum(cert.lam[j] * pts[j][-1] for j in cert.even_part)
    h_odd = sum(cert.lam[j] * pts[j][-1] for j in cert.odd_part)
    diff = h_even - h_odd
    if diff == 0:
        raise DegenerateInputError("even and odd heights coincide over the Radon point")
    if d % 2 == 1:
        diff = -diff
    color = Color.POSITIVE if diff > 0 else Color.NEGATIVE
    return HeightPair(h_even, h_odd), color


def color_by_determinant(points):
    """Determinant oracle: sign of det with columns (1, z_i, h_i).

    Assumes the projections are cyclically ordered (callers validate the
    whole sequence once); raises only on a vanishing determinant.
    """
    pts = _normalize_points(points)
    d = len(pts[0])
    if len(pts) != d + 1:
        raise InvariantError(f"need d+1 = {d + 1} points in R^{d}, got {len(pts)}")
    mat = Matrix(tuple([tuple(1 for _ in pts)] + [
        tuple(pt[coord] for pt in pts) for coord in range(d)
    ]))
    value = det(mat)
    if value == 0:
        raise DegenerateInputError("lifted determinant vanishes")
    return Color.POSITIVE if value > 0 else Color.NEGATIVE


def _crossing_heights(pts):
    """Heights of both lifted diagonals over the projected crossing point
    for 4 points in R^3: diagonal (0,2) against diagonal (1,3)."""
    proj = [pt[:2] for pt in pts]
    for tri in combinations(range(4), 3):
        rows = (
            (1, 1, 1),
            tuple(proj[i][0] for i in tri),
            tuple(proj[i][1] for i in tri),
        )
        orientation = det(Matrix(rows))
        if orientation == 0:
            raise DegenerateInputError(
                "three projections are collinear", witness=tri
            )
        if orientation < 0:
            raise WrongOrientationError(
                f"projected triple {tri} is negatively oriented; quadrilateral is not cyclic",
                witness=tri,
            )
    a, b, c, d_ = proj
    # a + s (c - a) = b + u (d - b): solve the 2x2 system exactly.
    m00, m01 = c[0] - a[0], b[0] - d_[0]
    m10, m11 = c[1] - a[1], b[1] - d_[1]
    rhs0, rhs1 = b[0] - a[0], b[1] - a[1]
    denom = m00 * m11 - m01 * m10
    if denom == 0:
        raise DegenerateInputError("projected diagonals are parallel")
    s = (rhs0 * m11 - m01 * rhs1) / denom
    u = (m00 * rhs1 - rhs0 * m10) / denom
    if not (0 < s < 1 and 0 < u < 1):
        raise DegenerateInputError("projected diagonals do not cross internally")
    h_even = pts[0][2] + s * (pts[2][2] - pts[0][2])
    h_odd = pts[1][2] + u * (pts[3][2] - pts[1][2])
    return h_even, h_odd


def color_by_crossing(points):
    """Crossing oracle for d = 3: compare the lifted heights of the two
    diagonals of the projected quadrilateral over their crossing point."""
    pts = _normalize_points(points, expect_len=4)
    if len(pts[0]) != 3:
        raise InvariantError(f"crossing oracle needs points in R^3, got R^{len(pts[0])}")
    h_even, h_odd = _crossing_heights(pts)
    if h_even == h_odd:
        raise DegenerateInputError("diagonals meet at equal heights")
    # (-1)^d (H_even - H_odd) > 0 at d = 3
    return Color.POSITIVE if h_even < h_odd else Color.NEGATIVE


def divided_difference(points, order=None):
    """Order-q divided difference of h over t for q+1 planar points, by the
    two-term recursion bottom-up (Newton's table): after pass k, ``row[i]``
    is the divided difference of points i..i+k."""
    pts = [(as_fraction(t), as_fraction(h)) for t, h in points]
    if not pts:
        raise InvariantError("no points given")
    if order is not None and order != len(pts) - 1:
        raise InvariantError(f"order {order} needs {order + 1} points, got {len(pts)}")
    if len(set(t for t, _ in pts)) != len(pts):
        raise InvariantError("t values must be pairwise distinct")
    row = [h for _, h in pts]
    for k in range(1, len(pts)):
        row = [(b - a) / (pts[i + k][0] - pts[i][0])
               for i, (a, b) in enumerate(zip(row, row[1:]))]
    return row[0]


def vandermonde_divdiff_residual(points):
    """det(ones; t; ...; t^(d-1); h) minus Vandermonde(t) times the order-d
    divided difference; identically zero, returned for verification."""
    pts = [(as_fraction(t), as_fraction(h)) for t, h in points]
    d = len(pts) - 1
    if d < 1:
        raise InvariantError("need at least two points")
    columns = moment_coordinates(pts, d)
    value = det(Matrix((tuple(1 for _ in pts),) + tuple(zip(*columns))))
    vandermonde = Fraction(1)
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            vandermonde *= pts[j][0] - pts[i][0]
    return value - vandermonde * divided_difference(pts)


class OneSwitchCertificate(namedtuple("OneSwitchCertificate",
                                      "d_values minors ratios switch_count zero_positions")):
    """Sign pattern of the d+2 deletion determinants of a (d+2)-tuple.

    ``d_values[j]`` is the determinant of the (d+1) x (d+2) lifted matrix
    with column j deleted, i.e. the signed color of the tuple that omits
    point j.  ``minors`` maps deleted pairs (a, b) to the projection minors
    delta_(a,b) (all positive for cyclic projections), ``ratios`` lists
    delta_(j,d+1)/delta_(0,j) for j = 1..d (strictly decreasing), and
    ``switch_count`` counts sign changes along the nonzero d_values in
    deletion order (provably at most one).  Zero d_values are recorded in
    ``zero_positions`` and skipped by the switch count."""

    __slots__ = ()


def one_switch_certificate(points, *, allow_zero=False):
    """Certificate that deleting one point at a time flips the tuple color
    at most once.

    For d+2 lifted points with cyclically ordered projections, the deletion
    determinants D_j satisfy, for every 1 <= j <= d,

        D_j * delta_(0,d+1) = D_0 * delta_(j,d+1) + D_(d+1) * delta_(0,j)

    with strictly positive projection minors delta and strictly decreasing
    ratios delta_(j,d+1)/delta_(0,j).  A sign change D_0 -> D_(d+1) therefore
    pins every middle sign, allowing at most one switch overall.  The
    identity, the ratio ordering, and the switch count are all verified
    exactly; a failure of any of them raises IdentityViolationError because
    no input can cause it.

    By default a vanishing D_j raises DegenerateInputError; with
    ``allow_zero`` the zeros are recorded and skipped by the switch count.
    """
    pts = _normalize_points(points)
    d = len(pts[0])
    if len(pts) != d + 2:
        raise InvariantError(f"need d+2 = {d + 2} points in R^{d}, got {len(pts)}")
    if d < 2:
        raise BadShapeError("need at least two rows")
    kernel = SignKernel(pts)
    minors, d_ints, zeros, switches = kernel.one_switch(tuple(range(d + 2)), allow_zero)
    # An integer minor or determinant is the rational one times its columns' scales.
    scales = [column[0] for column in kernel.columns]
    total = prod(scales)
    minors = {(a, b): Fraction(v, total // (scales[a] * scales[b])) for (a, b), v in minors.items()}
    d_values = tuple(Fraction(v, total // scale) for v, scale in zip(d_ints, scales))
    ratios = tuple(minors[(j, d + 1)] / minors[(0, j)] for j in range(1, d + 1))
    return OneSwitchCertificate(d_values, minors, ratios, switches, zeros)

